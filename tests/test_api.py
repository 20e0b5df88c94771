import hashlib
import inspect

import uilc
from uilc import machine

# Digest of the public signatures: every callable in `uilc.__all__` (an
# exception class without its own constructor counts as "-"), the heap
# helpers, and the constructors of the configuration and the program
# records, one `name signature` line each.  A change that adds, removes or
# renames a parameter, or changes a default, must change this pin and say
# so.
SIGNATURES_SHA256 = "37bb235e17331c476a72fd1990dcc289a79ec91b48f037b89243d8f79095b35a"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:  # an exception class that keeps Exception's constructor
        return "-"


def test_public_signatures_are_pinned():
    public = [(name, getattr(uilc, name)) for name in uilc.__all__]
    lines = [f"{name} {_signature(obj)}" for name, obj in public if callable(obj)]
    for f in (machine.default_heap, machine.heap_from_seed):
        lines.append(f"machine.{f.__name__} {_signature(f)}")
    for cls in (uilc.MachineConfig, uilc.TargetProgram, uilc.AnnotatedProgram):
        lines.append(f"{cls.__name__}.__init__ {_signature(cls.__init__)}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SIGNATURES_SHA256, text


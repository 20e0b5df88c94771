import copy
import dataclasses
import hashlib
import inspect
import pickle
from collections.abc import KeysView
from dataclasses import FrozenInstanceError, fields

import pytest

import uilc
from uilc import _record, analysis, isa, machine, uil
from uilc.model import Reg

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



# The records built once per statement or instruction on the compile path:
# sample values for the parameters without a default, and the constructor's
# parameter names, order and defaults.  A change to how these records are
# built must keep them immutable, comparable and hashable as they are.
_RECORDS = [
    (uil.BinExpr, ("+", "a", 1), "op, a, b"),
    (uil.MemRead, ("b", 0), "base, index"),
    (uil.Cmp, ("<", "a", 0), "rel, a, b"),
    (uil.Assign, ("x", uil.BinExpr("-", 3, "y")), "dst, rhs, pos=None"),
    (uil.MemWrite, ("b", 1, "v"), "base, index, src, pos=None"),
    (
        uil.If,
        (uil.Cmp("<", "a", 0), (uil.ReturnValue(1),), (uil.ReturnValue(2),)),
        "test, then_body, else_body, pos=None",
    ),
    (uil.Call, ("f", ("a", 4)), "callee, args, dst=None, pos=None"),
    (uil.ReturnValue, ("v",), "value, pos=None"),
    (
        analysis.AnnotatedStatement,
        (uil.ReturnValue("v"), 0, frozenset({"v"}), {}.keys(), {}, True, ["v"], frozenset()),
        "stmt, point, ends, live_after, next_uses, tail, refs, across, then_body=(),"
        " else_body=(), then_live=frozenset(), else_live=frozenset(), dead=False, passed=()",
    ),
    (isa.Move, (1, 2), "dst, src"),
    (isa.LoadImm, (1, -5), "dst, imm"),
    (isa.Load, (1, 0), "dst, slot"),
    (isa.Store, (0, 1), "slot, src"),
    (isa.BinOpInst, ("+", 1, Reg(2), 3), "op, dst, a, b"),
    (isa.MemLoad, (1, Reg(2), 0), "dst, base, index"),
    (isa.MemStore, (Reg(1), 0, Reg(2)), "base, index, src"),
    (isa.CondJump, ("<", Reg(1), 0, "L1"), "rel, a, b, target"),
    (isa.Jump, (Reg(3),), "target"),
    (isa.LoadLabel, (1, "L1"), "dst, label"),
    (isa.LabelDef, ("L1",), "label"),
    (isa.FrameAdjust, (-2,), "delta"),
    (isa.Halt, (), ""),
]
_RECORD_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


def _parameters(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params
    )


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_constructor_signature(cls, args, signature):
    assert _parameters(cls) == signature
    assert _parameters(cls.__init__) == ", ".join(["self", *filter(None, [signature])])


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_docstring_is_a_plain_dataclass_docstring(cls, args, signature):
    # what `help` shows: a plain dataclass of the same fields names the
    # same constructor, as `uil.Definition.__doc__` does
    plain = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in fields(cls)],
        frozen=True,
    )
    assert cls.__doc__ == plain.__doc__
    assert cls.__doc__.startswith(f"{cls.__name__}(") and cls.__doc__.count(":") >= len(args)


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_fields_are_frozen(cls, args, signature):
    record = cls(*args)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    with pytest.raises(FrozenInstanceError):
        record.extra = 0


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_positional_and_keyword_construction_agree(cls, args, signature):
    params = list(inspect.signature(cls).parameters.values())
    positional = cls(*args)
    keyword = cls(**{p.name: a for p, a in zip(params, args)})
    assert positional == keyword and hash(positional) == hash(keyword)
    for p in params[len(args) :]:
        assert getattr(positional, p.name) == p.default
        assert getattr(keyword, p.name) == p.default
    shown = ", ".join(f"{f.name}={getattr(positional, f.name)!r}" for f in fields(cls))
    assert repr(positional) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize(
    "cls,args", [(cls, args) for cls, args, signature in _RECORDS if "pos=" in signature]
)
def test_record_pos_is_ignored_by_eq_and_hash(cls, args):
    a, b = cls(*args, pos=(1, 2)), cls(*args, pos=(3, 4))
    assert a.pos == (1, 2) and b.pos == (3, 4)
    assert a == b and hash(a) == hash(b)
    assert a == cls(*args) and hash(a) == hash(cls(*args))


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_is_built_as_its_own_class(cls, args, signature):
    params = inspect.signature(cls).parameters.values()
    assert type(cls(*args)) is cls
    assert type(cls(**{p.name: a for p, a in zip(params, args)})) is cls


def _copyable(value):
    """`value`, with a key view (which neither pickles nor deep-copies) as
    the frozen set of its keys."""
    return frozenset(value) if isinstance(value, KeysView) else value


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_copies_are_frozen_records(cls, args, signature):
    record = cls(*[_copyable(a) for a in args])
    copies = [
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        dataclasses.replace(record),
    ]
    for other in copies:
        assert type(other) is cls
        assert other == record and hash(other) == hash(record)
        for f in fields(cls):
            assert getattr(other, f.name) == getattr(record, f.name)
            with pytest.raises(FrozenInstanceError):
                setattr(other, f.name, getattr(other, f.name))
        with pytest.raises(FrozenInstanceError):
            other.extra = 0


def test_every_record_class_is_checked():
    listed = {cls for cls, _, _ in _RECORDS}
    found = {
        obj
        for module in (uil, analysis, isa)
        for obj in vars(module).values()
        if isinstance(obj, type) and getattr(obj, "__setattr__", None) is _record._refuse_assign
    }
    assert found <= listed, sorted(cls.__name__ for cls in found - listed)

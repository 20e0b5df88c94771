"""The frozen record class of the syntax nodes, annotated statements and
instructions: the objects a compile builds once per statement or
instruction.

A frozen dataclass's ``__init__`` stores each field through
``object.__setattr__``, which costs more than the rest of building a
small record.  A record is instead built on an unfrozen twin of its
class, where a plain ``self.f = f`` is a direct slot store (`record`).
Outside its ``__init__`` a record is never a twin.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

# the `__class__` setter, which bypasses a frozen class's `__setattr__`
_set_class = object.__dict__["__class__"].__set__


def record(cls):
    """``cls`` as a ``@dataclass(frozen=True, slots=True)`` whose
    ``__init__`` stores each field with a plain attribute store on an
    unfrozen twin of ``cls``.

    `dataclass` writes no ``__init__`` here (``init=False``).  This one
    has the same parameters, defaults and annotations, and runs in three
    steps: it sets the record's class to the twin (through ``object``'s
    ``__class__`` setter, since ``cls`` refuses the store), stores each
    field, and sets the class back to ``cls``.  A record with no fields
    skips both swaps.  The twin is made once per class, with no slots of
    its own, so the record's layout is the same under either class.  It
    resets ``__delattr__`` as well as ``__setattr__``: CPython serves
    both through one type slot, and a twin that inherited the frozen
    ``__delattr__`` would get the slot that calls Python-level methods,
    so its stores would not become direct slot stores.

    Assigning or deleting any attribute of a built record raises
    ``FrozenInstanceError``, and equality, hashing and ``repr`` are the
    dataclass's own.  ``copy`` and ``pickle`` restore a record through
    the dataclass's ``__setstate__`` and never meet the twin.  A field
    takes a plain default or none, and a record class is not subclassed.

    A record class without a docstring gets the one a plain dataclass
    gets, its name and constructor signature.  `dataclass` writes it from
    the ``__init__`` it sees, which is not this one yet, so it is written
    again here, from the fields.
    """
    documented = cls.__doc__ is not None
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env = {"__name__": cls.__module__}
    params, lines, annotations, shown = ["self"], [], {}, []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain default")
        shown.append(f"{f.name}: {inspect.formatannotation(f.type)}")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
            shown[-1] += f" = {f.default!r}"
        lines.append(f"    self.{f.name} = {f.name}")
        annotations[f.name] = f.type
    if lines:
        env["_set_class"] = _set_class
        env["_cls"] = cls
        env["_twin"] = type(
            cls.__name__,
            (cls,),
            {
                "__slots__": (),
                "__setattr__": object.__setattr__,
                "__delattr__": object.__delattr__,
            },
        )
        lines = ["    _set_class(self, _twin)", *lines, "    self.__class__ = _cls"]
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(lines) or "    pass"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    cls.__init__ = init
    if not documented:  # as `inspect.signature` shows the constructor
        cls.__doc__ = f"{cls.__name__}({', '.join(shown)})"
    # the frozen dataclass's own refusals raise TypeError for a name that is
    # no field, once `slots` has made the class anew (CPython 3.11)
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")

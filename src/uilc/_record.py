"""The frozen record class of every frozen data class of the library: the
syntax nodes, annotated statements and instructions that a compile builds
once per statement or instruction, and the program, definition,
diagnostic, annotated procedure and program, and observation records
around them.

A frozen dataclass's ``__init__`` stores each field through
``object.__setattr__``, which costs more than the rest of building a
small record.  A record is instead built on an unfrozen twin of its
class, where a plain ``self.f = f`` is a direct slot store (`record`).
Outside its ``__init__`` a record is never a twin.

`dataclass` itself writes each method with an ``exec``, and formats the
doc of an undocumented class from ``inspect.signature``, which parses a
signature text for a class with no ``__init__`` yet.  That was most of
what building a record class cost at import, so `record` takes only the
fields and the slotted class from `dataclass`, and makes the other
methods from the field names without ``exec``.
"""

from __future__ import annotations

import inspect
from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

# the `__class__` setter, which bypasses a frozen class's `__setattr__`
_set_class = object.__dict__["__class__"].__set__


def record(cls):
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` stores
    each field with a plain attribute store on an unfrozen twin of ``cls``.

    `dataclass` contributes the fields, ``__match_args__`` and the slotted
    class (``slots=True, init=False, repr=False, eq=False``), and no
    method.  So ``__dataclass_params__`` reads ``frozen=False``: a record
    is frozen by its own ``__setattr__`` and ``__delattr__``, which raise
    ``FrozenInstanceError`` for any name, as the frozen dataclass's do.
    ``__eq__``, ``__hash__`` and ``__repr__`` read the fields through
    ``operator.attrgetter`` and compare, hash and print exactly as the
    frozen dataclass's own: ``==`` and ``hash`` of the tuple of the
    ``compare`` fields, and ``Name(field=value, ...)`` over the ``repr``
    fields, with ``...`` for a record met again inside its own ``repr``.
    ``__getstate__`` and ``__setstate__`` carry every field, so ``copy``
    and ``pickle`` restore a record without meeting the twin.

    The ``__init__`` is the one ``exec`` per class.  It has the
    parameters, defaults and annotations a dataclass's would, and runs in
    three steps: it sets the record's class to the twin (through
    ``object``'s ``__class__`` setter, since ``cls`` refuses the store),
    stores each field, and sets the class back to ``cls``.  A record with
    no fields skips both swaps.  The twin is made once per class, with no
    slots of its own, so the record's layout is the same under either
    class.  It resets ``__delattr__`` as well as ``__setattr__``: CPython
    serves both through one type slot, and a twin that inherited the
    frozen ``__delattr__`` would get the slot that calls Python-level
    methods, so its stores would not become direct slot stores.

    A field takes a plain default or none, and no ``hash`` flag.  A record
    class defines none of the methods written here and is not subclassed.
    A record class without a docstring gets the one a plain dataclass
    gets, its name and constructor signature, written from the fields; it
    holds a placeholder while `dataclass` runs, so `dataclass` formats none.
    """
    documented = cls.__doc__ is not None
    if not documented:
        cls.__doc__ = cls.__name__
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    env = {"__name__": cls.__module__}
    params, lines, annotations, shown = ["self"], [], {}, []
    names, compared, printed = [], [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.hash is not None:
            raise TypeError(
                f"{cls.__name__}.{f.name}: a record field takes a plain default and no hash flag"
            )
        shown.append(f"{f.name}: {inspect.formatannotation(f.type)}")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
            shown[-1] += f" = {f.default!r}"
        lines.append(f"    self.{f.name} = {f.name}")
        annotations[f.name] = f.type
        names.append(f.name)
        if f.compare:
            compared.append(f.name)
        if f.repr:
            printed.append(f.name)
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
    init.__annotations__ = {**annotations, "return": None}
    if not documented:  # as `inspect.signature` shows the constructor
        cls.__doc__ = f"{cls.__name__}({', '.join(shown)})"

    key, values, shown_values = map(_fields_tuple, (compared, names, printed))
    labels = [f"{name}=" for name in printed]
    running = set()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        seen = id(self), get_ident()
        if seen in running:
            return "..."
        running.add(seen)
        try:
            items = [label + repr(value) for label, value in zip(labels, shown_values(self))]
            return f"{self.__class__.__qualname__}({', '.join(items)})"
        finally:
            running.discard(seen)

    def __getstate__(self):
        return values(self)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    for method in (init, __eq__, __hash__, __repr__, __getstate__, __setstate__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    # the frozen dataclass's own refusals raise TypeError for a name that is
    # no field, once `slots` has made the class anew (CPython 3.11)
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


def _fields_tuple(names):
    """The function from a record to the tuple of its fields ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")

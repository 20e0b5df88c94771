"""The frozen record class of the syntax nodes, annotated statements and
instructions: the objects a compile builds once per statement or
instruction."""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def record(cls):
    """``cls`` as a ``@dataclass(frozen=True, slots=True)`` whose
    ``__init__`` stores each field through its slot's descriptor.

    The ``__init__`` that `dataclass` writes for a frozen class calls
    ``object.__setattr__`` once per field, which costs more than the rest
    of building a small record.  So `dataclass` writes none here
    (``init=False``), and this one stores each value with the slot's
    descriptor (``cls.field.__set__``) instead, under the same parameters,
    defaults and annotations.  Only ``__init__`` stores: assigning or
    deleting any attribute of a built record raises
    ``FrozenInstanceError``, and equality, hashing and ``repr`` are the
    dataclass's own.  A field takes a plain default or none.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env = {"__name__": cls.__module__}
    params, lines, annotations = ["self"], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain default")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        lines.append(f"    _set_{f.name}(self, {f.name})")
        annotations[f.name] = f.type
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(lines) or "    pass"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    cls.__init__ = init
    # the frozen dataclass's own refusals raise TypeError for a name that is
    # no field, once `slots` has made the class anew (CPython 3.11)
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")

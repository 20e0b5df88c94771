import copy
import dataclasses
import hashlib
import inspect
import pickle
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



# Every record class (`_record.record`): the records built once per
# statement or instruction on the compile path, then the program,
# annotation and observation records around them.  Sample values for the
# parameters without a default, and the constructor's parameter names,
# order and defaults.  A change to how these records are built must keep
# them immutable, comparable and hashable as they are.
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
        (uil.ReturnValue("v"), 0, frozenset({"v"}), {}, True, ["v"], frozenset()),
        "stmt, point, ends, next_uses, tail, refs, across, then_body=(),"
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
    (uil.Definition, ("f", ("a",), (uil.ReturnValue("a"),)), "name, params, body, pos=None"),
    (uil.Program, ((), (uil.ReturnValue(0),)), "definitions, body"),
    (uil.Diagnostic, ("undefined variable 'x'",), "message, pos=None"),
    (
        analysis.AnnotatedProc,
        ("f", ("a",), (), {}, (), frozenset({"a"}), ("a",)),
        "name, params, body, by_point, calls, entry_live, read_params",
    ),
    (
        analysis.AnnotatedProgram,
        ((), {}, (), (), ("f",)),
        "entry, entry_by_point, entry_calls, procs, order",
    ),
    (machine.Observation, (3, ((0, 7),)), "value, writes"),
]
_RECORD_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


def _parameters(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params
    )


def _plain_dataclass(cls):
    """A frozen dataclass of the same name and fields as the record class."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (
                f.name,
                f.type,
                dataclasses.field(default=f.default, repr=f.repr, compare=f.compare),
            )
            for f in fields(cls)
        ],
        frozen=True,
    )


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_constructor_signature(cls, args, signature):
    assert _parameters(cls) == signature
    assert _parameters(cls.__init__) == ", ".join(["self", *filter(None, [signature])])


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_docstring_is_a_plain_dataclass_docstring(cls, args, signature):
    # what `help` shows: a plain dataclass of the same fields names the
    # same constructor
    assert cls.__doc__ == _plain_dataclass(cls).__doc__
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
    shown = ", ".join(
        f"{f.name}={getattr(positional, f.name)!r}" for f in fields(cls) if f.repr
    )
    assert repr(positional) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize(
    "cls,args",
    [
        (cls, args)
        for cls, args, signature in _RECORDS
        if any(f.name == "pos" and not f.compare for f in fields(cls))
    ],
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


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_copies_are_frozen_records(cls, args, signature):
    record = cls(*args)
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


@pytest.mark.parametrize("cls,args,signature", _RECORDS, ids=_RECORD_IDS)
def test_record_eq_hash_and_repr_are_a_frozen_dataclass_s(cls, args, signature):
    plain = _plain_dataclass(cls)
    params = inspect.signature(cls).parameters.values()
    values = {p.name: a for p, a in zip(params, args)}
    # the same values but for each field that takes no part in `==`
    other = {**values, **{f.name: ("differs",) for f in fields(cls) if not f.compare}}
    record, plain_record = cls(**values), plain(**values)
    assert repr(record) == repr(plain_record)
    assert hash(record) == hash(plain_record)
    assert (record == cls(**other)) is (plain_record == plain(**other)) is True
    assert hash(cls(**other)) == hash(plain(**other)) == hash(record)
    assert record != plain_record and (record == object()) is False


def test_record_repr_of_a_record_inside_itself_is_a_dataclass_s():
    def box(make):
        b = make([])
        b.items.append(b)
        return b

    Box = _record.record(type("Box", (), {"__annotations__": {"items": list}}))
    Plain = dataclasses.make_dataclass("Box", [("items", list)], frozen=True)
    assert repr(box(Box)) == repr(box(Plain)) == "Box(items=[...])"


def test_record_builds_a_class_without_inspecting_signatures(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("inspect.signature called")

    monkeypatch.setattr(inspect, "signature", refuse)
    Pair = _record.record(type("Pair", (), {"__annotations__": {"a": int, "b": str}, "b": "x"}))
    assert Pair.__doc__ == "Pair(a: int, b: str = 'x')"
    assert repr(Pair(1)) == "Pair(a=1, b='x')"
    assert Pair(1) == Pair(1, "x") and hash(Pair(1)) == hash((1, "x"))
    with pytest.raises(FrozenInstanceError):
        Pair(1).a = 2


@pytest.mark.parametrize(
    "spec", [{"default_factory": list}, {"default": 0, "init": False}, {"default": 0, "hash": False}]
)
def test_record_refuses_a_field_it_does_not_build_as_a_dataclass_does(spec):
    cls = type("Bad", (), {"__annotations__": {"a": int}, "a": dataclasses.field(**spec)})
    with pytest.raises(TypeError, match="Bad.a: a record field takes a plain default"):
        _record.record(cls)


def test_every_record_class_is_checked():
    listed = {cls for cls, _, _ in _RECORDS}
    found = {
        obj
        for module in (uil, analysis, isa, machine)
        for obj in vars(module).values()
        if isinstance(obj, type) and getattr(obj, "__setattr__", None) is _record._refuse_assign
    }
    assert found <= listed, sorted(cls.__name__ for cls in found - listed)

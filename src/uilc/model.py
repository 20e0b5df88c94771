"""Compile-time machine model: a dual variable-to-location mapping.

A model mirrors the runtime machine state during allocation.  Variables
bind to registers and stack slots separately; the same variable may hold
both at once (multi-homing), which is what lets redundant saves be
elided.  A model is the allocator's working state: an update changes it
in place and returns it, ``copy()`` forks it, and injectivity holds in
both maps at all times.  The public allocator primitives (``save``,
``load``, ``alloc_fragment``) copy the model they are given, so to their
callers models behave as values.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import ClassVar

RET = "RET"  # reserved model entry for the return address


class ModelError(Exception):
    pass


class _Location:
    """An immutable location, interned: one instance per index and kind.

    ``Reg(1) is Reg(1)``, so equality is identity and hashing is the
    built-in identity hash; a register never equals the slot of the same
    index.
    """

    __slots__ = ("i",)
    _interned: dict[int, "_Location"]
    _prefix: str

    def __new__(cls, i: int):
        try:
            return cls._interned[i]
        except KeyError:
            self = object.__new__(cls)
            object.__setattr__(self, "i", i)
            return cls._interned.setdefault(i, self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.i,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(i={self.i!r})"

    def __str__(self) -> str:
        return f"{self._prefix}{self.i}"


class Reg(_Location):
    __slots__ = ()
    _interned = {}
    _prefix = "r"


class Slot(_Location):
    __slots__ = ()
    _interned = {}
    _prefix = "fv"


Location = Reg | Slot


@dataclass(frozen=True)
class MachineConfig:
    """A machine of `registers` registers and the calling convention that
    the register count alone decides: r0 return address, r1 result, r1..
    the first `max_arg_regs` arguments, and the other registers
    callee-saved, the highest five at most: r4 at R=5, r4-r5 at R=6, and
    from R=7 on all but r4, which stays caller-saved (r5-r6 at R=7, r5-r7
    at R=8, r5-r9 at R=10, r11-r15 at R=16).  A machine of four registers
    or fewer has none.  `max_arg_regs` stays settable because C3 pins a
    convention of two argument registers.

    Chosen by dynamic loads plus stores on the generated corpus, measured
    for every count at R=5..16: keeping one scratch register caller-saved
    pays from R=7 on, and more than five saved under 1%.
    """

    registers: int
    max_arg_regs: int = field(default=3, kw_only=True)
    ret_addr_reg: ClassVar[int] = 0
    ret_val_reg: int = field(init=False)
    arg_regs: tuple[int, ...] = field(init=False)
    # registers a procedure hands back to its caller holding what they held
    # on entry; every other register is caller-saved
    callee_saved: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        registers = self.registers
        if registers < 1:
            raise ValueError("need at least one register")
        arg_regs = tuple(range(1, 1 + max(0, min(self.max_arg_regs, registers - 1))))
        rest = [r for r in range(2, registers) if r not in arg_regs]
        if len(rest) > 2:
            rest = rest[1:]
        object.__setattr__(self, "ret_val_reg", min(1, registers - 1))
        object.__setattr__(self, "arg_regs", arg_regs)
        object.__setattr__(self, "callee_saved", tuple(rest[-5:]) if registers > 4 else ())


# the constructor under the name the CLI, the benchmark and C3 call
make_config = MachineConfig


class Model:
    """Mutable variable-to-location binding.

    The update methods (``bind_reg``, ``bind_slot``, ``unbind_reg``,
    ``unbind_slot``, ``drop``, ``restrict``) change the model and return
    it, so a caller that threads one model through a pass builds no new
    one; ``copy()`` forks a model where two futures need their own.  A
    binding that collides raises ModelError before anything changes.

    ``reg_owner`` and ``slot_owner`` index the maps the other way round
    (register or slot to variable).  Updates keep them in step, so each
    bind checks for a collision with one lookup and injectivity holds by
    construction; ``check()`` verifies it in full.

    ``regmap`` lists the register residents in the order they were last
    bound (a constructor-built model in the order of the map it is
    given), which is all the recency-based eviction policies read; the
    order never affects equality.  Models compare by value and, being
    mutable, do not hash.
    """

    __slots__ = ("regmap", "stackmap", "reg_owner", "slot_owner")

    def __init__(
        self,
        regmap: dict[str, int] | None = None,
        stackmap: dict[str, int] | None = None,
        *,
        _state: tuple | None = None,
    ):
        if _state is not None:
            # `copy`, `initial_model` and the allocator's post-call and entry
            # models hand over fresh maps and indexes already in step: no check
            self.regmap, self.stackmap, self.reg_owner, self.slot_owner = _state
            return
        self.regmap = dict(regmap or {})
        self.stackmap = dict(stackmap or {})
        self.reg_owner = {r: v for v, r in self.regmap.items()}
        self.slot_owner = {s: v for v, s in self.stackmap.items()}
        self.check()

    def copy(self) -> "Model":
        """An independent model with the same bindings, in the same order."""
        return Model(
            _state=(
                dict(self.regmap),
                dict(self.stackmap),
                dict(self.reg_owner),
                dict(self.slot_owner),
            )
        )

    def check(self) -> None:
        """Raise ModelError unless both maps are injective and indexed."""
        if len(set(self.regmap.values())) != len(self.regmap):
            raise ModelError("two variables share a register")
        if len(set(self.stackmap.values())) != len(self.stackmap):
            raise ModelError("two variables share a stack slot")
        if self.reg_owner != {r: v for v, r in self.regmap.items()} or (
            self.slot_owner != {s: v for v, s in self.stackmap.items()}
        ):
            raise ModelError("owner index out of step with the maps")

    # -- queries ----------------------------------------------------------

    def reg_of(self, v: str) -> int | None:
        return self.regmap.get(v)

    def slot_of(self, v: str) -> int | None:
        return self.stackmap.get(v)

    def is_bound(self, v: str) -> bool:
        return v in self.regmap or v in self.stackmap

    def whereis(self, v: str) -> Location:
        """The variable's location, preferring its register home."""
        if v in self.regmap:
            return Reg(self.regmap[v])
        if v in self.stackmap:
            return Slot(self.stackmap[v])
        raise ModelError(f"'{v}' is not bound in the model")

    def register_residents(self) -> list[tuple[str, int]]:
        """(variable, register) pairs ordered by register index."""
        return [(v, r) for r, v in sorted(self.reg_owner.items())]

    def free_register(self, cfg: MachineConfig) -> int | None:
        reg_owner = self.reg_owner
        for r in range(cfg.registers):
            if r not in reg_owner:
                return r
        return None

    def free_slot(self) -> int:
        slot_owner = self.slot_owner
        i = 0
        while i in slot_owner:
            i += 1
        return i

    # -- updates (in place; each returns the model) -------------------------

    def bind_reg(self, v: str, r: int) -> "Model":
        reg_owner = self.reg_owner
        other = reg_owner.get(r)
        if other is not None and other != v:
            raise ModelError(f"register r{r} already holds '{other}'")
        old = self.regmap.pop(v, None)  # re-inserted last: regmap is in bind order
        if old is not None:
            del reg_owner[old]
        self.regmap[v] = r
        reg_owner[r] = v
        return self

    def bind_slot(self, v: str, s: int) -> "Model":
        slot_owner = self.slot_owner
        other = slot_owner.get(s)
        if other is not None and other != v:
            raise ModelError(f"slot fv{s} already holds '{other}'")
        old = self.stackmap.get(v)
        if old is not None:
            del slot_owner[old]
        self.stackmap[v] = s
        slot_owner[s] = v
        return self

    def unbind_reg(self, v: str) -> "Model":
        r = self.regmap.pop(v, None)
        if r is not None:
            del self.reg_owner[r]
        return self

    def unbind_slot(self, v: str) -> "Model":
        s = self.stackmap.pop(v, None)
        if s is not None:
            del self.slot_owner[s]
        return self

    def drop(self, vs) -> "Model":
        """Remove all bindings of the given names; unknown names are fine."""
        regmap, stackmap = self.regmap, self.stackmap
        reg_owner, slot_owner = self.reg_owner, self.slot_owner
        for v in vs:
            r = regmap.pop(v, None)
            if r is not None:
                del reg_owner[r]
            s = stackmap.pop(v, None)
            if s is not None:
                del slot_owner[s]
        return self

    def restrict(self, keep) -> "Model":
        """Drop every variable not in `keep`."""
        gone = set(self.regmap)
        gone.update(self.stackmap)
        gone.difference_update(keep)
        return self.drop(gone)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.regmap == other.regmap and self.stackmap == other.stackmap

    def dump(self) -> str:
        """Textual form like `{x:r1, y:r2}{z:fv0}`, entries ordered by index."""
        regs = ", ".join([f"{v}:r{r}" for r, v in sorted(self.reg_owner.items())])
        slots = ", ".join([f"{v}:fv{i}" for i, v in sorted(self.slot_owner.items())])
        return "{" + regs + "}{" + slots + "}"

    def __repr__(self) -> str:
        return f"Model({self.dump()})"


def arg_homes(n: int, cfg: MachineConfig, base: int = 0) -> list[Location]:
    """Where `n` arguments go, in order: the argument registers, then the
    stack slots `base`, `base` + 1, ..., which are the callee's fv0, fv1,
    ... once the caller's frame advances by `base`."""
    regs = cfg.arg_regs[:n]
    return [*map(Reg, regs), *map(Slot, range(base, base + n - len(regs)))]


def initial_model(params: tuple[str, ...], cfg: MachineConfig) -> Model:
    """Starting model for a procedure, derived from the calling convention.

    The return address is an implicit argument: RET binds to the
    return-address register, and the parameters take their `arg_homes`.
    """
    if RET in params:
        raise ModelError(f"'{RET}' cannot be a parameter")
    if len(set(params)) != len(params):
        raise ModelError("duplicate parameter names")
    regmap, reg_owner = {RET: cfg.ret_addr_reg}, {cfg.ret_addr_reg: RET}
    stackmap, slot_owner = {}, {}
    for v, home in zip(params, arg_homes(len(params), cfg)):
        if type(home) is Reg:
            regmap[v] = home.i
            reg_owner[home.i] = v
        else:
            stackmap[v] = home.i
            slot_owner[home.i] = v
    # distinct names in distinct homes: both maps are injective as built
    return Model(_state=(regmap, stackmap, reg_owner, slot_owner))

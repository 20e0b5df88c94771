"""Compile-time machine model: a dual variable-to-location mapping.

A model mirrors the runtime machine state during allocation.  Variables
bind to registers and stack slots separately; the same variable may hold
both at once (multi-homing), which is what lets redundant saves be
elided.  Models are immutable values: every operation returns a fresh
one, and injectivity holds in both maps at all times.
"""

from __future__ import annotations

from dataclasses import dataclass

RET = "RET"  # reserved model entry for the return address


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class Reg:
    i: int

    def __str__(self) -> str:
        return f"r{self.i}"


@dataclass(frozen=True)
class Slot:
    i: int

    def __str__(self) -> str:
        return f"fv{self.i}"


Location = Reg | Slot


@dataclass(frozen=True)
class MachineConfig:
    registers: int
    arg_regs: tuple[int, ...]
    ret_addr_reg: int = 0
    ret_val_reg: int = 1
    use_preferences: bool = True

    def __post_init__(self) -> None:
        if self.registers < 1:
            raise ValueError("need at least one register")
        if self.ret_addr_reg in self.arg_regs:
            raise ValueError("return-address register cannot be an argument register")
        for r in self.arg_regs + (self.ret_addr_reg, self.ret_val_reg):
            if not 0 <= r < self.registers:
                raise ValueError(f"register r{r} out of range")


def make_config(
    registers: int,
    *,
    max_arg_regs: int = 3,
    use_preferences: bool = True,
) -> MachineConfig:
    """Default convention: r0 return address, r1 result, r1.. arguments."""
    n_args = max(0, min(max_arg_regs, registers - 1))
    ret_val = 1 if registers > 1 else 0
    return MachineConfig(
        registers=registers,
        arg_regs=tuple(range(1, 1 + n_args)),
        ret_addr_reg=0,
        ret_val_reg=ret_val,
        use_preferences=use_preferences,
    )


class Model:
    """Immutable variable-to-location binding with binding-order tags.

    The order tag (a monotone counter on register binds) exists only so
    recency-based eviction policies are deterministic; it never affects
    equality.
    """

    __slots__ = ("regmap", "stackmap", "_seq", "_counter")

    def __init__(
        self,
        regmap: dict[str, int] | None = None,
        stackmap: dict[str, int] | None = None,
        _seq: dict[str, int] | None = None,
        _counter: int = 0,
    ):
        self.regmap = dict(regmap or {})
        self.stackmap = dict(stackmap or {})
        self._seq = dict(_seq or {})
        self._counter = _counter
        regs = list(self.regmap.values())
        slots = list(self.stackmap.values())
        if len(set(regs)) != len(regs):
            raise ModelError("two variables share a register")
        if len(set(slots)) != len(slots):
            raise ModelError("two variables share a stack slot")

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

    def variables(self) -> set[str]:
        return set(self.regmap) | set(self.stackmap)

    def register_residents(self) -> list[tuple[str, int]]:
        """(variable, register) pairs ordered by register index."""
        return sorted(self.regmap.items(), key=lambda kv: kv[1])

    def bind_seq(self, v: str) -> int:
        return self._seq.get(v, -1)

    def free_register(self, cfg: MachineConfig) -> int | None:
        used = set(self.regmap.values())
        for r in range(cfg.registers):
            if r not in used:
                return r
        return None

    def free_slot(self) -> int:
        used = set(self.stackmap.values())
        i = 0
        while i in used:
            i += 1
        return i

    # -- updates (return fresh models) -------------------------------------

    def bind_reg(self, v: str, r: int) -> "Model":
        for other, bound in self.regmap.items():
            if bound == r and other != v:
                raise ModelError(f"register r{r} already holds '{other}'")
        regmap = dict(self.regmap)
        regmap[v] = r
        seq = dict(self._seq)
        seq[v] = self._counter
        return Model(regmap, self.stackmap, seq, self._counter + 1)

    def bind_slot(self, v: str, s: int) -> "Model":
        for other, bound in self.stackmap.items():
            if bound == s and other != v:
                raise ModelError(f"slot fv{s} already holds '{other}'")
        stackmap = dict(self.stackmap)
        stackmap[v] = s
        return Model(self.regmap, stackmap, self._seq, self._counter)

    def unbind_reg(self, v: str) -> "Model":
        regmap = dict(self.regmap)
        regmap.pop(v, None)
        return Model(regmap, self.stackmap, self._seq, self._counter)

    def unbind_slot(self, v: str) -> "Model":
        stackmap = dict(self.stackmap)
        stackmap.pop(v, None)
        return Model(self.regmap, stackmap, self._seq, self._counter)

    def drop(self, vs) -> "Model":
        """Remove all bindings of the given names; unknown names are fine."""
        names = set(vs)
        if not names:
            return self
        regmap = {v: r for v, r in self.regmap.items() if v not in names}
        stackmap = {v: s for v, s in self.stackmap.items() if v not in names}
        seq = {v: q for v, q in self._seq.items() if v not in names}
        return Model(regmap, stackmap, seq, self._counter)

    def restrict(self, keep) -> "Model":
        return self.drop(self.variables() - set(keep))

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.regmap == other.regmap and self.stackmap == other.stackmap

    def __hash__(self) -> int:
        return hash(
            (frozenset(self.regmap.items()), frozenset(self.stackmap.items()))
        )

    def dump(self) -> str:
        """Textual form like `{x:r1, y:r2}{z:fv0}`, entries ordered by index."""
        regs = ", ".join(
            f"{v}:r{r}" for v, r in sorted(self.regmap.items(), key=lambda kv: kv[1])
        )
        slots = ", ".join(
            f"{v}:fv{s}" for v, s in sorted(self.stackmap.items(), key=lambda kv: kv[1])
        )
        return "{" + regs + "}{" + slots + "}"

    def __repr__(self) -> str:
        return f"Model({self.dump()})"


def drop(m: Model, vs) -> Model:
    return m.drop(vs)


def whereis(m: Model, v: str) -> Location:
    return m.whereis(v)


def free_register(m: Model, cfg: MachineConfig) -> int | None:
    return m.free_register(cfg)


def free_slot(m: Model) -> int:
    return m.free_slot()


def initial_model(params: tuple[str, ...], cfg: MachineConfig) -> Model:
    """Starting model for a procedure, derived from the calling convention.

    The return address is an implicit argument: RET binds to the
    return-address register, then as many parameters as possible go into
    argument registers, and the rest spill to slots 0, 1, ... in order.
    """
    if RET in params:
        raise ModelError(f"'{RET}' cannot be a parameter")
    if len(set(params)) != len(params):
        raise ModelError("duplicate parameter names")
    m = Model().bind_reg(RET, cfg.ret_addr_reg)
    n_reg = len(cfg.arg_regs)
    for i, v in enumerate(params[:n_reg]):
        m = m.bind_reg(v, cfg.arg_regs[i])
    for j, v in enumerate(params[n_reg:]):
        m = m.bind_slot(v, j)
    return m

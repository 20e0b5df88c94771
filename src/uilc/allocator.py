"""Register allocation by forward abstract interpretation over models.

The allocator walks each annotated procedure body once, threading one
working model through three primitives:

* ``save`` - give variables a stack home (elided when already homed)
* ``load`` - bring variables into registers, evicting a victim chosen by
             the configured replacement policy when none are free
* ``_sequence_moves`` - emit a set of simultaneous location-to-location
  moves, decomposed into paths and loops; it only emits code, and the
  join, call or return that needs one builds its own post-model

One ``_Allocator`` object makes one allocation (a program, a fragment,
or one public ``load``); it holds the machine, the policy and the clobber
sets, and its ``body`` method allocates one body after another.  The
statement transformers update the working model in place (through the
allocator's ``_load`` and the private ``_store``), and copy it only where
an `if` forks it into its two branches; a non-tail call builds the model
after it afresh.  The public ``save``, ``load`` and ``alloc_fragment``
work on a copy of the model they are given, which they leave as it is.

Live-range splitting falls out of save/load: a variable may live in a
register, migrate to the stack under pressure, and come back into a
different register later.  Victim choice is a static analogue of cache
replacement; the default policy evicts the candidate whose next use is
furthest away.

One method, ``_Allocator._free_reg``, picks every free register a
value takes, in one order: the branch preference (below), then the
register its next use reads (a returned value the return-value register,
a call argument the argument register of its first passed position),
then, for a value that lives across a later non-tail call (the
statement's ``across`` set), a callee-saved register or one that no
non-tail call of the body may change (below), and last the lowest free
register; an occupied one is passed over.  The move a return or call
would otherwise need then disappears.  A statement's next-use map names
that use by its point, and the body's point index from the annotation
gives the statement, so the allocator needs no interference graph and no
walk of its own.  When a value is computed just before a non-tail call
that reads it from a register held by a value living across the call,
the holder steps aside: it is stored now, to the slot the call would
have stored it in, and the argument is born in its register.

A statement the annotation marks dead (a pure assignment that nothing
reads, on any path, or an `if` whose branches hold only such) is the
identity on machine state: it emits nothing and leaves the model as it
is.

A procedure's convention covers its read parameters only (the
annotation's ``read_params``): they take the argument registers in order
and then the outgoing stack slots, and a call moves only the operands the
annotation says it passes.  An argument bound for an unread parameter is
never loaded, moved or stored.

A copy ``(set! x y)`` is a change of model, not of machine state, when
it can be: a copy whose destination is dead emits nothing, and one whose
source dies there (or that copies a variable onto itself) emits nothing
either and binds ``x`` to ``y``'s register and slot.  This is the
coalescing that graph colouring adds as a separate pass; here it is one
rule of the assignment's transformer.  Only a copy whose source lives
on needs a register of its own and a move.

At a join both branches must leave each value in the same places.  The
else branch of every `if` therefore prefers what the then branch ended
with: the then branch's register for a value it places, and the then
branch's slot for a value it saves, each when free.

A procedure owes its caller the callee-saved registers
(``MachineConfig.callee_saved``) as they were on entry.  Each debt is a
pseudo-variable ``%c<r>``, bound to register r on entry and kept to the
end like the return address ``RET``.  No statement reads one, so it is
evicted like any value under pressure (furthest sees no next use): the
save is lazy, and a procedure that never needs the register pays
nothing.  The return and tail-call shuffles move each debt back into its
register; a procedure that never evicts a debt moves each onto itself,
which emits nothing.  The entry body owes nothing and has no ``RET``: it
halts where a procedure returns, and hands its tail callee a halt
continuation.

Procedures are allocated callees first, in the annotation's ``order``,
and the entry body last (Steenkiste & Hennessy's bottom-up scheme).  When
a procedure's code is done, its clobber set records the registers a call
to it may change (``_clobber_set``): every register its code writes, the
sets of the procedures it calls (tail calls included), the return-address
and return-value registers and the argument registers of its read
parameters, less the callee-saved registers it hands back.  A callee not
yet allocated may change every caller-saved register: one that reaches
back to its caller along a cycle of calls (a self-call included), or any
callee of a fragment.  Each procedure on a cycle calls such a callee, or
one on the cycle whose set is already every caller-saved register, so
its own set is every caller-saved register, and so is, through it, the
set of every procedure that reaches a cycle.  A non-tail call leaves
every value in a register outside its callee's set where it is (the
callee-saved registers among them), and moves a value that lives across
it from any other register into a free callee-saved one, storing it only
when none is free.  A value that lives across a later non-tail call
takes, after the free callee-saved registers, a register that no
non-tail call of its body may change.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from ._gc import gc_paused
from .analysis import INF, AnnotatedProc, AnnotatedProgram, AnnotatedStatement, walk_statements
from .isa import (
    BinOpInst,
    CondJump,
    FrameAdjust,
    Halt,
    Inst,
    Jump,
    LabelDef,
    Load,
    LoadImm,
    LoadLabel,
    MemLoad,
    MemStore,
    Move,
    Store,
    TargetProgram,
)
from .model import (
    RET,
    MachineConfig,
    Model,
    ModelError,
    Reg,
    Slot,
    arg_homes,
    initial_model,
)
from .uil import Assign, BinExpr, Call, If, MemRead, MemWrite, ReturnValue, statement_line

POLICIES = ("furthest", "lifo", "fifo")

HALT_LABEL = ".halt"


class AllocError(Exception):
    """Internal allocator invariant violation."""


class PressureError(Exception):
    """Register pressure exceeds the machine's register count.

    The allocation that catches it records the statement's text and point.
    """

    stmt: str | None = None
    point: int | None = None

    def __str__(self) -> str:
        if self.stmt is not None:
            return f"{super().__str__()} (at statement {self.point}: {self.stmt})"
        return super().__str__()


# a move source: a location, an immediate, or a label (a `str`: return
# addresses, the halt continuation)
MoveSrc = Reg | Slot | int | str
MoveDst = Reg | Slot


@dataclass
class TraceEntry:
    """A statement's scope and annotation, copies of the models before and
    after it (both None when it is dead and emits nothing), and its code."""

    scope: str
    a: AnnotatedStatement
    pre: Model | None
    insts: list[Inst]
    post: Model | None


# ---------------------------------------------------------------------------
# Primitive transformers


def save(m: Model, vs) -> tuple[Model, list[Inst]]:
    """Give each variable a stack home, in order.

    Variables that already have one are skipped with no instructions, so
    repeated saves are free.  Register bindings are kept: after a save
    the variable lives in both places, in the lowest free slot.  Returns
    the updated copy of `m`; `m` itself is left as it is.
    """
    m = m.copy()
    insts: list[Inst] = []
    for v in vs:
        if not m.is_bound(v):
            raise ModelError(f"cannot save unbound variable '{v}'")
        if m.slot_of(v) is None:
            insts.append(_store(m, v, {}))
    return m, insts


def _store(m: Model, v: str, slot_prefs: dict[str, int]) -> Store:
    """Give the slotless register resident `v` a slot in `m`: its slot
    preference when free, else the lowest free slot; return the store."""
    s = slot_prefs.get(v)
    if s is None or s in m.slot_owner:
        s = m.free_slot()
    m.bind_slot(v, s)
    return Store(s, m.regmap[v])


def pick_victim(
    m: Model,
    protected: frozenset[str] | set[str],
    uses: dict[str, float],
    policy: str,
) -> str:
    """Choose the register-resident variable to evict.

    furthest: maximal next-use position in `uses` (a statement's
    ``next_uses``; absent means dead), ties to the lowest register.
    lifo/fifo: most/least recently register-bound, read off the order of
    ``m.regmap``.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "furthest":
        # one pass over the residents in bind order; a tie goes to the
        # lower register
        victim = None
        for r, v in m.reg_owner.items():
            if v not in protected:
                u = uses.get(v, INF)
                if victim is None or u > far or (u == far and r < low):
                    victim, far, low = v, u, r
        if victim is not None:
            return victim
    else:
        for v in reversed(m.regmap) if policy == "lifo" else m.regmap:
            if v not in protected:
                return v
    raise PressureError("no evictable register: all residents are in use")


def load(
    m: Model, vs, protected, uses: dict[str, float], policy: str, cfg: MachineConfig
) -> tuple[Model, list[Inst]]:
    """Bring each variable into a register, in order.

    Register-resident variables cost nothing.  Others are loaded from
    their slot into the lowest free register, or into an evicted victim's
    register; the victim is saved first (for free when multi-homed).
    Neither the listed variables nor the protected set may be evicted.
    Returns the updated copy of `m`; `m` itself is left as it is.
    """
    m = m.copy()
    insts: list[Inst] = []
    _Allocator(cfg, policy)._load(m, vs, protected, uses, insts)
    return m, insts


# ---------------------------------------------------------------------------
# Parallel-move sequencing


def _loc_key(loc) -> tuple[int, int]:
    return (0, loc.i) if isinstance(loc, Reg) else (1, loc.i)


def _value_into_reg(r: int, src: MoveSrc) -> Inst:
    kind = type(src)
    if kind is Reg:
        return Move(r, src.i)
    if kind is Slot:
        return Load(r, src.i)
    if kind is str:
        return LoadLabel(r, src)
    return LoadImm(r, src)


def _sequence_moves(
    moves: list[tuple[MoveSrc, MoveDst]],
    cfg: MachineConfig,
    busy_slots=(),
) -> list[Inst]:
    """Emit instructions realizing a set of simultaneous moves.

    The moves are a set: each location is the destination of one move at
    most, and their order never changes the code.  An identity move
    ``(loc, loc)`` emits nothing: `loc` already holds its final value, so
    the sequence must keep it, which is how a caller pins a register.
    ``busy_slots`` are occupied frame slots that scratch must avoid.

    The other moves (the legs) form paths and loops.  A path of k
    locations costs k-1 single moves, emitted deepest destination first;
    each loop costs one extra instruction that parks the value of its
    least location (registers before slots, then by index) in a free
    register, or in a scratch slot when none is free.

    Ready legs go in order of least (rank, index): register <- register
    (rank 0), slot <- register (1, a store, which can free its source),
    slot <- slot/immediate/label (2), register <- slot/immediate/label
    (3).  Ranks 0 and 3 write registers and 1 and 2 slots, so the key is
    unique per leg, and the loop entry and every register or slot picked
    below is the least one that serves: nothing depends on move order.

    A rank-2 leg passes through a temporary, the lowest register that is
    not live (`_Shuffle`).  When none is free, it first moves a parked
    loop value out to a scratch slot, which frees that register; only when
    no register holds a parked value does it borrow one.  The borrowed
    register is the lowest one that no pending leg reads: it is stored to
    a scratch slot once, serves as the temporary for every later leg, and
    is reloaded once, last.  When every register is still read, r0 is
    spilled around the one leg.
    """
    pending: dict[MoveDst, MoveSrc] = {}
    kept: set[MoveDst] = set()  # the destinations of identity moves
    for src, dst in moves:
        if dst in pending or dst in kept:
            raise AllocError(f"overlapping shuffle destinations at {dst}")
        if src is dst:
            kept.add(dst)
        else:
            pending[dst] = src
    if len(pending) <= 1:  # most shuffles: no leg, or one that needs no temporary
        if not pending:
            return []
        ((dst, src),) = pending.items()
        if type(dst) is Reg:
            return [_value_into_reg(dst.i, src)]
        if type(src) is Reg:
            return [Store(dst.i, src.i)]
    return _Shuffle(moves, pending, kept, cfg.registers, busy_slots).run()


class _Shuffle:
    """The state of one `_sequence_moves` call that needs more than one leg.

    ``src_count`` counts the pending readers of each register or slot, and
    ``ready`` lists the pending destinations that no pending leg reads;
    both are kept up to date leg by leg.  A register is ``live`` while it
    holds a value the sequence still needs: it is ``pinned`` (the
    destination of an identity move), a pending source, parked, or written
    by a leg.  A written register stays live: no leg reads it again.  Any
    other register is a free temporary.  Two facts make this one set
    enough:

    * a ready destination register is read by no pending leg, and is not
      pinned, parked or written before its own leg, so it is free: when no
      temporary is free, no register leg is ready, and the only ready legs
      besides rank 2 are stores (rank 1);
    * in a loop no leg is ready, so every pending destination register is
      some leg's source and live: a parked value never lands in one.

    Most sequences take no scratch slot, so the set of slots a scratch
    slot must avoid is built when the first one is taken (`_fresh_slot`).
    """

    __slots__ = (
        "moves", "pending", "src_count", "ready", "registers", "pinned", "live",
        "parked", "busy_slots", "used_slots", "insts", "restore",
    )

    def __init__(self, moves, pending, kept, registers, busy_slots):
        pinned = {loc.i for loc in kept if type(loc) is Reg}
        live = set(pinned)
        src_count: dict[MoveSrc, int] = {}
        for src in pending.values():
            kind = type(src)
            if kind is Reg:
                live.add(src.i)
            elif kind is not Slot:
                continue
            src_count[src] = src_count.get(src, 0) + 1
        self.moves = moves
        self.pending = pending
        self.src_count = src_count
        self.ready = [d for d in pending if d not in src_count]
        self.registers = registers
        self.pinned = pinned
        self.live = live
        self.parked: set[int] = set()  # registers holding a loop's entry value
        # the frame's occupied slots stay a view: only a scratch slot reads them
        self.busy_slots = busy_slots
        self.used_slots: set[int] | None = None  # built by the first `_fresh_slot`
        self.insts: list[Inst] = []
        self.restore: list[Inst] = []  # reload of a borrowed register, emitted last

    def run(self) -> list[Inst]:
        pending, ready, src_count = self.pending, self.ready, self.src_count
        live, insts = self.live, self.insts
        while pending:
            if not ready:
                self._break_loop()
                continue
            # the ready leg of least (rank, index), ranks as documented
            best = None
            for d in ready:
                if type(pending[d]) is Reg:
                    rank = 0 if type(d) is Reg else 1
                else:
                    rank = 3 if type(d) is Reg else 2
                if best is None or rank < best_rank or (rank == best_rank and d.i < best.i):
                    best, best_rank = d, rank
            d = best
            s = pending.pop(d)
            ready.remove(d)
            if type(d) is Reg:
                insts.append(_value_into_reg(d.i, s))
                live.add(d.i)
            elif type(s) is Reg:
                insts.append(Store(d.i, s.i))
            else:
                self._through_temp(d.i, s)
            if type(s) is Reg or type(s) is Slot:
                n = src_count[s] - 1
                if n:
                    src_count[s] = n
                else:
                    self._release(s)
        return insts + self.restore

    def _temp(self) -> int | None:
        """The lowest free temporary: a register that is not live."""
        live = self.live
        for r in range(self.registers):
            if r not in live:
                return r
        return None

    def _fresh_slot(self) -> int:
        """The lowest slot that no move names, that is not busy and that no
        earlier scratch slot took.  A slot a move names stays off limits
        once its leg is done: the set is built from the moves as given."""
        used = self.used_slots
        if used is None:
            used = self.used_slots = {
                loc.i for move in self.moves for loc in move if type(loc) is Slot
            }
        busy = self.busy_slots
        s = 0
        while s in used or s in busy:
            s += 1
        used.add(s)
        return s

    def _release(self, loc: MoveSrc) -> None:
        """`loc` has no pending reader left."""
        del self.src_count[loc]
        if loc in self.pending:
            self.ready.append(loc)
        if type(loc) is Reg and loc.i not in self.pinned:
            self.live.discard(loc.i)
            self.parked.discard(loc.i)

    def _redirect(self, old: MoveSrc, new: MoveSrc) -> None:
        """Make every pending reader of `old` read `new` instead."""
        pending, src_count = self.pending, self.src_count
        for dst, src in pending.items():
            if src is old:
                pending[dst] = new
                src_count[new] = src_count.get(new, 0) + 1
        self._release(old)

    def _through_temp(self, dst: int, src: MoveSrc) -> None:
        """Emit slot `dst` <- `src` through a free temporary, or through a
        parked, borrowed or spilled register when none is free."""
        insts = self.insts
        t = self._temp()
        if t is None and self.parked:
            # move a parked loop value out to the stack to free its register
            t = min(self.parked)
            keep = self._fresh_slot()
            insts.append(Store(keep, t))
            self._redirect(Reg(t), Slot(keep))
        if t is None:
            t = self._borrow()
        if t is not None:
            insts.append(_value_into_reg(t, src))
            insts.append(Store(dst, t))
            return
        # every register is read by a pending leg: spill r0 around this one
        keep = self._fresh_slot()
        insts.append(Store(keep, 0))
        insts.append(_value_into_reg(0, src))
        insts.append(Store(dst, 0))
        insts.append(Load(0, keep))

    def _borrow(self) -> int | None:
        """Lend the lowest register no pending leg reads out as the
        temporary until the sequence ends.

        Such a register is pinned or already written (else it would be a
        free temporary), so it is reloaded once, last.
        """
        for b in range(self.registers):
            if Reg(b) not in self.src_count:
                keep = self._fresh_slot()
                self.insts.append(Store(keep, b))
                self.restore.append(Load(b, keep))
                self.pinned.discard(b)
                self.live.discard(b)
                return b
        return None

    def _break_loop(self) -> None:
        """Every pending destination is still someone's source: a loop.
        Park the value of its least location in a temporary and redirect
        its readers."""
        d0 = min(self.pending, key=_loc_key)
        t = self._temp()
        if t is not None:
            self.insts.append(_value_into_reg(t, d0))
            self.live.add(t)
            self.parked.add(t)
            self._redirect(d0, Reg(t))
            return
        keep = self._fresh_slot()
        if type(d0) is Reg:
            self.insts.append(Store(keep, d0.i))
        else:
            self._through_temp(keep, d0)
        self._redirect(d0, Slot(keep))


# ---------------------------------------------------------------------------
# Compound transformers (dispatch on statement syntax)


def _next_live(body: tuple[AnnotatedStatement, ...], i: int) -> AnnotatedStatement | None:
    """The first statement after ``body[i]`` that is not dead, or None."""
    for j in range(i + 1, len(body)):
        if not body[j].dead:
            return body[j]
    return None


def _rebind_copy(a: AnnotatedStatement, m: Model) -> Model | None:
    """Update `m` for the copy `(set! x y)` at `a` when it needs no code,
    and return it.

    A dead `x` is never read: the copy only ends what ends at `a`.  When
    `y` dies here, or `x` is `y`, `x` takes over `y`'s register and slot.
    Any other copy needs a move, and gets None with `m` untouched.
    """
    x, y = a.stmt.dst, a.stmt.rhs
    if not m.is_bound(y):
        raise ModelError(f"cannot load unbound variable '{y}'")
    if x in a.ends:
        return m.drop(a.ends)
    if x != y and y not in a.ends:
        return None
    r, i = m.reg_of(y), m.slot_of(y)
    m.drop((x, y))
    if r is not None:
        m.bind_reg(x, r)
    if i is not None:
        m.bind_slot(x, i)
    return m


# the instructions that write their `dst` register
_WRITES = frozenset([Move, LoadImm, Load, BinOpInst, MemLoad, LoadLabel])
_DST = operator.attrgetter("dst")


class _Allocator:
    """One allocation (of a program, a fragment, or one public `load`),
    whose `body` method allocates one body after another.

    One working model is threaded through a body and updated in place by
    each statement; it is copied only where an `if` forks it into its two
    branches.  Each statement's transformer appends its code to the one
    instruction list of its body (an `if` keeps its then branch's code
    apart until the else branch's is in place).  Every operand value,
    move and pin takes its `Reg` from the machine's table (`cfg.regs`).
    ``by_point`` maps each point of the body to its annotated statement,
    so a statement's next uses lead to the statements that read them.
    """

    def __init__(self, cfg: MachineConfig, policy: str, trace: list[TraceEntry] | None = None):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.cfg = cfg
        self.policy = policy
        # callee -> the registers a call to it may change (`_clobber_set`),
        # recorded as each procedure's code is done (`_clobber` reads it)
        self.clobbers: dict[str, frozenset[int]] = {}
        self.trace = trace
        self.labels = itertools.count()
        self.need_halt = False
        # the body's point index, set by `body`; a public `load` has none
        self.by_point: dict[int, AnnotatedStatement] = {}
        # the other branch's final registers and slots, while allocating
        # the else branch of an `if`
        self.prefs: dict[str, int] = {}
        self.slot_prefs: dict[str, int] = {}

    def body(
        self, scope: str, body, by_point, calls, m: Model, owed=()
    ) -> tuple[list[Inst], Model]:
        """Allocate `body`, with its point index and calls, from `m`; return
        its code and the model after it.  `owed` pairs each debt with its
        callee-saved register: bound there on entry, kept like RET."""
        self.scope = scope
        self.by_point = by_point
        self.calls = calls
        # where a value that lives across a later non-tail call goes first;
        # set by `_across_regs` when the body's first such value needs it
        self.across_regs: tuple[int, ...] | None = None
        self.owed = [(v, self.cfg.regs[r]) for v, r in owed]
        self.kept = {RET, *dict(owed)}
        for v, r in owed:
            m.bind_reg(v, r)
        insts: list[Inst] = []
        m = self.run(body, m, insts)
        return insts, m

    # -- helpers -----------------------------------------------------------

    def _fresh_label(self) -> str:
        return f".L{next(self.labels)}"

    def _where(self, m: Model, v: str) -> Reg | Slot:
        """`m.whereis(v)`, with the register taken from the table."""
        r = m.regmap.get(v)
        return m.whereis(v) if r is None else self.cfg.regs[r]

    def _clobber(self, callee: str) -> frozenset[int]:
        """The registers a call to `callee` may change: its clobber set, or
        every caller-saved register for a callee not yet allocated (one on
        a cycle of calls through the caller, or any callee of a
        fragment)."""
        regs = self.clobbers.get(callee)
        return self.cfg.caller_saved if regs is None else regs

    def _clobber_set(self, insts: list[Inst], proc: AnnotatedProc) -> frozenset[int]:
        """The registers a call to `proc`, whose code is `insts`, may
        change, as its callers see them.

        Every register the code writes, the set of every procedure it calls
        (tail calls included; `_clobber`), the return-address and
        return-value registers and the argument registers of its read
        parameters, less the callee-saved registers, which it hands back.
        For a procedure on a cycle of calls that is every caller-saved
        register: it calls one on the cycle not yet allocated, or one whose
        set is that already.
        """
        cfg = self.cfg
        regs = {cfg.ret_addr_reg, cfg.ret_val_reg, *cfg.arg_regs[: len(proc.read_params)]}
        for call in proc.calls:
            regs |= self._clobber(call.stmt.callee)
        # the code's writes can add only a caller-saved register still missing
        if not regs.issuperset(cfg.caller_saved):
            # the `dst` of each instruction whose type is in _WRITES, looped in C
            written = itertools.compress(insts, map(_WRITES.__contains__, map(type, insts)))
            regs.update(map(_DST, written))
        return frozenset(regs.difference(cfg.callee_saved))

    def _across_regs(self) -> tuple[int, ...]:
        """The registers a value that lives across a later non-tail call
        tries first: the callee-saved ones, then, lowest first, the others
        that no non-tail call of the body may change."""
        saved = self.cfg.callee_saved
        changed = set(saved)
        for call in self.calls:
            if not call.tail:
                changed |= self._clobber(call.stmt.callee)
        return saved + tuple([r for r in range(self.cfg.registers) if r not in changed])

    def _read_reg(self, var: str, b: AnnotatedStatement) -> int | None:
        """The register `b` reads `var` from: the return-value register for
        a returned `var`, the argument register of `var`'s first passed
        position at a call; None for anything else (a stack argument, or
        a statement that reads its operands from wherever they are)."""
        s = b.stmt
        if type(s) is ReturnValue:
            return self.cfg.ret_val_reg if s.value == var else None
        for arg, r in zip(b.passed, self.cfg.arg_regs):  # only a call passes any
            if arg == var:
                return r
        return None

    def _free_reg(self, m: Model, var: str, uses: dict[str, float], across) -> int | None:
        """A free register for `var`, whose next uses are `uses` and which
        lives across a later non-tail call when it is in `across`, or None
        when every register is taken.

        First the branch preference (the register `var` holds at the end
        of the other branch), then the register `var`'s next use reads
        (`_read_reg`), then, for a variable in `across`, a callee-saved
        register or one that no non-tail call of the body may change
        (`_across_regs`), and last the lowest free register.  A preference
        or next-use register that is occupied is passed over, never
        evicted.
        """
        owner = m.reg_owner
        if len(owner) >= self.cfg.registers:  # all taken: no model binds r >= registers
            return None
        r = self.prefs.get(var)
        if r is not None and r not in owner:
            return r
        b = self.by_point.get(uses.get(var))
        if b is not None:
            r = self._read_reg(var, b)
            if r is not None and r not in owner:
                return r
        if var in across:
            regs = self.across_regs
            if regs is None:
                regs = self.across_regs = self._across_regs()
            for r in regs:
                if r not in owner:
                    return r
        return m.free_register(self.cfg)

    def _evict(self, m: Model, protected, uses: dict[str, float], insts: list[Inst]) -> int:
        """Free the register of the policy's victim in `m` and return it.

        A victim without a slot is stored first (`_store`), and the store is
        appended to `insts`; a multi-homed victim only loses its register.
        """
        victim = pick_victim(m, protected, uses, self.policy)
        r = m.regmap[victim]
        if victim not in m.stackmap:
            insts.append(_store(m, victim, self.slot_prefs))
        m.unbind_reg(victim)
        return r

    def _load(
        self, m: Model, vs, protected, uses: dict[str, float], insts: list[Inst], across=()
    ) -> None:
        """`load`, updating `m` in place and appending the instructions to
        `insts`; each variable that needs a register takes the one
        `_free_reg` picks (`across` is the statement's call-crossing set).

        When every variable is already resident this returns at once.
        Otherwise one set, `needed`, holds the listed variables and the
        protected residents: its size is checked against the register count
        before anything changes (so a PressureError comes before any
        ModelError), and it is the set the victims are chosen outside.  A
        protected variable that is not resident never becomes one here, so it
        needs no place in the set.  A name listed twice is resident by its
        second turn and costs nothing more.

        A PressureError or ModelError raised part-way leaves `m` half
        updated.  The allocator lets either abort the whole allocation, so no
        one reads that model again.
        """
        regmap = m.regmap
        registers = self.cfg.registers
        if len(m.reg_owner) <= registers:
            for v in vs:
                if v not in regmap:
                    break
            else:
                return
        needed = set(vs)
        for v in protected:
            if v in regmap:
                needed.add(v)
        if len(needed) > registers:
            raise PressureError(
                f"{len(needed)} values must be register-resident at once, "
                f"but the machine has {registers} register(s)"
            )
        stackmap = m.stackmap
        for v in vs:
            if v in regmap:
                continue
            s = stackmap.get(v)
            if s is None:
                raise ModelError(f"cannot load unbound variable '{v}'")
            r = self._free_reg(m, v, uses, across)
            if r is None:
                r = self._evict(m, needed, uses, insts)
            insts.append(Load(r, s))
            m.bind_reg(v, r)

    def _load_operands(self, a: AnnotatedStatement, m: Model, insts: list[Inst]) -> list:
        """Load the statement's variable operands (`a.refs`, which for an
        assignment, memory write or `if` lists exactly them) together into
        `m`, appending the loads to `insts`; return the operand values in
        order."""
        # the operands protect each other; nothing else is protected
        self._load(m, a.refs, (), a.next_uses, insts, a.across)
        regmap, regs = m.regmap, self.cfg.regs  # every variable operand is in a register
        return [regs[regmap[o]] if type(o) is str else o for o in a.stmt.operands()]

    def _dest_reg(self, m: Model, body, i: int, insts: list[Inst]) -> int:
        """Bind the variable `var` that ``body[i]`` assigns to a register in
        `m`, append the instructions that free it to `insts`, and return
        the register.

        When the next statement of `body` that is not dead is a call that
        reads `var` from a register another value holds, and that value
        lives across the call (so the call is not a tail call), the holder
        steps aside: it is saved now, as the call would save it anyway, and
        `var` is computed straight into the register (see `_claim`).  Such
        a call is `var`'s next use.  Otherwise `_free_reg` chooses.  Under
        pressure any resident may be evicted, operands of the current
        statement included: their registers are read before the
        destination is written, and the save keeps their value reachable.
        """
        a = body[i]
        var = a.stmt.dst
        call = self.by_point.get(a.next_uses.get(var))
        if call is not None and type(call.stmt) is Call and call is _next_live(body, i):
            r = self._claim(m, var, a.next_uses, call, insts)
            if r is not None:
                return r
        r = self._free_reg(m, var, a.next_uses, a.across)
        if r is None:
            r = self._evict(m, (), a.next_uses, insts)
        m.bind_reg(var, r)
        return r

    def _claim(
        self,
        m: Model,
        var: str,
        uses: dict[str, float],
        call: AnnotatedStatement,
        insts: list[Inst],
    ) -> int | None:
        """Take `var`'s argument register at `call` from its holder `w`;
        return the register, with the holder's store appended to `insts`.

        Only when `w` is next read after the call, so the call would store
        it anyway (RET, which no statement reads, never steps aside; after
        a tail call nothing is read, so it never claims).  A slotless `w`
        is stored to the slot the call would give it, which keeps the
        frame layout; when the call would move it into a callee-saved
        register instead, it stays, and the call moves it.  (A move made
        here would come before the statement's own operation, whose dying
        operands may still be in that register.)  Every None is returned
        before `m` is updated.
        """
        r = self._read_reg(var, call)
        w = m.reg_owner.get(r)
        if w is None or uses.get(w, -1) <= call.point:
            return None
        if m.slot_of(w) is None:
            clobber = self._clobber(call.stmt.callee)
            home = self._call_homes(m, clobber, call.ends | {call.stmt.dst})[w]
            if type(home) is Reg:
                return None
            insts.append(Store(home.i, r))
            m.bind_slot(w, home.i)
        m.unbind_reg(w).bind_reg(var, r)
        return r

    def _call_homes(self, m: Model, clobber, gone=(), avoid=()) -> dict[str, Reg | Slot]:
        """Where a non-tail call keeps each slotless resident of `clobber`,
        the registers the callee may change.

        Residents of the other registers (the callee-saved ones among them)
        stay there and get none, and so do residents in `gone`, which die at
        the call.  In register order, the others take the free callee-saved
        registers first; the rest take a free slot preference, else the
        lowest free slots not in `avoid` (the slots the call's arguments are
        read from).  When no resident needs a home this returns at once.
        """
        stackmap = m.stackmap
        slotless = [
            (r, v)
            for r, v in m.reg_owner.items()
            if r in clobber and v not in stackmap and v not in gone
        ]
        if not slotless:
            return {}
        slotless.sort()
        owner, regs = m.reg_owner, self.cfg.regs
        free = [r for r in self.cfg.callee_saved if r not in owner]
        homes: dict[str, Reg | Slot] = {v: regs[r] for (_, v), r in zip(slotless, free)}
        slotless = [v for _, v in slotless[len(free):]]
        taken = set(m.slot_owner)
        slot_prefs = self.slot_prefs
        for v in slotless:
            i = slot_prefs.get(v)
            if i is not None and i not in taken:
                homes[v] = Slot(i)
                taken.add(i)
        i = 0
        for v in slotless:
            if v not in homes:
                while i in taken or i in avoid:
                    i += 1
                homes[v] = Slot(i)
                taken.add(i)
        return homes

    def _seq(self, moves, m: Model, insts: list[Inst]) -> None:
        """Append the code of the simultaneous `moves` out of `m` to `insts`."""
        insts += _sequence_moves(moves, self.cfg, busy_slots=m.slot_owner.keys())

    # -- statement dispatch --------------------------------------------------

    def run(self, body, m: Model, insts: list[Inst]) -> Model:
        """Allocate `body` statement by statement from `m`, appending its
        code to `insts`; return the model after it."""
        trace = self.trace
        for i, a in enumerate(body):
            if a.dead:  # emits nothing and leaves the model as it is
                if trace is not None:
                    trace.append(TraceEntry(self.scope, a, None, [], None))
                continue
            if trace is not None:
                pre, start = m.copy(), len(insts)
            try:
                kind = type(a.stmt)
                if kind is Assign:
                    m = self._assign(body, i, m, insts)
                elif kind is Call:
                    m = self._call(a, m, insts)
                elif kind is If:
                    m = self._if(a, m, insts)
                elif kind is MemWrite:
                    m = self._memwrite(a, m, insts)
                elif kind is ReturnValue:
                    m = self._return(a, m, insts)
                else:  # pragma: no cover
                    raise AllocError(f"unknown statement {a.stmt!r}")
            except PressureError as e:
                if e.stmt is None:
                    e.stmt = statement_line(a.stmt)
                    e.point = a.point
                raise
            if trace is not None:
                trace.append(TraceEntry(self.scope, a, pre, insts[start:], m.copy()))
        return m

    def _assign(self, body, i: int, m: Model, insts: list[Inst]) -> Model:
        """Compute the right-hand side of ``body[i]`` into the destination's
        register.

        A copy that `_rebind_copy` turns into a model rebind emits nothing.
        Any other assignment loads its operands, drops what ends here and
        the destination's old binding, and writes a register from
        `_dest_reg`; a dead destination is dropped again afterwards.
        """
        a = body[i]
        s = a.stmt
        rhs = s.rhs
        if type(rhs) is str:
            rebound = _rebind_copy(a, m)
            if rebound is not None:
                return rebound
        vals = self._load_operands(a, m, insts)

        # operands that end here die, and so does the destination's old
        # binding (implicit renaming)
        dst = s.dst
        m.drop((dst, *a.ends))
        d = self._dest_reg(m, body, i, insts)

        kind = type(rhs)
        if kind is BinExpr:
            insts.append(BinOpInst(rhs.op, d, *vals))
        elif kind is MemRead:
            insts.append(MemLoad(d, *vals))
        elif kind is str:
            if vals[0].i != d:
                insts.append(Move(d, vals[0].i))
        else:
            insts.append(LoadImm(d, rhs))

        if dst in a.ends:  # dead destination: never occupy a register
            m.unbind_reg(dst)
        return m

    def _memwrite(self, a: AnnotatedStatement, m: Model, insts: list[Inst]) -> Model:
        insts.append(MemStore(*self._load_operands(a, m, insts)))
        return m.drop(a.ends)

    def _if(self, a: AnnotatedStatement, m: Model, insts: list[Inst]) -> Model:
        """Test, branch and join.  The else branch's code follows the test,
        and the then branch's, allocated first, follows that."""
        s = a.stmt
        va, vb = self._load_operands(a, m, insts)
        m.drop(a.ends)

        then_label = self._fresh_label()
        insts.append(CondJump(s.test.rel, va, vb, then_label))

        # the one fork of the working model; a variable referenced on only
        # one side dies entering the other, and no statement there carries
        # its ending, so it is dropped here
        m_else = m.copy().restrict(a.else_live | self.kept)
        m_then = m.restrict(a.then_live | self.kept)

        saved = self.prefs, self.slot_prefs
        then_insts: list[Inst] = []
        m2 = self.run(a.then_body, m_then, then_insts)
        # steer the other branch toward the allocations already made; these
        # alias m2's maps, which nothing changes after the then branch
        self.prefs, self.slot_prefs = m2.regmap, m2.stackmap
        m3 = self.run(a.else_body, m_else, insts)
        self.prefs, self.slot_prefs = saved

        if a.tail:
            # both branches leave the procedure; no join to reconcile
            insts.append(LabelDef(then_label))
            insts += then_insts
            return m3

        # make the then side conform to the else side's final model: a
        # move into each register of m3 (an identity, which pins it, where
        # m2 agrees) and into each slot of m3 that m2 does not already
        # use for the same value.  Each branch has dropped what ends in it,
        # so both models bind only the values live after the `if`, RET and
        # the debts
        regs, where = self.cfg.regs, self._where
        slots2 = m2.stackmap
        moves: list[tuple[MoveSrc, MoveDst]] = [
            (where(m2, v), regs[r]) for v, r in m3.regmap.items()
        ]
        moves += [(where(m2, v), Slot(i)) for v, i in m3.stackmap.items() if slots2.get(v) != i]

        end_label = self._fresh_label()
        insts.append(Jump(end_label))
        insts.append(LabelDef(then_label))
        insts += then_insts
        self._seq(moves, m2, insts)
        insts.append(LabelDef(end_label))
        return m3

    def _call(self, a: AnnotatedStatement, m: Model, insts: list[Inst]) -> Model:
        """Move the arguments and the return address into place and jump.

        A non-tail call keeps every call-live value in this frame: a value
        in a register outside the callee's clobber set (a callee-saved one
        among them) stays there, one that already has a slot keeps it, and
        any other goes to the home `_call_homes` gives it: a free
        callee-saved register, moved there in the same shuffle as the
        arguments and kept in the post-call model, or else a slot.
        The frame pointer advances by the highest home slot + 1 (not at
        all when nothing lives across the call), so the outgoing stack
        arguments, placed just above it, become the callee's fv0, fv1, ...
        A tail call also restores what this procedure owes its caller.
        """
        s = a.stmt
        cfg = self.cfg
        regs = cfg.regs
        where = self._where
        arg_srcs: list[MoveSrc] = [
            where(m, arg) if isinstance(arg, str) else arg for arg in a.passed
        ]

        # the argument sources are read above, before anything is dropped
        # (dropping the callee label is a no-op); the result rebinds the
        # destination, whose old value dies here
        m.drop(a.ends if s.dst is None else (s.dst, *a.ends))

        if a.tail:
            # the callee takes over this frame: no call-lives to keep
            moves = list(zip(arg_srcs, arg_homes(len(arg_srcs), cfg)))
            if m.is_bound(RET):
                ret_src: MoveSrc = where(m, RET)
            else:
                self.need_halt = True  # entry frame returns to the halt stub
                ret_src = HALT_LABEL
            self._exit_moves(moves, m, ret_src, cfg.ret_addr_reg)
            self._seq(moves, m, insts)
            insts.append(Jump(s.callee))
            return m

        clobber = self._clobber(s.callee)
        avoid = {src.i for src in arg_srcs if type(src) is Slot}
        homes = self._call_homes(m, clobber, avoid=avoid)
        regmap = m.regmap
        moves = [(regs[regmap[v]], h) for v, h in homes.items()]
        # the post-call model: what stays in a register outside `clobber`
        # (pinned by an identity move: the callee leaves it as it is), what
        # moves to a callee-saved home, and every slot, old and new
        stay: dict[str, int] = {}
        stay_owner: dict[int, str] = {}
        for v, r in regmap.items():
            if r not in clobber:
                moves.append((regs[r], regs[r]))
            else:
                h = homes.get(v)
                if type(h) is not Reg:
                    continue
                r = h.i
            stay[v] = r
            stay_owner[r] = v
        home, home_owner = dict(m.stackmap), dict(m.slot_owner)
        for v, h in homes.items():
            if type(h) is Slot:
                home[v] = h.i
                home_owner[h.i] = v
        k = max(home_owner, default=-1) + 1
        # outgoing stack args become the callee's fv0.. once fp advances
        moves += zip(arg_srcs, arg_homes(len(arg_srcs), cfg, k))
        lab1 = self._fresh_label()
        moves.append((lab1, regs[cfg.ret_addr_reg]))
        self._seq(moves, m, insts)
        if k:
            insts.append(FrameAdjust(k))
        insts.append(Jump(s.callee))
        insts.append(LabelDef(lab1))
        if k:
            insts.append(FrameAdjust(-k))

        # no other register survives the call; the result arrives in ret_val.
        # Both maps are injective by construction, so the model takes them
        # (and their owner indexes) as they are
        m2 = Model(_state=(stay, home, stay_owner, home_owner))
        if s.dst is not None and s.dst not in a.ends:
            m2.bind_reg(s.dst, cfg.ret_val_reg)
        return m2

    def _return(self, a: AnnotatedStatement, m: Model, insts: list[Inst]) -> Model:
        s = a.stmt
        cfg = self.cfg
        val_src: MoveSrc = self._where(m, s.value) if isinstance(s.value, str) else s.value
        val_reg = cfg.regs[cfg.ret_val_reg]

        if not m.is_bound(RET):  # nothing to return to (the entry body): halt
            m.drop(a.ends)
            self._seq([(val_src, val_reg)], m, insts)
            insts.append(Halt())
            return m

        ret_src = self._where(m, RET)

        # the jump register must not be one the return restores
        val, saved = cfg.ret_val_reg, cfg.callee_saved
        if type(ret_src) is Reg and ret_src.i != val and ret_src.i not in saved:
            target = ret_src.i
        else:
            target = next((r for r in range(cfg.registers) if r != val and r not in saved), None)
            if target is None:
                raise PressureError(
                    "cannot hold both the return value and the return address"
                )
        moves = [(val_src, val_reg)]
        self._exit_moves(moves, m, ret_src, target)
        self._seq(moves, m, insts)
        insts.append(Jump(cfg.regs[target]))
        return m

    def _exit_moves(self, moves: list, m: Model, ret_src: MoveSrc, ret_reg: int) -> None:
        """Add the moves that leave the frame (at a return or a tail call):
        RET from `ret_src` into `ret_reg`, each debt into its register."""
        moves.append((ret_src, self.cfg.regs[ret_reg]))
        for v, r in self.owed:
            moves.append((self._where(m, v), r))


# ---------------------------------------------------------------------------
# Whole-program entry points


def alloc_fragment(
    body: tuple[AnnotatedStatement, ...],
    cfg: MachineConfig,
    policy: str = "furthest",
    m: Model | None = None,
) -> tuple[list[Inst], Model]:
    """Allocate a bare statement sequence starting from a given model,
    which is left as it is (the allocation works on a copy).  No callee of
    a fragment is allocated: a call may change every caller-saved register.
    A model that binds a register the machine lacks raises ModelError."""
    if m is None:
        m = Model()
    else:
        for r in m.reg_owner:
            if not 0 <= r < cfg.registers:
                raise ModelError(f"the model binds r{r}, which the machine lacks")
        m = m.copy()
    # a next use outside the fragment has no statement here to read it
    by_point = {a.point: a for a in walk_statements(body)}
    calls = tuple([a for a in by_point.values() if type(a.stmt) is Call])
    alloc = _Allocator(cfg, policy)
    return alloc.body("<fragment>", body, by_point, calls, m)


@gc_paused
def alloc_program(
    ap: AnnotatedProgram,
    cfg: MachineConfig,
    policy: str = "furthest",
    trace: list[TraceEntry] | None = None,
) -> TargetProgram:
    """Allocate every procedure, callees first, and the entry body last.

    Procedures run in the annotation's callees-first `order` and start
    from the calling convention's initial model of their read parameters.
    Once a procedure's code is done, its clobber set (`_clobber_set`)
    tells each later caller which registers a call to it may change; a
    call to a procedure not yet allocated, one that reaches back to the
    caller along a cycle of calls, may change every caller-saved register.
    The entry body starts from an empty model, without RET, so it returns
    by halting and passes a halt continuation to tail calls.  The code is
    emitted in source order, entry body first, and `trace` receives the
    statements in the order they were allocated.  Pauses the cyclic
    garbage collector while it runs (`_gc.gc_paused`).
    """
    alloc = _Allocator(cfg, policy, trace)
    procs = {proc.name: proc for proc in ap.procs}
    code: dict[str, list[Inst]] = {}
    owed = tuple([(f"%c{r}", r) for r in cfg.callee_saved])
    for name in ap.order:
        proc = procs[name]
        m0 = initial_model(proc.read_params, cfg)
        # a procedure called before it was annotated reads every parameter;
        # those its body never references die on arrival
        m0.drop(set(proc.read_params).difference(proc.entry_live))
        insts, _ = alloc.body(name, proc.body, proc.by_point, proc.calls, m0, owed)
        code[name] = insts
        alloc.clobbers[name] = alloc._clobber_set(insts, proc)

    # the entry body starts from an empty model, built without the check
    m = Model(_state=({}, {}, {}, {}))
    entry_insts, _ = alloc.body("<entry>", ap.entry, ap.entry_by_point, ap.entry_calls, m)
    if alloc.need_halt:
        entry_insts.append(LabelDef(HALT_LABEL))
        entry_insts.append(Halt())
    return TargetProgram(entry_insts, [(name, code[name]) for name in procs], alloc.clobbers)


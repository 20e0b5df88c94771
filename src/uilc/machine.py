"""Executable semantics: target simulator, reference interpreter, checkers.

The simulator runs target instructions over registers, a frame-pointer
relative stack, and a flat word heap, counting register-memory traffic
as it goes.  The reference interpreter gives UIL programs their meaning
directly, environment style.  Agreement between the two on the same
observation (return value plus ordered heap writes) is the correctness
criterion for an allocation; an exhaustive eviction-choice search over
small straight-line programs provides a lower bound that the default
replacement policy is expected to meet.

Both executors decode once, then dispatch on small integers.  Faults
that an instruction's text decides (register out of range, negative
slot, unknown label, operator or relation) become an entry that raises
the first of them only when it runs; heap range, indirect-jump label
values, the frame pointer, running off the end and fuel are checked as
the simulator runs, and unbound variables, unknown procedures, arity, heap
range and fuel as the interpreter runs.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .analysis import (
    AnnotatedProgram,
    AnnotatedStatement,
    stmt_defs,
    stmt_refs,
    walk_statements,
)
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
from .model import MachineConfig, Reg
from .uil import Assign, BinExpr, Call, If, MemRead, MemWrite, Program, ReturnValue

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

DEFAULT_HEAP_WORDS = 64


def wrap64(v: int) -> int:
    v &= _WORD_MASK
    return v - (1 << 64) if v & _SIGN_BIT else v


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_RELATIONS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt
}


class MachineFault(Exception):
    pass


class OutOfFuel(Exception):
    pass


@dataclass(frozen=True)
class Observation:
    value: int
    writes: tuple[tuple[int, int], ...]


@dataclass
class TrafficStats:
    static_loads: int = 0
    static_stores: int = 0
    static_moves: int = 0
    dynamic_loads: int = 0
    dynamic_stores: int = 0
    dynamic_moves: int = 0
    instructions: int = 0
    steps: int = 0
    call_rounds: int = 0  # completed non-tail call frame round-trips

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def default_heap(size: int = DEFAULT_HEAP_WORDS) -> list[int]:
    return [0] * size


def heap_from_seed(seed: int, size: int = DEFAULT_HEAP_WORDS) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(-(1 << 31), 1 << 31) for _ in range(size)]


# ---------------------------------------------------------------------------
# Target machine

# Decoded-instruction opcodes, numbered so that `op <= _STORE` past _JUMP
# means a frame-slot access.  _MLOAD, _MSTORE and _HEAPFAULT keep a heap
# address, as two source operands, at d[1:5]; _HEAPFAULT is an access whose
# other register is out of range, raised once the address has checked out.
(_JUMP, _LOAD, _STORE, _BINOP, _CJUMP, _MOVE, _LOADIMM, _IJUMP, _ADVANCE, _RELEASE,
 _HALT, _FAULT, _MLOAD, _MSTORE, _HEAPFAULT) = range(15)


def _src(s) -> tuple[int, bool]:
    return (s.i, True) if type(s) is Reg else (s, False)


def _fault(ok: range, *checks) -> tuple:
    """Fault entry for the first failing check in evaluation order: a Reg
    outside `ok` or a message string.  Anything else passes."""
    for c in checks:
        if type(c) is str:
            return (_FAULT, c)
        if type(c) is Reg and c.i not in ok:
            return (_FAULT, f"register r{c.i} out of range")
    raise AssertionError("no failing check")


def _slot_fault(slot: int) -> str | None:
    return f"negative frame slot fv{slot}" if slot < 0 else None


def _heap_access(i: MemLoad | MemStore, ok: range) -> tuple:
    (b, bf), (x, xf) = _src(i.base), _src(i.index)
    if (bf and b not in ok) or (xf and x not in ok):
        return _fault(ok, i.base, i.index)
    v, vf = (i.dst, True) if type(i) is MemLoad else _src(i.src)
    if vf and v not in ok:
        return (_HEAPFAULT, b, bf, x, xf, f"register r{v} out of range")
    return (_MLOAD, b, bf, x, xf, v) if type(i) is MemLoad else (_MSTORE, b, bf, x, xf, v, vf)


class _Machine:
    def __init__(self, insts: list[Inst], cfg: MachineConfig, heap: list[int]):
        self.cfg = cfg
        self.regs = [0] * cfg.registers
        self.stack: list[int] = []
        self.heap = heap
        self.label_pcs: list[int] = []  # by label ordinal
        self.ordinal: dict[str, int] = {}
        ok = range(cfg.registers)
        code: list[tuple | None] = []
        later: list[int] = []  # label users, decoded once every label is known
        loads = stores = moves = 0
        # one entry per instruction; see _fault for those whose text makes them fault
        for pc, i in enumerate(insts):
            kind = type(i)
            if kind is BinOpInst:
                (a, af), (b, bf) = _src(i.a), _src(i.b)
                f = _BINOPS.get(i.op)
                code.append((_BINOP, f, i.dst, a, af, b, bf)
                            if (not af or a in ok) and (not bf or b in ok) and f and i.dst in ok
                            else _fault(ok, i.a, i.b, f or f"unknown operator {i.op!r}", Reg(i.dst)))
            elif kind is LoadImm:
                code.append((_LOADIMM, i.dst, i.imm) if i.dst in ok else _fault(ok, Reg(i.dst)))
            elif kind is Load:
                loads += 1
                code.append((_LOAD, i.dst, i.slot) if i.slot >= 0 and i.dst in ok
                            else _fault(ok, _slot_fault(i.slot), Reg(i.dst)))
            elif kind is Store:
                stores += 1
                code.append((_STORE, i.src, i.slot) if i.slot >= 0 and i.src in ok
                            else _fault(ok, Reg(i.src), _slot_fault(i.slot)))
            elif kind is Move:
                moves += 1
                code.append((_MOVE, i.dst, i.src) if i.src in ok and i.dst in ok
                            else _fault(ok, Reg(i.src), Reg(i.dst)))
            elif kind is MemLoad or kind is MemStore:
                code.append(_heap_access(i, ok))
            elif kind is FrameAdjust:
                code.append((_ADVANCE if i.delta > 0 else _RELEASE, i.delta))
            elif kind is LabelDef:
                if i.label in self.ordinal:
                    raise MachineFault(f"duplicate label {i.label}")
                self.ordinal[i.label] = len(self.label_pcs)
                self.label_pcs.append(pc)
                code.append((_JUMP, pc + 1))
            elif kind is Halt:
                code.append((_HALT,))
            elif kind is Jump or kind is CondJump or kind is LoadLabel:
                later.append(pc)
                code.append(None)
            else:
                code.append((_FAULT, f"unknown instruction {i!r}"))
        self.stats = TrafficStats(
            static_loads=loads, static_stores=stores, static_moves=moves, instructions=len(insts)
        )
        self.end = len(code)  # entries from here on raise on arrival
        code.append((_FAULT, "execution ran off the end of the program"))
        for pc in later:
            code[pc] = self._decode_label_user(insts[pc], ok, code)
        self.code = code

    def _decode_label_user(self, i: Jump | CondJump | LoadLabel, ok: range, code: list) -> tuple:
        """The entry of an instruction that names a label, once every label is known."""
        if type(i) is LoadLabel:
            if i.label not in self.ordinal:
                return (_FAULT, f"unknown label {i.label}")
            return (_LOADIMM, i.dst, self.ordinal[i.label]) if i.dst in ok else _fault(ok, Reg(i.dst))
        if type(i) is Jump and type(i.target) is Reg:
            return (_IJUMP, i.target.i) if i.target.i in ok else _fault(ok, i.target)
        if type(i) is Jump:
            return (_JUMP, self._target(i.target, code))
        (a, af), (b, bf) = _src(i.a), _src(i.b)
        f = _RELATIONS.get(i.rel)
        if (af and a not in ok) or (bf and b not in ok) or not f:
            return _fault(ok, i.a, i.b, f or f"unknown relation {i.rel!r}")
        return (_CJUMP, f, a, af, b, bf, self._target(i.target, code))

    def _target(self, label: str, code: list) -> int:
        """The pc of a label; an unknown label gets an entry past the end
        that faults on arrival, so a branch faults only when taken."""
        if label in self.ordinal:
            return self.label_pcs[self.ordinal[label]]
        code.append((_FAULT, f"jump to unknown label {label}"))
        return len(code) - 1

    def run(self, fuel: int) -> Observation:
        code, end, label_pcs = self.code, self.end, self.label_pcs
        regs, stack, heap = self.regs, self.stack, self.heap
        n_labels, heap_words = len(label_pcs), len(heap)
        writes: list[tuple[int, int]] = []
        checkpoints: list[int] = []  # fp before each advance not yet released
        pc = fp = loads = stores = moves = rounds = 0
        budget = fuel
        try:
            while True:
                if fuel <= 0:
                    if pc >= end:  # running off the end is checked before fuel
                        raise MachineFault(code[pc][1])
                    raise OutOfFuel("instruction budget exhausted")
                fuel -= 1
                d = code[pc]
                pc += 1
                op = d[0]
                if op == _JUMP:  # labels are jumps to the next pc
                    pc = d[1]
                elif op <= _STORE:
                    k = fp + d[2]
                    if k >= len(stack):
                        stack.extend([0] * (k + 1 - len(stack)))
                    if op == _LOAD:
                        regs[d[1]] = stack[k]
                        loads += 1
                    else:
                        stack[k] = regs[d[1]]
                        stores += 1
                elif op == _BINOP:
                    _, f, dst, a, af, b, bf = d
                    v = f(regs[a] if af else a, regs[b] if bf else b)
                    regs[dst] = v if -_SIGN_BIT <= v < _SIGN_BIT else wrap64(v)
                elif op == _CJUMP:
                    _, f, a, af, b, bf, target = d
                    if f(regs[a] if af else a, regs[b] if bf else b):
                        pc = target
                elif op == _MOVE:
                    regs[d[1]] = regs[d[2]]
                    moves += 1
                elif op == _LOADIMM:
                    regs[d[1]] = d[2]
                elif op == _IJUMP:
                    k = regs[d[1]]
                    if not 0 <= k < n_labels:
                        raise MachineFault(f"indirect jump to bad label value {k}")
                    pc = label_pcs[k]
                elif op == _ADVANCE:
                    checkpoints.append(fp)
                    fp += d[1]
                elif op == _RELEASE:
                    fp += d[1]
                    if fp < 0:
                        raise MachineFault("frame pointer went negative")
                    if not checkpoints:
                        raise MachineFault("frame release without matching advance")
                    expected = checkpoints.pop()
                    if fp != expected:
                        raise MachineFault(f"unbalanced frame adjustment: fp {fp} != {expected}")
                    rounds += 1
                elif op == _HALT:
                    return Observation(regs[self.cfg.ret_val_reg], tuple(writes))
                elif op == _FAULT:
                    if pc > end:
                        fuel += 1  # arriving past the end is not a step
                    raise MachineFault(d[1])
                else:
                    _, b, bf, x, xf, v = d[:6]
                    b = regs[b] if bf else b
                    x = regs[x] if xf else x
                    if not 0 <= b + x < heap_words:
                        raise MachineFault(f"heap access out of range: {b}+{x}")
                    if op == _MLOAD:
                        regs[v] = heap[b + x]
                    elif op == _MSTORE:
                        v = regs[v] if d[6] else v
                        heap[b + x] = v
                        writes.append((b + x, v))
                    else:
                        raise MachineFault(v)
        finally:
            s = self.stats
            s.steps += budget - fuel
            s.dynamic_loads += loads
            s.dynamic_stores += stores
            s.dynamic_moves += moves
            s.call_rounds += rounds


def run_target(
    prog: TargetProgram | list[Inst],
    cfg: MachineConfig,
    heap: list[int] | None = None,
    fuel: int = 10**6,
) -> tuple[Observation, TrafficStats]:
    """Execute until halt; the observation reads the return-value register."""
    insts = prog.flatten() if isinstance(prog, TargetProgram) else list(prog)
    machine = _Machine(insts, cfg, heap if heap is not None else default_heap())
    obs = machine.run(fuel)
    return obs, machine.stats


def run_insts(
    insts: list[Inst],
    cfg: MachineConfig,
    regs: list[int] | None = None,
    stack: list[int] | None = None,
    heap: list[int] | None = None,
    fuel: int = 10**5,
) -> _Machine:
    """Run a bare instruction list from a prepared state (test harness)."""
    machine = _Machine(list(insts) + [Halt()], cfg, heap if heap is not None else default_heap())
    if regs is not None:
        machine.regs = list(regs) + [0] * (cfg.registers - len(regs))
    if stack is not None:
        machine.stack = list(stack)
    machine.run(fuel)
    return machine


# ---------------------------------------------------------------------------
# Reference interpreter

# Decoded-statement opcodes.  Operands decode to (name or value, is_variable);
# both heap statements keep their address at s[1:5].  A branch falls into its
# then-block, which ends in a _S_GOTO past the else-block.
_S_BIN, _S_SET, _S_IF, _S_CALL, _S_RETURN, _S_MREAD, _S_MWRITE, _S_FAULT, _S_GOTO = range(9)


def _unknown(kind: str, name: str):
    def fault(a: int, b: int) -> bool:
        raise MachineFault(f"unknown {kind} {name!r}")

    return fault


def _decode_body(body, defs: dict, tail: bool, out: list) -> list:
    """Append the statement tuples of `body` to `out`; `tail` holds when
    nothing in the frame runs after the body, so its last call is a tail call."""
    for k, s in enumerate(body):
        kind = type(s)
        last = tail and k == len(body) - 1
        if kind is Assign:
            rhs = s.rhs
            if type(rhs) is BinExpr:
                a, b = rhs.a, rhs.b
                f = _BINOPS.get(rhs.op) or _unknown("operator", rhs.op)
                out.append((_S_BIN, s.dst, f, a, isinstance(a, str), b, isinstance(b, str)))
            elif type(rhs) is MemRead:
                a, b = rhs.base, rhs.index
                out.append((_S_MREAD, a, isinstance(a, str), b, isinstance(b, str), s.dst))
            else:
                out.append((_S_SET, s.dst, rhs, isinstance(rhs, str)))
        elif kind is ReturnValue:
            out.append((_S_RETURN, s.value, isinstance(s.value, str)))
        elif kind is If:
            a, b = s.test.a, s.test.b
            f = _RELATIONS.get(s.test.rel) or _unknown("relation", s.test.rel)
            branch = len(out)
            out.append(None)
            _decode_body(s.then_body, defs, last, out)
            goto = len(out)
            out.append(None)
            _decode_body(s.else_body, defs, last, out)
            out[branch] = (_S_IF, f, a, isinstance(a, str), b, isinstance(b, str), goto + 1)
            out[goto] = (_S_GOTO, len(out))
        elif kind is Call:
            d = defs.get(s.callee)
            if d is None:
                out.append((_S_FAULT, f"call to unknown procedure '{s.callee}'"))
            elif len(d.params) != len(s.args):
                out.append((_S_FAULT, f"arity mismatch calling '{s.callee}'"))
            else:
                args = tuple((p_, a, isinstance(a, str)) for p_, a in zip(d.params, s.args))
                out.append((_S_CALL, s.callee, args, s.dst, last and s.dst is None))
        elif kind is MemWrite:
            a, b, v = s.base, s.index, s.src
            out.append((_S_MWRITE, a, isinstance(a, str), b, isinstance(b, str), v, isinstance(v, str)))
        else:
            out.append((_S_FAULT, f"unknown statement {s!r}"))
    return out


def run_uil(p: Program, heap: list[int] | None = None, fuel: int = 10**6) -> Observation:
    """Environment-based interpretation of a validated program."""
    heap = heap if heap is not None else default_heap()
    heap_words = len(heap)
    defs = {d.name: d for d in p.definitions}
    bodies = {name: _decode_body(d.body, defs, True, []) for name, d in defs.items()}
    writes: list[tuple[int, int]] = []
    env: dict[str, int] = {}
    code, i = _decode_body(p.body, defs, True, []), 0
    frames: list[tuple] = []  # suspended callers: (env, code, i, result variable)
    try:
        while True:
            s = code[i]
            i += 1
            op = s[0]
            if op == _S_GOTO:  # leaves a then-block; not a statement
                i = s[1]
                continue
            if fuel <= 0:
                raise OutOfFuel("statement budget exhausted")
            fuel -= 1
            if op == _S_BIN:
                _, dst, f, a, av, b, bv = s
                v = f(env[a] if av else a, env[b] if bv else b)
                env[dst] = v if -_SIGN_BIT <= v < _SIGN_BIT else wrap64(v)
            elif op == _S_SET:
                env[s[1]] = env[s[2]] if s[3] else s[2]
            elif op == _S_IF:
                _, f, a, av, b, bv, else_at = s
                if not f(env[a] if av else a, env[b] if bv else b):
                    i = else_at
            elif op == _S_CALL:
                _, callee, args, dst, tail = s
                callee_env = {}
                for name, a, av in args:
                    callee_env[name] = env[a] if av else a
                if not tail:
                    frames.append((env, code, i, dst))
                env, code, i = callee_env, bodies[callee], 0
            elif op == _S_RETURN:
                v = env[s[1]] if s[2] else s[1]
                if not frames:
                    return Observation(v, tuple(writes))
                env, code, i, dst = frames.pop()
                if dst is not None:
                    env[dst] = v
            elif op == _S_MREAD or op == _S_MWRITE:
                _, b, bv, x, xv = s[:5]
                b = env[b] if bv else b
                x = env[x] if xv else x
                if not 0 <= b + x < heap_words:
                    raise MachineFault(f"heap access out of range: {b}+{x}")
                if op == _S_MREAD:
                    env[s[5]] = heap[b + x]
                else:
                    v = env[s[5]] if s[6] else s[5]
                    heap[b + x] = v
                    writes.append((b + x, v))
            else:
                raise MachineFault(s[1])
    except KeyError as e:
        raise MachineFault(f"unbound variable '{e.args[0]}'") from None
    except IndexError:  # only code[i] can run out: past a body's last statement
        raise MachineFault("body ended without a return or tail call") from None


# ---------------------------------------------------------------------------
# Differential equivalence


@dataclass
class EquivReport:
    ok: bool
    checked: int = 0
    detail: str = ""
    source_obs: Observation | None = None
    target_obs: Observation | None = None

    def __bool__(self) -> bool:
        return self.ok


def equivalent(
    p: Program,
    tp: TargetProgram,
    cfg: MachineConfig,
    heaps: list[list[int]] | None = None,
    fuel: int = 10**6,
) -> EquivReport:
    """Check that source and allocated program observe the same behavior.

    Runs both on each heap; reports the first diverging observation with
    both sides attached.
    """
    if heaps is None:
        heaps = [default_heap()]
    checked = 0
    for i, heap in enumerate(heaps):
        source = run_uil(p, list(heap), fuel)
        target, _ = run_target(tp, cfg, list(heap), fuel)
        checked += 1
        if source != target:
            return EquivReport(
                False,
                checked,
                f"divergence on heap #{i}: source {source.value} / {len(source.writes)} writes, "
                f"target {target.value} / {len(target.writes)} writes",
                source,
                target,
            )
    return EquivReport(True, checked)


# ---------------------------------------------------------------------------
# Exhaustive eviction-choice lower bound (straight-line programs)

ORACLE_MAX_STMTS = 10
ORACLE_MAX_VARS = 6
ORACLE_MAX_REGS = 3


def belady_oracle(body, R: int) -> int:
    """Minimum achievable dynamic load count over all eviction choices.

    Searches every victim decision at every pressure point of a single
    straight-line body, counting one load per register fill from the
    stack.  Guarded to small instances; raises ValueError beyond them.
    """
    if isinstance(body, AnnotatedProgram):
        if body.procs:
            raise ValueError("oracle handles single straight-line bodies only")
        body = body.entry
    steps: list[tuple[list[str], frozenset[str], str | None]] = []
    variables: set[str] = set()
    for a in body:
        if isinstance(a.stmt, (If, Call)):
            raise ValueError("oracle handles straight-line code only")
        reads = list(dict.fromkeys(stmt_refs(a.stmt)))
        defs = stmt_defs(a.stmt)
        variables.update(reads)
        variables.update(defs)
        steps.append((reads, a.ends, defs[0] if defs else None))
    if len(steps) > ORACLE_MAX_STMTS:
        raise ValueError(f"oracle bound exceeded: {len(steps)} statements")
    if len(variables) > ORACLE_MAX_VARS:
        raise ValueError(f"oracle bound exceeded: {len(variables)} variables")
    if R > ORACLE_MAX_REGS:
        raise ValueError(f"oracle bound exceeded: R={R}")

    memo: dict[tuple[int, frozenset[str]], int] = {}

    def per_stmt(i: int, resident: frozenset[str]) -> int:
        if i == len(steps):
            return 0
        key = (i, resident)
        if key in memo:
            return memo[key]
        reads, ends, dst = steps[i]
        if len(set(reads)) > R:
            raise ValueError(f"statement needs {len(set(reads))} registers, R={R}")

        def fill(j: int, res: frozenset[str]) -> int:
            if j == len(reads):
                return finish(res)
            v = reads[j]
            if v in res:
                return fill(j + 1, res)
            if len(res) < R:
                return 1 + fill(j + 1, res | {v})
            best = None
            for victim in sorted(res - set(reads)):
                cost = 1 + fill(j + 1, (res - {victim}) | {v})
                if best is None or cost < best:
                    best = cost
            if best is None:
                raise ValueError("operands alone exceed the register count")
            return best

        def finish(res: frozenset[str]) -> int:
            res = res - (ends - ({dst} if dst else set()))
            if dst is None:
                return per_stmt(i + 1, res)
            if dst in res:
                after = res
            elif len(res) < R:
                after = res | {dst}
            else:
                best = None
                for victim in sorted(res):
                    cost = per_stmt(i + 1, ((res - {victim}) | {dst}) - ({dst} & ends))
                    if best is None or cost < best:
                        best = cost
                return best
            if dst in ends:
                after = after - {dst}
            return per_stmt(i + 1, after)

        result = fill(0, resident)
        memo[key] = result
        return result

    return per_stmt(0, frozenset())


# ---------------------------------------------------------------------------
# Static pressure profile (which programs must allocate spill-free)


def spill_free_shape(ap: AnnotatedProgram, cfg: MachineConfig) -> bool:
    """True when no statement can force register-memory traffic.

    Requires peak liveness (plus the return address inside procedures)
    within the register count, all parameters and arguments within the
    argument registers, and no values live across a non-tail call: every
    call-live, the caller's return address included, must be saved.
    """
    proc_names = {d.name for d in ap.program.definitions}
    for d in ap.program.definitions:
        if len(d.params) > len(cfg.arg_regs):
            return False

    def body_ok(body: tuple[AnnotatedStatement, ...], in_proc: bool) -> bool:
        budget = cfg.registers - (1 if in_proc else 0)
        for a in walk_statements(body):
            live = (set(a.live_after) | set(stmt_refs(a.stmt)) | set(stmt_defs(a.stmt)))
            live -= proc_names
            if len(live) > budget:
                return False
            if isinstance(a.stmt, Call):
                if len(a.stmt.args) > len(cfg.arg_regs):
                    return False
        return _calls_ok(body, in_proc, tail=True)

    def _calls_ok(body, in_proc: bool, tail: bool) -> bool:
        for i, a in enumerate(body):
            last = i == len(body) - 1
            if isinstance(a.stmt, If):
                if not _calls_ok(a.then_body, in_proc, tail and last):
                    return False
                if not _calls_ok(a.else_body, in_proc, tail and last):
                    return False
            elif isinstance(a.stmt, Call):
                is_tail_call = tail and last and a.stmt.dst is None
                if is_tail_call:
                    continue
                if in_proc:
                    return False  # the return address is live across the call
                across = (set(a.live_after) - set(stmt_defs(a.stmt))) - proc_names
                if across:
                    return False
        return True

    if not body_ok(ap.entry, in_proc=False):
        return False
    for proc in ap.procs:
        if not body_ok(proc.body, in_proc=True):
            return False
    return True

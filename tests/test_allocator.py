import functools
import hashlib
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from uilc import allocator
from uilc.allocator import (
    POLICIES,
    AllocError,
    LabelArg,
    PressureError,
    _sequence_moves,
    alloc_fragment,
    alloc_program,
    load,
    pick_victim,
    save,
)
from uilc.analysis import annotate, annotate_statements, walk_statements
from uilc.gen import generate_program
from uilc.isa import (
    BinOpInst,
    CondJump,
    FrameAdjust,
    Halt,
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
    format_insts,
    format_target,
    opcode_name,
    static_traffic,
)
from uilc.machine import equivalent, heap_from_seed, run_insts, run_target, run_uil
from uilc.model import RET, Model, ModelError, Reg, Slot, make_config
from uilc.uil import (
    Assign,
    BinExpr,
    Call,
    Cmp,
    If,
    Program,
    ReturnValue,
    parse,
    statement_line,
    validate,
)

from conftest import CYCLE3_SRC, DIAMOND_SRC, SPLIT_SRC, load_program


# ---------------------------------------------------------------------------
# save


def test_save_skips_variable_already_in_stack():
    m = Model({"x": 1}, {"x": 0})
    m2, insts = save(m, ["x"])
    assert insts == []
    assert m2 == m


def test_save_empty_list():
    m = Model({"x": 1}, {})
    m2, insts = save(m, [])
    assert (m2, insts) == (m, [])


def test_save_two_variables_first_fit_slots():
    m = Model({"x": 1, "y": 2}, {})
    m2, insts = save(m, ["x", "y"])
    assert insts == [Store(0, 1), Store(1, 2)]
    assert m2.regmap == {"x": 1, "y": 2}
    assert m2.stackmap == {"x": 0, "y": 1}
    # simulate: both registers end up in their slots
    machine = run_insts(insts, make_config(4), regs=[0, 11, 22, 0])
    assert machine.stack[0] == 11
    assert machine.stack[1] == 22


def test_save_keeps_register_binding():
    m = Model({"x": 1}, {})
    m2, _ = save(m, ["x"])
    assert m2.reg_of("x") == 1 and m2.slot_of("x") == 0


def test_save_unbound_faults():
    with pytest.raises(ModelError):
        save(Model(), ["q"])


def test_save_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        m = Model()
        names = [f"v{i}" for i in range(rng.randint(1, 5))]
        for i, v in enumerate(names):
            m = m.bind_reg(v, i)
            if rng.random() < 0.4:
                m = m.bind_slot(v, m.free_slot())
        m1, insts1 = save(m, names)
        m2, insts2 = save(m1, names)
        assert insts2 == []
        assert m2 == m1


# ---------------------------------------------------------------------------
# load


def test_load_resident_variable_is_free():
    m = Model({"x": 1}, {})
    m2, insts = load(m, ["x"], frozenset(), {}, "furthest", make_config(2))
    assert insts == []
    assert m2 == m


def test_load_empty_list():
    m = Model({"x": 1}, {})
    assert load(m, [], frozenset(), {}, "furthest", make_config(2)) == (m, [])


def test_load_evicts_furthest_and_reuses_its_register():
    # two registers full; x's next use is later than y's, so x leaves and
    # the incoming variable takes x's register
    cfg = make_config(2)
    m = Model({"x": 0, "y": 1}, {"z": 0})
    uses = {"x": 40, "y": 12, "z": 6}
    m2, insts = load(m, ["z"], frozenset(), uses, "furthest", cfg)
    assert insts == [Store(1, 0), Load(0, 0)]
    assert m2.reg_of("z") == 0 and m2.slot_of("z") == 0
    assert m2.reg_of("x") is None and m2.slot_of("x") == 1
    assert m2.reg_of("y") == 1


def test_load_into_free_register_keeps_slot_binding():
    cfg = make_config(3)
    m = Model({"x": 0}, {"z": 4})
    m2, insts = load(m, ["z"], frozenset(), {}, "furthest", cfg)
    assert insts == [Load(1, 4)]
    assert m2.slot_of("z") == 4 and m2.reg_of("z") == 1


def test_load_list_members_do_not_evict_each_other():
    cfg = make_config(2)
    m = Model({}, {"a": 0, "b": 1})
    m2, insts = load(m, ["a", "b"], frozenset(), {}, "furthest", cfg)
    assert [type(i) for i in insts] == [Load, Load]
    assert m2.reg_of("a") is not None and m2.reg_of("b") is not None


def test_load_unbound_faults():
    with pytest.raises(ModelError, match="cannot load unbound variable 'q'"):
        load(Model(), ["q"], frozenset(), {}, "furthest", make_config(2))


def test_load_pressure_fault():
    cfg = make_config(2)
    m = Model({}, {"a": 0, "b": 1, "c": 2})
    with pytest.raises(PressureError):
        load(m, ["a", "b", "c"], frozenset(), {}, "furthest", cfg)


def test_load_repeated_name_loads_once():
    m = Model({}, {"a": 3})
    m2, insts = load(m, ["a", "a"], ["a"], {}, "furthest", make_config(2))
    assert insts == [Load(0, 3)]
    assert m2.reg_of("a") == 0


def test_load_counts_protected_residents_toward_pressure():
    cfg = make_config(2)
    m = Model({"p": 0}, {"a": 0, "b": 1})
    with pytest.raises(PressureError) as e:
        load(m, ["a", "b"], frozenset({"p"}), {}, "furthest", cfg)
    assert str(e.value) == (
        "3 values must be register-resident at once, but the machine has 2 register(s)"
    )
    # a protected variable that is not resident takes no register
    m = Model({}, {"a": 0, "b": 1, "p": 2})
    m2, insts = load(m, ["a", "b"], frozenset({"p"}), {}, "furthest", cfg)
    assert insts == [Load(0, 0), Load(1, 1)]
    assert m2.reg_of("p") is None


def test_load_pressure_error_comes_before_unbound_name():
    m = Model({}, {"a": 0, "b": 1})
    with pytest.raises(PressureError, match="3 values must be register-resident"):
        load(m, ["a", "b", "q"], frozenset(), {}, "furthest", make_config(2))


def test_raising_load_leaves_its_input_model_unchanged():
    cfg = make_config(3)
    m = Model({"x": 0}, {"a": 0, "x": 1})
    before = _snapshot(m)
    with pytest.raises(ModelError, match="cannot load unbound variable 'q'"):
        load(m, ["a", "q"], frozenset(), {}, "furthest", cfg)
    assert _snapshot(m) == before
    with pytest.raises(PressureError):
        load(m, ["a"], frozenset({"x", "y"}), {}, "furthest", make_config(1))
    assert _snapshot(m) == before


def test_load_at_most_two_instructions_per_variable():
    rng = random.Random(9)
    cfg = make_config(3)
    for _ in range(300):
        m = Model()
        names = [f"v{i}" for i in range(5)]
        t_entries = {}
        for v in names:
            if rng.random() < 0.5:
                r = m.free_register(cfg)
                if r is not None:
                    m = m.bind_reg(v, r)
                    if rng.random() < 0.5:
                        m = m.bind_slot(v, m.free_slot())
                    continue
            m = m.bind_slot(v, m.free_slot())
            t_entries[v] = rng.randint(1, 50)
        to_load = rng.sample(names, rng.randint(1, 3))
        to_load = [v for v in to_load if m.is_bound(v)]
        try:
            m2, insts = load(m, to_load, frozenset(), t_entries, "furthest", cfg)
        except PressureError:
            continue
        loaded = [v for v in dict.fromkeys(to_load)]
        assert len(insts) <= 2 * len(loaded)
        for v in loaded:
            assert m2.reg_of(v) is not None


def test_eviction_never_touches_protected_registers():
    # protected values parked in registers survive any load sequence
    rng = random.Random(11)
    cfg = make_config(3)
    for _ in range(300):
        m = Model({"p": 0, "q": 1}, {"a": 0, "b": 1})
        uses = {"p": rng.randint(1, 9), "q": rng.randint(1, 9)}
        wanted = rng.choice([["a"], ["b"], ["a", "b"]])
        protected = frozenset({"p", "q"})
        try:
            m2, insts = load(m, wanted, protected, uses, "furthest", cfg)
        except PressureError:
            assert len(wanted) + 2 > 3
            continue
        machine = run_insts(insts, cfg, regs=[111, 222, 0], stack=[7, 8])
        assert machine.regs[0] == 111 and machine.regs[1] == 222


# ---------------------------------------------------------------------------
# pick_victim


def test_pick_victim_furthest():
    m = Model({"x": 0, "y": 1}, {})
    uses = {"x": 40, "y": 12}
    assert pick_victim(m, frozenset(), uses, "furthest") == "x"


def test_pick_victim_tie_breaks_to_lowest_register():
    m = Model({"a": 2, "b": 1}, {})
    uses = {"a": 7, "b": 7}
    assert pick_victim(m, frozenset(), uses, "furthest") == "b"


def test_pick_victim_respects_protection():
    m = Model({"x": 0, "y": 1}, {})
    uses = {"x": 99, "y": 1}
    assert pick_victim(m, frozenset({"x"}), uses, "furthest") == "y"


def test_pick_victim_no_candidates_faults():
    m = Model({"x": 0}, {})
    with pytest.raises(PressureError):
        pick_victim(m, frozenset({"x"}), {}, "furthest")


def test_pick_victim_dead_candidate_beats_any_next_use():
    m = Model({"x": 0, "y": 1, "z": 2}, {})
    uses = {"x": 10**9, "z": 5}
    assert pick_victim(m, frozenset(), uses, "furthest") == "y"
    assert pick_victim(m, frozenset({"y"}), uses, "furthest") == "x"


def test_pick_victim_ties_go_to_lowest_register_whatever_the_bind_order():
    m = Model().bind_reg("d", 3).bind_reg("c", 2).bind_reg("b", 1).bind_reg("a", 0)
    assert list(m.reg_owner) == [3, 2, 1, 0]
    assert pick_victim(m, frozenset(), {v: 7 for v in "abcd"}, "furthest") == "a"
    assert pick_victim(m, frozenset("a"), {v: 7 for v in "abcd"}, "furthest") == "b"
    # dead values tie too
    assert pick_victim(m, frozenset(), {"a": 4}, "furthest") == "b"
    assert pick_victim(m, frozenset(), {"a": 4, "b": 9, "c": 9, "d": 2}, "furthest") == "b"


def test_pick_victim_checks_the_policy_before_the_candidates():
    with pytest.raises(ValueError, match="unknown policy 'lru'"):
        pick_victim(Model({"x": 0}, {}), frozenset({"x"}), {}, "lru")


def test_pick_victim_lifo_and_fifo():
    m = Model().bind_reg("a", 0).bind_reg("b", 1).bind_reg("c", 2)
    assert pick_victim(m, frozenset(), {}, "lifo") == "c"
    assert pick_victim(m, frozenset(), {}, "fifo") == "a"


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="unknown policy 'lru'"):
        pick_victim(Model({"x": 0}, {}), frozenset(), {}, "lru")
    ap = annotate(parse("(letrec () (return 1))"))
    with pytest.raises(ValueError, match="unknown policy 'lru'"):
        alloc_program(ap, make_config(2), "lru")


def test_pick_victim_invariant_under_monotone_renumbering():
    m = Model({"x": 0, "y": 1, "z": 2}, {})
    base = {"x": 10, "y": 25, "z": 17}
    t2 = {v: 3 * q + 100 for v, q in base.items()}
    for protected in [frozenset(), frozenset({"y"})]:
        assert pick_victim(m, protected, base, "furthest") == pick_victim(
            m, protected, t2, "furthest"
        )


def test_dead_candidate_is_preferred():
    m = Model({"x": 0, "y": 1}, {})
    uses = {"y": 5}  # x has no next use: infinitely far
    assert pick_victim(m, frozenset(), uses, "furthest") == "x"


# ---------------------------------------------------------------------------
# parallel moves


def _simultaneous(moves, regs, stack, labels=None):
    """Oracle: read every source, then write every destination."""

    def read(src):
        if isinstance(src, Reg):
            return regs[src.i]
        if isinstance(src, Slot):
            return stack[src.i]
        if isinstance(src, LabelArg):
            return labels[src.label]
        return src

    values = [(dst, read(src)) for src, dst in moves]
    new_regs, new_stack = list(regs), list(stack)
    for dst, v in values:
        if isinstance(dst, Reg):
            new_regs[dst.i] = v
        else:
            new_stack[dst.i] = v
    return new_regs, new_stack


def test_shuffle_loop_plus_path_instruction_count():
    cfg = make_config(8)
    moves = [
        (Reg(0), Reg(1)),
        (Reg(1), Reg(2)),
        (Reg(2), Reg(0)),
        (Reg(3), Reg(4)),
        (Reg(4), Reg(5)),
    ]
    insts = _sequence_moves(moves, cfg)
    assert len(insts) == 6  # loop of three: 3+1; path of three: 2
    regs = [10, 11, 12, 13, 14, 15, 0, 0]
    machine = run_insts(insts, cfg, regs=regs)
    want_regs, _ = _simultaneous(moves, regs, [])
    for _, dst in moves:
        assert machine.regs[dst.i] == want_regs[dst.i]


def test_shuffle_identity_emits_nothing():
    assert _sequence_moves([(Reg(1), Reg(1))], make_config(2)) == []


def test_shuffle_rejects_overlapping_destinations():
    with pytest.raises(AllocError, match="overlapping"):
        _sequence_moves([(Reg(0), Reg(2)), (Reg(1), Reg(2))], make_config(4))
    # an identity move pins its location: a second move into it contradicts it
    for moves in ([(Reg(2), Reg(2)), (Reg(1), Reg(2))], [(Slot(0), Slot(1)), (Slot(1), Slot(1))]):
        with pytest.raises(AllocError, match="overlapping"):
            _sequence_moves(moves, make_config(4))


def test_shuffle_swap_needs_temporary():
    cfg = make_config(8)
    insts = _sequence_moves([(Reg(0), Reg(1)), (Reg(1), Reg(0))], cfg)
    assert len(insts) == 3  # n + l = 2 + 1
    machine = run_insts(insts, cfg, regs=[5, 6, 0, 0, 0, 0, 0, 0])
    assert machine.regs[0] == 6 and machine.regs[1] == 5


def test_shuffle_register_starved_swap_borrows_through_stack():
    # every register is pinned: a slot swap must spill one around the legs
    cfg = make_config(2)
    moves = [(Slot(0), Slot(1)), (Slot(1), Slot(0)), (Reg(0), Reg(0)), (Reg(1), Reg(1))]
    insts = _sequence_moves(moves, cfg, busy_slots={0, 1})
    machine = run_insts(insts, cfg, regs=[70, 71], stack=[1, 2])
    assert machine.stack[0] == 2 and machine.stack[1] == 1
    assert machine.regs == [70, 71]  # pinned values restored
    assert _borrows(insts, moves) > 0


def test_shuffle_borrows_once_for_many_slot_legs():
    # both registers pinned, two slot <- slot legs: r0 goes out to a
    # scratch slot once, carries both legs, and comes back once at the end
    cfg = make_config(2)
    moves = [(Slot(0), Slot(2)), (Slot(1), Slot(3)), (Reg(0), Reg(0)), (Reg(1), Reg(1))]
    insts = _sequence_moves(moves, cfg, busy_slots={0, 1})
    assert insts == [
        Store(4, 0),
        Load(0, 0),
        Store(2, 0),
        Load(0, 1),
        Store(3, 0),
        Load(0, 4),
    ]
    assert _borrows(insts, moves) == 1
    machine = run_insts(insts, cfg, regs=[70, 71], stack=[1, 2, 0, 0])
    assert machine.stack[2:4] == [1, 2] and machine.regs == [70, 71]


LABELS = ("La", "Lb")


def _label_values():
    """The values `loadlabel` gives LABELS when they are defined after the code."""
    probe = [LoadLabel(i, lbl) for i, lbl in enumerate(LABELS)]
    probe += [LabelDef(lbl) for lbl in LABELS]
    regs = run_insts(probe, make_config(len(LABELS))).regs
    return {lbl: regs[i] for i, lbl in enumerate(LABELS)}


def _random_moves(rng, locations):
    """Moves to distinct destinations from locations, immediates and labels;
    about a third of the time the destinations also form a loop."""
    rng.shuffle(locations)
    dsts = locations[: rng.randint(1, 6)]
    if len(dsts) > 1 and rng.random() < 0.35:
        srcs = dsts[1:] + dsts[:1]
    else:
        srcs = [rng.choice(locations) for _ in dsts]
    for i in range(len(srcs)):
        if rng.random() < 0.25:
            srcs[i] = rng.choice([rng.randint(-9, 9), LabelArg(rng.choice(LABELS))])
    return list(zip(srcs, dsts))


def _borrows(insts, moves):
    """Count the store/use/reload borrows in a sequencer's output.

    A borrow saves a register's own value (the one it held on entry, or
    its final value once written) to a scratch slot and later loads it
    back into the same register.  Parking a copy of some other location's
    value in a slot is no borrow.
    """
    move_slots = {loc.i for move in moves for loc in move if isinstance(loc, Slot)}

    def token(src):
        return ("entry", src) if isinstance(src, (Reg, Slot)) else ("const", src)

    final = {dst: token(src) for src, dst in moves}
    state = {}  # location -> token of the value it holds now
    saved = {}  # scratch slot -> register whose own value it holds
    count = 0

    def value(loc):
        return state.get(loc, token(loc))

    for inst in insts:
        if isinstance(inst, Store):
            r = Reg(inst.src)
            own = value(r) in (token(r), final.get(r))
            state[Slot(inst.slot)] = value(r)
            saved.pop(inst.slot, None)
            if own and inst.slot not in move_slots:
                saved[inst.slot] = inst.src
        elif isinstance(inst, Load):
            state[Reg(inst.dst)] = value(Slot(inst.slot))
            count += saved.get(inst.slot) == inst.dst
        elif isinstance(inst, Move):
            state[Reg(inst.dst)] = value(Reg(inst.src))
        elif isinstance(inst, LoadImm):
            state[Reg(inst.dst)] = ("const", inst.imm)
        else:
            state[Reg(inst.dst)] = ("const", LabelArg(inst.label))
    return count


@pytest.mark.parametrize("seed", range(60))
def test_shuffle_realizes_simultaneous_assignment(seed):
    rng = random.Random(seed)
    cfg = make_config(8)
    locations = [Reg(i) for i in range(6)] + [Slot(i) for i in range(6)]
    rng.shuffle(locations)
    k = rng.randint(1, 6)
    dsts = locations[:k]
    srcs = [rng.choice(locations + [rng.randint(-9, 9)]) for _ in range(k)]
    moves = list(zip(srcs, dsts))
    insts = _sequence_moves(moves, cfg)
    regs = [100 + i for i in range(8)]
    stack = [200 + i for i in range(6)]
    machine = run_insts(insts, cfg, regs=regs, stack=stack)
    want_regs, want_stack = _simultaneous(moves, regs, stack)
    for dst in dsts:
        if isinstance(dst, Reg):
            assert machine.regs[dst.i] == want_regs[dst.i], (seed, dst)
        else:
            assert machine.stack[dst.i] == want_stack[dst.i], (seed, dst)

    # register starvation: few registers, some pinned, busy slots around
    labels = _label_values()
    for case in range(30):
        cfg = make_config(rng.choice((2, 3, 4)))
        locations = [Reg(i) for i in range(cfg.registers)] + [Slot(i) for i in range(5)]
        moves = _random_moves(rng, locations)
        pinned = {r for r in range(cfg.registers) if rng.random() < 0.4}
        dsts = {dst for _, dst in moves}
        moves += [(Reg(r), Reg(r)) for r in pinned if Reg(r) not in dsts]
        busy = {i for i in range(7) if rng.random() < 0.3}
        insts = _sequence_moves(moves, cfg, busy_slots=busy)
        regs = [1000 + i for i in range(cfg.registers)]
        stack = [2000 + i for i in range(7)]
        code = insts + [LabelDef(lbl) for lbl in LABELS]
        machine = run_insts(code, cfg, regs=regs, stack=stack)
        want_regs, want_stack = _simultaneous(moves, regs, stack, labels)
        where = (seed, case, moves, pinned, busy)
        dsts = {dst for _, dst in moves}
        for r in range(cfg.registers):
            if Reg(r) in dsts or r in pinned:
                assert machine.regs[r] == want_regs[r], where
        for i in range(7):
            if Slot(i) in dsts or i in busy:
                assert machine.stack[i] == want_stack[i], where
        # no borrow while a register is free: unpinned, read by no moving
        # leg and written by none
        sources = {src for src, dst in moves if src != dst}
        if any(r not in pinned and Reg(r) not in sources and Reg(r) not in dsts
               for r in range(cfg.registers)):
            assert _borrows(insts, moves) == 0, where


def test_sequence_handles_label_sources():
    insts = _sequence_moves([(LabelArg("L1"), Reg(0))], make_config(2))
    assert [opcode_name(i) for i in insts] == ["loadlabel"]


def _shuffle_case(rng):
    """A random set of moves at R1-8 (paths, loops, immediates, labels and
    identity legs), registers pinned by identity moves, and busy slots.
    One case in fifty moves two values into one destination."""
    cfg = make_config(rng.randint(1, 8))
    locations = [Reg(i) for i in range(cfg.registers)] + [Slot(i) for i in range(6)]
    moves = _random_moves(rng, locations)
    dsts = {dst for _, dst in moves}
    moves += [
        (Reg(r), Reg(r)) for r in range(cfg.registers) if rng.random() < 0.4 and Reg(r) not in dsts
    ]
    legs = [dst for src, dst in moves if src is not dst]
    if legs and rng.random() < 0.02:
        moves.append((rng.randint(-9, 9), rng.choice(legs)))
    busy = sorted(i for i in range(8) if rng.random() < 0.3)
    return cfg, moves, busy


def _shuffle_outcome(cfg, moves, busy) -> str:
    """The sequencer's code for the moves as text, or its error."""
    try:
        return format_insts(_sequence_moves(moves, cfg, busy_slots=busy))
    except AllocError as e:
        return f"error: {e}"


# sha256 over 10,000 `_shuffle_case`s (seed 0) of each case and its outcome
SHUFFLE_SHA256 = "8ab9fffb48c616816f2fc4d128a20e52e93f05f749550f1c28e79bada612ce24"


def test_shuffle_outcomes_are_pinned():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(10_000):
        cfg, moves, busy = _shuffle_case(rng)
        outcome = _shuffle_outcome(cfg, moves, busy)
        digest.update(f"R{cfg.registers} {moves} {busy}\n{outcome}\n".encode())
    assert digest.hexdigest() == SHUFFLE_SHA256


def test_shuffle_outcome_ignores_move_order():
    # the moves are a set: the join and the call pass them in any order
    rng = random.Random(1)
    for case in range(2000):
        cfg, moves, busy = _shuffle_case(rng)
        want = _shuffle_outcome(cfg, moves, busy)
        for _ in range(3):
            rng.shuffle(moves)
            assert _shuffle_outcome(cfg, moves, busy) == want, (case, moves, busy)


# ---------------------------------------------------------------------------
# compound transformers


def stmt_of(src, index=0):
    """Annotated statement from a parsed single-body program."""
    return annotate_statements(parse(src).body)[index]


def test_assign_move_between_registers():
    # y free in fragment; it stays live after the copy, so x needs a move
    a = stmt_of("(letrec () (set! x y) (mset! 0 0 y) (return x))")
    m = Model({"y": 2}, {})
    insts, m2 = alloc_fragment((a,), make_config(4), m=m)
    assert insts == [Move(0, 2)]
    assert m2.reg_of("x") == 0


def test_assign_immediate():
    a = stmt_of("(letrec () (set! x 5) (return x))")
    insts, m2 = alloc_fragment((a,), make_config(2))
    assert insts == [LoadImm(0, 5)]


def test_assign_binop_with_immediate_operand():
    a = stmt_of("(letrec () (set! z (+ y 1)) (return z))")
    m = Model({"y": 1}, {})
    insts, m2 = alloc_fragment((a,), make_config(4), m=m)
    assert insts == [BinOpInst("+", 0, Reg(1), 1)]


def test_assign_dest_reuses_dying_operand_register():
    # y dies feeding x: no move is needed once x inherits the register
    a = stmt_of("(letrec () (set! x y) (return x))")
    a = replace(a, ends=frozenset({"y"}))
    m = Model({"y": 0}, {})
    insts, m2 = alloc_fragment((a,), make_config(2), m=m)
    assert insts == []
    assert m2.reg_of("x") == 0 and m2.reg_of("y") is None


@pytest.mark.parametrize(
    "before, after",
    [
        (Model({}, {"y": 3}), Model({}, {"x": 3})),
        (Model({"y": 2}, {"y": 3}), Model({"x": 2}, {"x": 3})),
    ],
    ids=["spilled", "multi-homed"],
)
def test_copy_of_dying_source_renames_it(before, after):
    # y dies at the copy: x takes its register and slot, and nothing loads
    a = stmt_of("(letrec () (set! x y) (return x))")
    insts, m2 = alloc_fragment((a,), make_config(4), m=before)
    assert insts == [] and m2 == after


@pytest.mark.parametrize(
    "src, after",
    [
        ("(set! x y) (return y)", Model({"y": 2}, {"y": 3})),
        ("(set! x y) (return 0)", Model()),
    ],
    ids=["source-lives", "source-dies"],
)
def test_copy_to_dead_destination_emits_nothing(src, after):
    a = stmt_of(f"(letrec () {src})")
    insts, m2 = alloc_fragment((a,), make_config(4), m=Model({"y": 2, "x": 1}, {"y": 3}))
    assert insts == [] and m2 == after


def test_self_copy_emits_nothing():
    a = stmt_of("(letrec () (set! x x) (return x))")
    before = Model({"x": 2}, {"x": 1})
    insts, m2 = alloc_fragment((a,), make_config(4), m=before)
    assert insts == [] and m2 == before


@pytest.mark.parametrize("src", ["(set! x y) (return x)", "(set! x y) (return 0)"])
def test_copy_of_unbound_source_faults(src):
    a = stmt_of(f"(letrec () {src})")
    with pytest.raises(ModelError, match="unbound variable 'y'"):
        alloc_fragment((a,), make_config(4), m=Model())


def test_memwrite_loads_all_three_operands():
    p = parse("(letrec () (set! x 1) (set! i 2) (set! v 3) (mset! x i v) (return v))")
    body = annotate_statements(p.body)
    m = Model({}, {"x": 0, "i": 1, "v": 2})
    insts, m2 = alloc_fragment((body[3],), make_config(4), m=m)
    assert [type(i) for i in insts] == [Load, Load, Load, MemStore]


def test_memwrite_three_distinct_variables_fault_at_two_registers():
    p = parse("(letrec () (set! x 1) (set! i 2) (set! v 3) (mset! x i v) (return v))")
    body = annotate_statements(p.body)
    m = Model({}, {"x": 0, "i": 1, "v": 2})
    with pytest.raises(PressureError) as exc:
        alloc_fragment((body[3],), make_config(2), m=m)
    assert "mset!" in str(exc.value)


def test_binop_succeeds_at_two_registers_by_evicting_an_operand():
    # three live values, two registers: the destination displaces one
    p = parse(
        "(letrec () (set! x 1) (set! y 2) (set! z (+ x y)) (mset! 0 0 x)"
        " (mset! 0 1 y) (mset! 0 2 z) (return z))"
    )
    assert validate(p) == []
    ap = annotate(p)
    cfg = make_config(2)
    tp = alloc_program(ap, cfg)
    obs, _ = run_target(tp, cfg)
    assert run_uil(p) == obs


def _then_segment(entry, then_label=".L0", end_label=".L1"):
    """Instructions of the then branch, reconciliation shuffle included."""
    start = next(
        i for i, inst in enumerate(entry) if isinstance(inst, LabelDef) and inst.label == then_label
    )
    stop = next(
        i for i, inst in enumerate(entry) if isinstance(inst, LabelDef) and inst.label == end_label
    )
    return entry[start + 1 : stop]


def test_if_identical_branches_emit_no_shuffle():
    src = (
        "(letrec () (set! x 1)"
        " (if (> x 0) (begin (set! y 1)) (begin (set! y 2)))"
        " (return y))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    # y is born in r1, where (return y) reads it; the branch body is all
    # of the then segment: no shuffle
    assert _then_segment(tp.entry) == [LoadImm(1, 1)]


OPPOSITE_ORDER_SRC = (
    "(letrec () (set! x 1)"
    " (if (> x 0)"
    "   (begin (set! y 1) (set! z 2))"
    "   (begin (set! z 1) (set! y 2)))"
    " (mset! 0 0 y) (mset! 0 1 z) (return y))"
)


# The else side binds b first, into the register that y holds on the then
# side; b is still live when y is assigned, so y's preference cannot be met.
PREFERENCE_BLOCKED_SRC = (
    "(letrec () (set! x 1)"
    " (if (> x 0)"
    "   (begin (set! y 1))"
    "   (begin (set! b 3) (set! y (+ b 1)) (mset! 0 0 b)))"
    " (mset! 0 1 y) (return y))"
)


def test_if_opposite_orders_shuffles_then_branch():
    program, ap = load_program(PREFERENCE_BLOCKED_SRC)
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    # reconciliation code lands at the end of the then branch
    segment = _then_segment(tp.entry)
    assert any(isinstance(i, Move) for i in segment), format_insts(tp.entry)
    obs, _ = run_target(tp, cfg)
    assert obs == run_uil(program)


def test_if_preferences_remove_the_shuffle():
    program, ap = load_program(OPPOSITE_ORDER_SRC)
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    assert _then_segment(tp.entry) == [LoadImm(0, 1), LoadImm(1, 2)]
    obs, _ = run_target(tp, cfg)
    assert obs == run_uil(program)


# At R=4 each of these callees writes every register (RET in r0, `a` in
# r1, `p` and `q` in r2 and r3), so a call to one keeps no caller's value
# in a register; the first returns a*a
SQUARE_CLOBBERING_ALL = (
    "(lambda (a) (set! p (+ a 1)) (set! q (- a 1)) (set! t (* p q))"
    " (set! u (+ t a)) (set! v (- u a)) (set! w (+ v 1)) (return w))"
)
CLOBBERING_ALL = SQUARE_CLOBBERING_ALL.replace("(lambda (a)", "(lambda () (set! a (mref 0 0))")


def test_if_branch_disagreeing_on_slot_stores_in_then_branch():
    # the else branch spills x across a call; the then branch must store
    # x to the same slot so both paths agree at the join.  At R=4 there is
    # no callee-saved register that would keep x across the call, and f
    # writes every other register.
    src = (
        f"(letrec ((f {CLOBBERING_ALL}))"
        " (set! x 1) (set! c 0)"
        " (if (> c 0)"
        "   (begin (set! c 1))"
        "   (begin (set! d (f)) (set! c d)))"
        " (mset! 0 0 x) (return c))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.clobbers["f"] == frozenset(range(4))
    obs, _ = run_target(tp, cfg)
    assert obs == run_uil(program)
    # x is slot-resident on the else path, so the then path stores it
    then_start = next(
        i for i, inst in enumerate(tp.entry) if isinstance(inst, LabelDef) and inst.label == ".L0"
    )
    assert any(isinstance(i, Store) for i in tp.entry[then_start:])


# ---------------------------------------------------------------------------
# use-site targeting: a value is born in the register its next use reads


def test_returned_value_is_computed_into_the_return_register():
    program, ap = load_program(
        "(letrec () (set! x 1) (set! y 2) (set! w (+ x y)) (return w))"
    )
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.entry[2:] == [BinOpInst("+", 1, Reg(0), Reg(1)), Halt()]
    assert not any(isinstance(i, Move) for i in tp.entry)
    assert run_target(tp, cfg)[0].value == 3


def test_call_argument_is_born_in_its_argument_register():
    src = (
        "(letrec ((f (lambda (a b) (set! c (+ a b)) (return c))))"
        " (set! x 5) (set! v (f 1 x)) (return v))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.entry[0] == LoadImm(cfg.arg_regs[1], 5)  # x is the second argument
    assert not any(isinstance(i, Move) for i in tp.flatten())
    assert run_target(tp, cfg)[0] == run_uil(program)


def test_evenodd_kernel_runs_no_moves():
    path = Path(__file__).parents[1] / "perfbench" / "kernels" / "evenodd.uil"
    cfg = make_config(4)
    tp = alloc_program(annotate(parse(path.read_text())), cfg)
    obs, stats = run_target(tp, cfg)
    assert obs.value == 2
    assert stats.dynamic_moves == 0


def test_occupied_target_falls_back_to_lowest_free_register():
    # z holds r1, the register (return w) reads: w takes r2 with no eviction
    program, ap = load_program(
        "(letrec () (set! y 7) (set! z 8) (set! w 3) (mset! y z w) (return w))"
    )
    tp = alloc_program(ap, make_config(4))
    assert tp.entry == [
        LoadImm(0, 7),
        LoadImm(1, 8),
        LoadImm(2, 3),
        MemStore(Reg(0), Reg(1), Reg(2)),
        Move(1, 2),
        Halt(),
    ]
    # a reload follows the same order: r1 when free, else the lowest free
    body = annotate_statements(parse("(letrec () (mset! 0 0 w) (return w))").body)
    for before, want in ((Model({}, {"w": 0}), 1), (Model({"z": 1}, {"w": 0}), 0)):
        insts, _ = alloc_fragment(body, make_config(4), m=before)
        assert insts[:2] == [Load(want, 0), MemStore(0, 0, Reg(want))]
        # a next use outside the fragment names no register
        insts, after = alloc_fragment(body[:1], make_config(4), m=before)
        assert insts[0] == Load(0, 0) and after.reg_of("w") == 0


def test_branch_preference_beats_target():
    # the then branch puts y in r2 (t holds r1); the else branch could
    # give y its target r1 but follows the then branch, so no shuffle
    src = (
        "(letrec () (set! x 1)"
        " (if (> x 0)"
        "   (begin (set! t 4) (set! y (+ t 1)) (mset! x 0 t))"
        "   (begin (set! y 2) (mset! x 0 y)))"
        " (return y))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    then = _then_segment(tp.entry)
    assert then == [LoadImm(1, 4), BinOpInst("+", 2, Reg(1), 1), MemStore(Reg(0), 0, Reg(1))]
    assert LoadImm(2, 2) in tp.entry  # else branch: y in r2, not r1
    assert run_target(tp, cfg)[0] == run_uil(program)


# ---------------------------------------------------------------------------
# a call-bound holder steps aside for a call argument; slots agree at joins


def _fib_frames(n):
    """fib invocations that recurse (n >= 2), each an internal frame."""
    return 0 if n < 2 else 1 + _fib_frames(n - 1) + _fib_frames(n - 2)


@pytest.mark.parametrize("registers", [2, 3, 4, 8])
def test_fib_runs_no_moves_and_three_transfers_per_frame(registers):
    path = Path(__file__).parent / "data" / "fib.uil"
    cfg = make_config(registers)
    tp = alloc_program(annotate(parse(path.read_text())), cfg)
    obs, stats = run_target(tp, cfg)
    assert obs.value == 55
    assert stats.dynamic_moves == 0
    assert stats.dynamic_loads == stats.dynamic_stores == 3 * _fib_frames(10)
    # n steps aside into the slot the call gives it: the frame stays 2 words
    adjusts = {i.delta for i in dict(tp.procs)["fib"] if isinstance(i, FrameAdjust)}
    assert adjusts == {2, -2}


CLAIM_SRC = (
    "(letrec ((f (lambda (a) (return a))))"
    " (set! m (+ n 1)) (set! r (f m))"
    " (set! s (+ r n)) (set! t (+ s y)) (set! u (+ t z)) (return u))"
)


@pytest.mark.parametrize(
    "before, slot, delta",
    [
        # slotless call-lives y (r0) and n (r1): n's rank 1 is slot 1
        (Model({"y": 0, "n": 1}, {"z": 5}), 1, 6),
        # z holds fv0, so the second free slot is fv2
        (Model({"y": 0, "n": 1}, {"z": 0}), 2, 3),
    ],
)
def test_holder_steps_aside_to_the_slot_the_call_gives_it(before, slot, delta):
    body = annotate_statements(parse(CLAIM_SRC).body)
    insts, after = alloc_fragment(body[:2], make_config(4), m=before)
    # n is stored early and m is computed straight into its argument register
    assert insts[:2] == [Store(slot, 1), BinOpInst("+", 1, Reg(1), 1)]
    assert not any(isinstance(i, Move) for i in insts)
    assert [i.delta for i in insts if isinstance(i, FrameAdjust)] == [delta, -delta]
    assert after.stackmap == {"y": slot - 1, "n": slot, "z": before.slot_of("z")}


def test_no_step_aside_for_a_holder_the_call_reads():
    src = CLAIM_SRC.replace("(f m)", "(f m n)").replace("(a)", "(a b)")
    body = annotate_statements(parse(src).body)
    insts, _ = alloc_fragment(body[:2], make_config(4), m=Model({"y": 0, "n": 1}, {"z": 5}))
    assert insts[0] == BinOpInst("+", 2, Reg(1), 1)  # m waits in r2


def test_no_step_aside_for_the_return_address():
    body = annotate_statements(parse(CLAIM_SRC).body)
    before = Model({RET: 1, "n": 2, "y": 3}, {"z": 5})
    insts, _ = alloc_fragment(body[:2], make_config(4), m=before)
    assert insts[0] == BinOpInst("+", 0, Reg(2), 1)  # r1 stays with RET


# n holds r1, m's argument register, across a call inside an `if`; the
# first `if` has a join, the second none.  f writes every register, so no
# register other than r1 would keep n across the call either.
JOINED_CLAIM_SRC = (
    f"(letrec ((f {SQUARE_CLOBBERING_ALL}))"
    " (set! c 0) (set! n 5)"
    " (if (> c 0)"
    "   (begin (set! m (+ n 1)) (set! r (f m)) (mset! 0 0 r))"
    "   (begin (mset! 0 1 n)))"
    " (return n))"
)
TAIL_CLAIM_SRC = (
    f"(letrec ((f {SQUARE_CLOBBERING_ALL}))"
    " (set! c 0) (set! n 5)"
    " (if (> c 0)"
    "   (begin (set! m (+ n 1)) (set! r (f m)) (set! q (+ r n)) (return q))"
    "   (begin (return n))))"
)


@pytest.mark.parametrize("src", [TAIL_CLAIM_SRC, JOINED_CLAIM_SRC], ids=["tail", "joined"])
def test_slotless_holder_steps_aside_in_any_branch(src):
    # n is stored to fv0 and m is computed straight into r1, so no move
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.clobbers["f"] == frozenset(range(4))
    text = format_insts(tp.entry)
    assert "store fv0, r1\n  add r1, r1, 1" in text, text
    assert not any(isinstance(i, Move) for i in tp.entry), text
    assert run_target(tp, cfg)[0] == run_uil(program)


def test_else_branch_saves_into_the_then_branch_slot():
    # the then branch's call saves q to fv0 and y to fv1; the else branch's
    # call saves only y, and takes fv1 too, so the join moves no slot (f
    # writes every register, so neither call keeps y in one)
    src = (
        f"(letrec ((f {CLOBBERING_ALL}))"
        " (set! c 0) (set! y 2)"
        " (if (> c 0)"
        "   (begin (set! q 3) (set! d (f)) (mset! q 0 d))"
        "   (begin (set! d (f)) (mset! 0 0 d)))"
        " (return y))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.clobbers["f"] == frozenset(range(4))
    stores = [i for i in tp.entry if isinstance(i, Store) and i.src == 1]
    assert stores == [Store(1, 1), Store(1, 1)]  # y in fv1 on both paths
    # labels: .L0 then, .L1 and .L2 the calls' returns, .L3 the join
    then = _then_segment(tp.entry, ".L0", ".L3")
    assert isinstance(then[-1], MemStore)  # no join fix-up after the branch
    assert run_target(tp, cfg)[0] == run_uil(program)


def test_tail_call_sets_arguments_and_return_register(chain_call):
    program, ap = chain_call
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    jumps = [i for i in tp.entry if isinstance(i, Jump)]
    assert Jump("f") in jumps
    from uilc.isa import LoadLabel

    assert any(isinstance(i, LoadLabel) and i.dst == cfg.ret_addr_reg for i in tp.entry)
    obs, _ = run_target(tp, cfg)
    assert obs.value == 3


def test_nontail_call_without_call_lives_adjusts_nothing():
    src = "(letrec ((f (lambda () (return 4)))) (set! x (f)) (return x))"
    program, ap = load_program(src)
    tp = alloc_program(ap, make_config(8))
    assert not any(isinstance(i, FrameAdjust) for i in tp.entry)
    assert not any(isinstance(i, Store) for i in tp.entry)


def test_nontail_call_with_two_call_lives_round_trips():
    src = (
        "(letrec ((f (lambda (n) (return (* n n)))))"
        " (set! a 3) (set! b 4)"
        " (set! c (f 5))"
        " (set! d (+ a b))"
        " (return (+ c d)))"
    )
    # desugar the nested return expressions by hand; f squares n through
    # values that take every register at R=4, so a and b must be stored
    src = (
        f"(letrec ((f {SQUARE_CLOBBERING_ALL}))"
        " (set! a 3) (set! b 4)"
        " (set! c (f 5))"
        " (set! s (+ a b))"
        " (set! r (+ c s))"
        " (return r))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.clobbers["f"] == frozenset(range(4))
    stores = [i for i in tp.entry if isinstance(i, Store)]
    assert len(stores) == 2  # a and b saved across the call
    adjusts = [i for i in tp.entry if isinstance(i, FrameAdjust)]
    assert [a.delta for a in adjusts] == [2, -2]
    obs, stats = run_target(tp, cfg)
    assert obs.value == 25 + 7
    assert stats.call_rounds == 1


CALL_SITE_SRC = (
    "(letrec ((f (lambda (a) (return a))))"
    " (set! r (f 5)) (set! s (+ r x)) (set! t (+ s y)) (return t))"
)


@pytest.mark.parametrize(
    "before, stores, delta, homes",
    [
        # y is register-only and takes the lowest free slot; x stays in fv1
        (Model({"y": 2}, {"x": 1}), [Store(0, 2)], 2, {"y": 0, "x": 1}),
        # x keeps fv3 although fv0..fv2 are free: the frame moves past it
        (Model({}, {"x": 3, "y": 0}), [], 4, {"y": 0, "x": 3}),
    ],
)
def test_nontail_call_keeps_slotted_call_lives_in_place(before, stores, delta, homes):
    a = stmt_of(CALL_SITE_SRC)
    insts, after = alloc_fragment((a,), make_config(4), m=before)
    assert not any(isinstance(i, Load) for i in insts)  # no slot-to-slot copy
    assert [i for i in insts if isinstance(i, Store)] == stores
    assert [i.delta for i in insts if isinstance(i, FrameAdjust)] == [delta, -delta]
    assert after.stackmap == homes and after.regmap == {"r": 1}


# ---------------------------------------------------------------------------
# callees first: a call keeps values in registers its callee never writes


def test_value_in_a_register_the_callee_never_writes_crosses_the_call_untouched():
    # f writes only its result register and is entered through r0, so x
    # lives across the call in r2 with no load, store or move
    src = (
        "(letrec ((f (lambda () (return 7))))"
        " (set! x (mref 0 0)) (set! y (f)) (set! z (+ x y)) (return z))"
    )
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    assert tp.clobbers == {"f": frozenset({0, 1})}
    assert tp.entry[0] == MemLoad(2, 0, 0)
    assert not any(isinstance(i, (Load, Store, Move, FrameAdjust)) for i in tp.flatten())
    obs, stats = run_target(tp, cfg)
    assert obs == run_uil(program)
    assert stats.dynamic_loads == stats.dynamic_stores == stats.dynamic_moves == 0


_REGISTER_WRITES = (Move, LoadImm, Load, BinOpInst, MemLoad, LoadLabel)


def _check_clobber_sets(ap, tp, cfg):
    """Each procedure's clobber set covers every register that its code
    and the code of every procedure it reaches write, less the
    callee-saved registers; that of a procedure that reaches a cycle of
    calls (itself or a callee reaching back to itself) is every
    caller-saved register.  The calls are read off the code."""
    code = dict(tp.procs)
    assert tp.clobbers.keys() == code.keys()
    writes, calls = {}, {}
    for name, insts in code.items():
        writes[name] = {i.dst for i in insts if isinstance(i, _REGISTER_WRITES)}
        calls[name] = {i.target for i in insts if isinstance(i, Jump) and i.target in code}
    reach = {}
    for name in code:
        reached, todo = set(), list(calls[name])
        while todo:
            q = todo.pop()
            if q not in reached:
                reached.add(q)
                todo.extend(calls[q])
        reach[name] = reached
    caller_saved = frozenset(range(cfg.registers)).difference(cfg.callee_saved)
    for proc in ap.procs:
        reached = reach[proc.name] | {proc.name}
        if any(q in reach[q] for q in reached):
            assert tp.clobbers[proc.name] == caller_saved, proc.name
        written = set().union(*(writes[q] for q in reached)).difference(cfg.callee_saved)
        assert written <= tp.clobbers[proc.name], (proc.name, written, tp.clobbers[proc.name])


def test_clobber_sets_cover_what_each_procedure_reaches():
    # C5's call graphs, and the register counts it does not sweep checked
    # against the reference interpreter
    for seed in range(200):
        p = generate_program(seed)
        ap = annotate(p)
        heap = heap_from_seed(seed)
        for r in (3, 4, 5, 8, 12):
            cfg = make_config(r)
            for policy in POLICIES:
                tp = alloc_program(ap, cfg, policy)
                _check_clobber_sets(ap, tp, cfg)
                if r in (5, 12):
                    report = equivalent(p, tp, cfg, [heap])
                    assert report.ok, (seed, r, policy, report.detail)


# non-recursive procedures that keep a value across a call to a recursive
# group: w wraps the self-recursive fib, and parity the mutually recursive
# even and odd; the entry keeps values across both
RECURSIVE_CALLEE_SRCS = [
    """
(letrec ((w (lambda (k) (set! j (+ k 3)) (set! f (fib k)) (set! r (+ f j)) (return r)))
         (fib (lambda (n)
           (if (< n 2)
             (begin (return n))
             (begin (set! m (- n 1)) (set! a (fib m)) (set! k (- n 2)) (set! b (fib k))
                    (set! r (+ a b)) (return r))))))
  (set! x (mref 0 0)) (set! y (mref 0 1)) (set! n 9)
  (set! v (w n)) (set! s (+ v y)) (set! t (+ s x)) (mset! 0 2 t) (return t))
""",
    """
(letrec ((parity (lambda (k) (set! j (* k 2)) (set! e (even k)) (set! r (+ e j)) (return r)))
         (even (lambda (n) (if (= n 0) (begin (return 1)) (begin (set! m (- n 1)) (odd m)))))
         (odd (lambda (n) (if (= n 0) (begin (return 0)) (begin (set! m (- n 1)) (even m))))))
  (set! x (mref 0 0)) (set! y (mref 0 1)) (set! n 11)
  (set! v (parity n)) (set! s (+ v y)) (set! t (+ s x)) (mset! 0 2 t) (return t))
""",
]


@pytest.mark.parametrize("src", RECURSIVE_CALLEE_SRCS, ids=["fib", "even-odd"])
def test_a_caller_of_a_recursive_group_inherits_every_caller_saved_register(src):
    program, ap = load_program(src)
    wrapper = ap.procs[0].name
    heaps = [heap_from_seed(s) for s in range(3)]
    for r in (2, 3, 4, 5, 8, 12):
        cfg = make_config(r)
        caller_saved = frozenset(range(r)).difference(cfg.callee_saved)
        for policy in POLICIES:
            tp = alloc_program(ap, cfg, policy)
            _check_clobber_sets(ap, tp, cfg)
            assert tp.clobbers[wrapper] == caller_saved
            report = equivalent(program, tp, cfg, heaps)
            assert report.ok, (r, policy, report.detail)


# ---------------------------------------------------------------------------
# callee-saved registers: a procedure owes each one back to its caller


LEAF_CALL_SRC = (
    "(letrec ((f (lambda (n) (set! m (* n n)) (return m))))"
    " (set! a 3) (set! b 4) (set! c 5)"
    " (set! d (f 6))"
    " (set! s (+ a b)) (set! s (+ s c)) (set! s (+ s d))"
    " (return s))"
)


def test_entry_call_lives_stay_in_callee_saved_registers_across_a_leaf_call():
    program, ap = load_program(LEAF_CALL_SRC)
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    assert not any(isinstance(i, (Store, Load, FrameAdjust)) for i in tp.entry)
    obs, stats = run_target(tp, cfg)
    assert obs == run_uil(program) and obs.value == 3 + 4 + 5 + 36
    assert stats.dynamic_loads == stats.dynamic_stores == 0


def test_call_live_moves_into_a_free_callee_saved_register():
    # a is born in r1, f's argument register, and lives across the call:
    # it moves to a free callee-saved register instead of the stack
    src = (
        "(letrec ((f (lambda (n) (set! m (* n n)) (return m))))"
        " (set! a 3) (set! d (f a)) (set! s (+ a d)) (return s))"
    )
    program, ap = load_program(src)
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    assert tp.entry[:2] == [LoadImm(1, 3), Move(cfg.callee_saved[0], 1)]
    assert not any(isinstance(i, (Store, Load, FrameAdjust)) for i in tp.entry)
    obs, stats = run_target(tp, cfg)
    assert obs == run_uil(program) and obs.value == 12
    assert stats.dynamic_loads == stats.dynamic_stores == 0


@pytest.mark.parametrize("registers", [6, 7])
def test_claim_never_moves_its_holder_into_a_callee_saved_register(registers):
    # here a holder that stepped aside into a callee-saved register would
    # clobber a register that the same statement's dying operand still reads
    p = generate_program(830)
    ap = annotate(p)
    cfg = make_config(registers)
    for policy in POLICIES:
        report = equivalent(p, alloc_program(ap, cfg, policy), cfg, [heap_from_seed(830)])
        assert report.ok, (policy, report.detail)


def test_procedure_that_fits_below_the_callee_saved_registers_never_names_one():
    # f holds at most two values and its return address, which r0-r4 hold
    # at R=8, so it never evicts what it owes: each debt stays in its own
    # register from entry to return, and the code never names one
    program, ap = load_program(LEAF_CALL_SRC)
    cfg = make_config(8)
    trace: list = []
    tp = alloc_program(ap, cfg, trace=trace)
    f_text = format_insts(dict(tp.procs)["f"])
    assert not re.search(r"\br[5-7]\b", f_text), f_text
    models = [m for e in trace if e.scope == "f" for m in (e.pre, e.post)]
    assert models
    for m in models:
        debts = [(v, loc) for v, loc in m.regmap.items() if v.startswith("%c")]
        assert sorted(debts) == [(f"%c{r}", r) for r in (5, 6, 7)], m
        assert not [v for v in m.stackmap if v.startswith("%c")], m
    assert run_target(tp, cfg)[0] == run_uil(program)


# `f` needs seven registers at once, so at R=8 it evicts what it owes;
# the entry keeps three values in the callee-saved registers across it
OWED_SRC = (
    "(letrec ((g (lambda (n) (return n)))"
    "         (f (lambda (a b c)"
    "   (set! d (+ a 1)) (set! e (+ b 2)) (set! k (+ c 3)) (set! h (+ d e))"
    "   (set! a (+ a b)) (set! a (+ a c)) (set! a (+ a d)) (set! a (+ a e))"
    "   (set! a (+ a k)) (set! a (+ a h)) {end})))"
    " (set! x 5) (set! y 6) (set! z 7)"
    " (set! r (f 1 2 3))"
    " (set! s (+ x y)) (set! s (+ s z)) (set! s (+ s r))"
    " (return s))"
)


@pytest.mark.parametrize("end, jump", [("(return a)", Jump(Reg(0))), ("(g a)", Jump("g"))])
def test_procedure_restores_evicted_callee_saved_registers(end, jump):
    program, ap = load_program(OWED_SRC.format(end=end))
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    saved = set(cfg.callee_saved)
    assert not any(isinstance(i, (Store, Load)) for i in tp.entry)
    f_insts = dict(tp.procs)["f"]
    assert f_insts[-1] == jump
    evicted = {i.src for i in f_insts if isinstance(i, Store) and i.src in saved}
    assert evicted, "f must evict an owed register"
    # each one comes back in the shuffle that precedes the jump
    last_op = max(k for k, i in enumerate(f_insts) if isinstance(i, BinOpInst))
    restored = {i.dst for i in f_insts[last_op:] if isinstance(i, Load) and i.dst in saved}
    assert restored == evicted
    assert run_target(tp, cfg)[0] == run_uil(program)
    # without the restores the caller's x, y, z come back clobbered
    mutant = TargetProgram(
        tp.entry,
        [
            (name, [i for i in insts if not (name == "f" and isinstance(i, Load) and i.dst in saved)])
            for name, insts in tp.procs
        ],
    )
    assert run_target(mutant, cfg)[0] != run_uil(program)


@pytest.mark.parametrize("registers", [5, 6, 7, 10, 16])
def test_generated_programs_are_equivalent_with_callee_saved_registers(registers):
    cfg = make_config(registers)
    assert cfg.callee_saved
    for seed in range(100):
        p = generate_program(seed)
        ap = annotate(p)
        for policy in POLICIES:
            report = equivalent(p, alloc_program(ap, cfg, policy), cfg, [heap_from_seed(seed)])
            assert report.ok, (seed, policy, report.detail)


def test_walk_kernel_static_traffic_at_three_registers():
    path = Path(__file__).parents[1] / "perfbench" / "kernels" / "walk.uil"
    cfg = make_config(3)
    tp = alloc_program(annotate(parse(path.read_text())), cfg)
    loads, stores, _ = static_traffic(tp.flatten())
    assert (loads, stores) == (12, 16)


def test_call_result_binds_to_return_value_register():
    src = "(letrec ((f (lambda () (return 4)))) (set! x (f)) (set! y (+ x 1)) (return y))"
    program, ap = load_program(src)
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    obs, _ = run_target(tp, cfg)
    assert obs.value == 5


def test_return_value_already_in_place_single_jump():
    p = parse("(letrec ((f (lambda (a) (return a)))) (f 1))")
    ap = annotate(p)
    cfg = make_config(4)  # a arrives in r1 = return-value register
    tp = alloc_program(ap, cfg)
    f_insts = dict(tp.procs)["f"]
    assert f_insts == [Jump(Reg(0))]


def test_return_of_immediate():
    p = parse("(letrec ((f (lambda () (return 7)))) (f))")
    ap = annotate(p)
    tp = alloc_program(ap, make_config(4))
    f_insts = dict(tp.procs)["f"]
    assert f_insts == [LoadImm(1, 7), Jump(Reg(0))]


def test_return_reloads_evicted_return_address():
    # one usable register beyond the return value: RET gets evicted
    src = (
        "(letrec ((f (lambda (a)"
        "   (set! b (+ a 1)) (set! c (+ a b)) (set! d (+ b c)) (set! e (+ c d))"
        "   (set! r (+ d e)) (return r))))"
        " (f 2))"
    )
    program, ap = load_program(src)
    cfg = make_config(2)
    tp = alloc_program(ap, cfg)
    f_insts = dict(tp.procs)["f"]
    ret_loads = [i for i in f_insts if isinstance(i, Load)]
    assert ret_loads, "the return address must come back from the stack"
    assert isinstance(f_insts[-1], Jump) and isinstance(f_insts[-1].target, Reg)
    obs, _ = run_target(tp, cfg)
    assert obs == run_uil(program)


def test_alloc_program_trivial_entry_is_two_instructions():
    p = parse("(letrec () (return 0))")
    ap = annotate(p)
    tp = alloc_program(ap, make_config(2))
    assert [opcode_name(i) for i in tp.entry] == ["loadimm", "halt"]


def test_split_fragment_matches_golden_shape(split_prog):
    program, _ = split_prog
    body = annotate_statements(program.body[:4])
    insts, _ = alloc_fragment(body, make_config(2))
    assert [opcode_name(i) for i in insts] == [
        "loadimm",
        "loadimm",
        "store",
        "binop",
        "load",
        "binop",
    ]


@pytest.mark.parametrize("r", [3, 5, -1])
def test_fragment_model_with_a_register_the_machine_lacks_raises(r):
    body = annotate_statements(parse("(letrec () (set! y (+ x 1)) (return y))").body)
    with pytest.raises(ModelError, match=f"binds r{r}, which the machine lacks"):
        alloc_fragment(body, make_config(3), "furthest", Model({"x": r}))
    insts, _ = alloc_fragment(body, make_config(3), "furthest", Model({"x": 2}))
    assert format_insts(insts).splitlines()[0].split() == ["add", "r1,", "r2,", "1"]


def test_pressure_fault_names_statement():
    program, ap = load_program(SPLIT_SRC)
    with pytest.raises(PressureError) as exc:
        alloc_program(ap, make_config(1))
    assert "(set!" in str(exc.value)


def test_sequence_context_threading():
    # a mid-body call is non-tail even when a tail call follows
    src = (
        "(letrec ((f (lambda () (return 1))) (g (lambda () (return 2))))"
        " (f)"
        " (g))"
    )
    program, ap = load_program(src)
    tp = alloc_program(ap, make_config(8))
    labels = [i.label for i in tp.entry if isinstance(i, LabelDef)]
    assert any(lbl.startswith(".L") for lbl in labels)  # return label for f
    obs, _ = run_target(tp, make_config(8))
    assert obs.value == 2


def test_deterministic_allocation():
    for seed in (3, 14, 15):
        p = generate_program(seed)
        ap = annotate(p)
        cfg = make_config(4)
        a = alloc_program(ap, cfg, "furthest").flatten()
        b = alloc_program(ap, cfg, "furthest").flatten()
        assert a == b


def test_model_after_each_statement_binds_only_what_lives_on():
    # every statement drops its endings and each branch drops on entry what
    # only the other branch reads, so neither a join nor a return needs to
    # restrict its model: after a statement the model binds only values live
    # after it, RET and the debts, and after a return also the returned value
    # (a tail `if`'s model is its else branch's final one, so it and a tail
    # call are left out)
    for seed in range(200):
        ap = annotate(generate_program(seed))
        for r in (2, 3, 4, 8):
            cfg = make_config(r)
            owed = {RET, *(f"%c{c}" for c in cfg.callee_saved)}
            for policy in POLICIES:
                trace: list = []
                try:
                    alloc_program(ap, cfg, policy, trace=trace)
                except PressureError:
                    continue
                for e in trace:
                    a = e.a
                    if a.dead:
                        continue
                    allowed = owed | a.live_after
                    if type(a.stmt) is ReturnValue:
                        allowed |= {a.stmt.value}
                    elif a.tail:
                        continue
                    bound = e.post.regmap.keys() | e.post.stackmap.keys()
                    assert bound <= allowed, (seed, r, policy, e.scope, a.point, e.post)


# sha256 of the assembly for generator seeds 0..99 at R{2,3,4,8} under every
# policy.  A change that alters the emitted code must update this constant
# and report the traffic change it brings.
GENERATED_ASM_SHA256 = "411fcaaece6b4b4589889be7d4048a8abd8c19e7502f06f4bbaa03687a5f07e6"


def test_generated_assembly_is_byte_identical():
    digest = hashlib.sha256()
    for seed in range(100):
        ap = annotate(generate_program(seed))
        for r in (2, 3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                try:
                    text = format_target(alloc_program(ap, cfg, policy))
                except PressureError as e:
                    text = str(e)
                digest.update(text.encode())
    assert digest.hexdigest() == GENERATED_ASM_SHA256


# sha256 of the assembly (or the PressureError text) of generator seeds
# 0..99, both at the default sizes and with up to six procedures of up to
# 60 statements, at R{5,6,7,10,16} under every policy: the register counts
# with callee-saved registers that `GENERATED_ASM_SHA256` leaves out.  A
# change that alters the emitted code must update this constant and report
# the traffic change it brings.
CALLEE_SAVED_ASM_SHA256 = "bc26259c7d729977d6bbf4188dea18a33014c668cf7c8fbd39a0cbe942ae9fbd"


def test_callee_saved_assembly_is_byte_identical():
    digest = hashlib.sha256()
    programs = [generate_program(seed) for seed in range(100)]
    programs += [generate_program(seed, max_procs=6, max_stmts=60) for seed in range(100)]
    for p in programs:
        ap = annotate(p)
        for r in (5, 6, 7, 10, 16):
            cfg = make_config(r)
            for policy in POLICIES:
                try:
                    text = format_target(alloc_program(ap, cfg, policy))
                except PressureError as e:
                    text = str(e)
                digest.update(text.encode())
    assert digest.hexdigest() == CALLEE_SAVED_ASM_SHA256


# sha256 of the assembly (or the PressureError text) of the hand-written
# kernels in perfbench/kernels at R{2,3,4,5,8,12} under every policy.  They
# reach what the generated corpora above do not: recursive groups (fib calls
# itself, even and odd call each other) and tail `if`s.  A change that alters
# the emitted code must update this constant and report the traffic change
# it brings.
KERNEL_ASM_SHA256 = "2874d8f0fda74c16ac40acf10b70434cd6028dced3bf83d4e385c39ab860fb82"


def test_kernel_assembly_is_byte_identical():
    kernels = Path(__file__).parents[1] / "perfbench" / "kernels"
    digest = hashlib.sha256()
    for name in ("fib", "walk", "evenodd"):
        ap = annotate(parse((kernels / f"{name}.uil").read_text()))
        for r in (2, 3, 4, 5, 8, 12):
            cfg = make_config(r)
            for policy in POLICIES:
                try:
                    text = format_target(alloc_program(ap, cfg, policy))
                except PressureError as e:
                    text = str(e)
                digest.update(text.encode())
    assert digest.hexdigest() == KERNEL_ASM_SHA256


def test_every_model_the_allocator_builds_is_consistent():
    # the allocator builds its models without `Model.check` (the post-call
    # model and `initial_model` hand their maps over as built), so check
    # each one after the fact: the model before and after every live
    # statement of C5 seeds 0..99 and of the kernels, at R{2,3,4,8} under
    # every policy.  An allocation that runs out of registers is checked up
    # to the statement that ran out.
    kernels = Path(__file__).parents[1] / "perfbench" / "kernels"
    programs = [(f"seed {seed}", generate_program(seed)) for seed in range(100)]
    programs += [
        (name, parse((kernels / f"{name}.uil").read_text())) for name in ("fib", "walk", "evenodd")
    ]
    checked = 0
    for label, program in programs:
        ap = annotate(program)
        for r in (2, 3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                trace = []
                try:
                    alloc_program(ap, cfg, policy, trace=trace)
                except PressureError:
                    pass
                for e in trace:
                    for m in (e.pre, e.post):
                        if m is not None:
                            try:
                                m.check()
                            except ModelError as err:
                                pytest.fail(f"{label} R={r} {policy} {e.scope} #{e.a.point}: {err}")
                            checked += 1
    assert checked > 40_000  # 48,648 at the time of writing


# Dynamic loads plus stores, and dynamic moves, of the furthest policy over
# generator seeds 0..99 at R{3,4,8}, each program on heap_from_seed(seed).
# A change that raises either must raise its bound and say why.  Moves
# rose 488 -> 553 when calls began to keep values in registers their
# callees never write: such a value reaches its argument or return
# register by a move where it used to be reloaded straight into it.
DYNAMIC_TRAFFIC_BOUND = 815
DYNAMIC_MOVES_BOUND = 553


@functools.cache
def _generated_dynamic_counts() -> tuple[int, int]:
    """(loads + stores, moves) summed as described above."""
    traffic = moves = 0
    for seed in range(100):
        ap = annotate(generate_program(seed))
        heap = heap_from_seed(seed)
        for r in (3, 4, 8):
            cfg = make_config(r)
            _, stats = run_target(alloc_program(ap, cfg, "furthest"), cfg, list(heap))
            traffic += stats.dynamic_loads + stats.dynamic_stores
            moves += stats.dynamic_moves
    return traffic, moves


def test_dynamic_traffic_does_not_rise():
    assert _generated_dynamic_counts()[0] <= DYNAMIC_TRAFFIC_BOUND


def test_dynamic_moves_do_not_rise():
    assert _generated_dynamic_counts()[1] <= DYNAMIC_MOVES_BOUND


@pytest.mark.parametrize(
    "seed, scope, dead_stmt, holder, traffic",
    [
        # 6 loads plus stores when this dead sum took RET's register (2
        # while the unread a2 was still passed)
        (186, "p0", "(set! v0_4 (+ a2 a2))", RET, 0),
        # 10 when this dead sum evicted the debt %c5 (8 while unread
        # parameters were still passed, 6 while every call stored what
        # lived across it)
        (436, "p1", "(set! v1_5 (+ v1_3 v1_4))", "%c5", 4),
    ],
)
def test_dead_assignment_evicts_neither_ret_nor_a_debt(seed, scope, dead_stmt, holder, traffic):
    ap = annotate(generate_program(seed))
    body = next(proc.body for proc in ap.procs if proc.name == scope)
    assert dead_stmt in [statement_line(a.stmt) for a in walk_statements(body) if a.dead]
    cfg = make_config(8)
    tp = alloc_program(ap, cfg, "furthest")
    _, stats = run_target(tp, cfg, heap_from_seed(seed))
    assert stats.dynamic_loads + stats.dynamic_stores == traffic
    # the register the holder occupies on entry is never stored
    reg = cfg.ret_addr_reg if holder == RET else int(holder[2:])
    assert not [i for i in dict(tp.procs)[scope] if isinstance(i, Store) and i.src == reg]


def _end_in_tail_if(body: tuple) -> tuple:
    """The body with its last statement (a return or tail call) moved into
    the then branch of a final `if`; the else branch returns or tail-calls
    something else, so both branches leave the frame."""
    *head, last = body
    if isinstance(last, ReturnValue):
        v = last.value
        test = Cmp("<", v, 0)
        # a value defined in the branch, read by the branch's return
        other = (Assign("tq", BinExpr("+", v, 1)), ReturnValue("tq"))
        branches = (other, (last,))
    else:
        first = next((a for a in last.args if isinstance(a, str)), 0)
        test = Cmp(">", first, 1)
        other = (ReturnValue(first),)
        branches = ((last,), other)
    return (*head, If(test, *branches))


def test_generated_programs_ending_in_tail_if_are_equivalent():
    tail_ifs = 0
    for seed in range(100):
        p = generate_program(seed)
        p = Program(
            tuple(replace(d, body=_end_in_tail_if(d.body)) for d in p.definitions),
            _end_in_tail_if(p.body),
        )
        assert validate(p) == [], seed
        ap = annotate(p)
        for body in [ap.entry] + [d.body for d in ap.procs]:
            assert isinstance(body[-1].stmt, If) and body[-1].tail
            tail_ifs += 1
        heaps = [heap_from_seed(seed)]
        for r in (2, 3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                try:
                    tp = alloc_program(ap, cfg, policy)
                except PressureError:
                    continue
                report = equivalent(p, tp, cfg, heaps)
                assert report.ok, (seed, r, policy, report.detail)
    assert tail_ifs > 100


# ---------------------------------------------------------------------------
# the working model: updated in place inside the allocator, copied at the
# public boundary and where an `if` forks


def _random_model(rng, cfg, names):
    """C8's model generator: each name takes a free register (70%, then a
    slot as well 40% of the time) or else a slot."""
    m = Model()
    for v in names:
        r = m.free_register(cfg)
        if rng.random() < 0.7 and r is not None:
            m.bind_reg(v, r)
            if rng.random() < 0.4:
                m.bind_slot(v, m.free_slot())
        else:
            m.bind_slot(v, m.free_slot())
    return m


def _snapshot(m):
    # item lists, so the order of regmap (the recency lifo/fifo read) counts
    return (
        list(m.regmap.items()),
        list(m.stackmap.items()),
        list(m.reg_owner.items()),
        list(m.slot_owner.items()),
    )


def test_public_primitives_leave_the_models_they_are_handed_unchanged():
    rng = random.Random(1515)
    cfg = make_config(4)
    resident_loads = evicting_loads = 0
    for _ in range(1_500):
        names = [f"v{i}" for i in range(rng.randint(1, 6))]
        m = _random_model(rng, cfg, names)
        before = _snapshot(m)
        uses = {v: rng.randrange(1, 9) for v in names if rng.random() < 0.8}

        m1, _ = save(m, rng.sample(names, rng.randint(0, len(names))))
        assert _snapshot(m) == before and m1 is not m

        resident = [v for v in names if m.reg_of(v) is not None]
        m2, insts = load(m, resident, frozenset(), uses, "furthest", cfg)
        assert insts == [] and m2 == m and m2 is not m
        resident_loads += 1
        assert _snapshot(m) == before

        stacked = [v for v in names if m.reg_of(v) is None]
        for policy in POLICIES:
            if resident:
                pick_victim(m, frozenset(resident[1:2]), uses, policy)
            if stacked:
                load(m, stacked[:1], frozenset(), uses, policy, cfg)
                evicting_loads += len(m.reg_owner) == cfg.registers
            assert _snapshot(m) == before, policy

        # a fragment with an `if`, so the allocation forks its model
        first, last = names[0], names[-1]
        body = annotate_statements(parse(
            f"(letrec () (set! t (+ {first} {last}))"
            f" (if (< t {first}) (begin (set! {first} (+ {first} 1)))"
            f" (begin (mset! 0 {last} t)))"
            f" (return {first}))"
        ).body)
        _, m3 = alloc_fragment(body, cfg, rng.choice(POLICIES), m=m)
        assert _snapshot(m) == before and m3 is not m
    assert evicting_loads > 100 and resident_loads == 1_500


def test_alloc_program_leaves_its_input_unchanged_and_repeats_itself():
    for seed in range(20):
        ap = annotate(generate_program(seed))
        before = repr(ap)
        for r in (2, 3, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                first = format_target(alloc_program(ap, cfg, policy))
                assert format_target(alloc_program(ap, cfg, policy)) == first
        assert repr(ap) == before, seed


def test_allocation_builds_a_model_only_per_body_fork_and_call(monkeypatch):
    """One working model per body, updated in place: a model is built only
    for a body's entry, an `if`'s fork and the model after a non-tail
    call."""
    built = 0
    init = Model.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", counting_init)
    for seed in range(100):
        ap = annotate(generate_program(seed))
        bodies = [ap.entry] + [proc.body for proc in ap.procs]
        stmts = [a for body in bodies for a in walk_statements(body)]
        ifs = sum(type(a.stmt) is If for a in stmts)
        calls = sum(type(a.stmt) is Call and not a.tail for a in stmts)
        bound = 2 * len(bodies) + ifs + calls
        for r in (3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                built = 0
                alloc_program(ap, cfg, policy)
                assert built <= bound, (seed, r, policy, built, bound)


def test_each_eviction_picks_its_victim_through_pick_victim(monkeypatch):
    """Victim choice goes through the module attribute `pick_victim`, once
    per eviction, so a wrapper put there sees every eviction; the count
    over the generated corpus is pinned."""
    calls = 0
    pick = allocator.pick_victim

    def counting_pick(*args):
        nonlocal calls
        calls += 1
        return pick(*args)

    monkeypatch.setattr(allocator, "pick_victim", counting_pick)
    for seed in range(100):
        ap = annotate(generate_program(seed))
        for r in (3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                alloc_program(ap, cfg, policy)
    assert calls == 223


# ---------------------------------------------------------------------------
# unread parameters: a call passes only what its callee reads

# g never reads w, so f only forwards y, and the entry's b goes nowhere
FORWARD_CHAIN_SRC = (
    "(letrec ((g (lambda (u w) (set! t (+ u 1)) (return t)))"
    "         (f (lambda (x y) (g x y))))"
    " (set! a (mref 0 0)) (set! b (mref 0 1)) (set! r (f a b)) (mset! 0 2 r) (return r))"
)


def test_a_parameter_forwarded_and_never_read_is_passed_nowhere():
    p = parse(FORWARD_CHAIN_SRC)
    assert validate(p) == []
    ap = annotate(p)
    assert [proc.read_params for proc in ap.procs] == [("u",), ("x",)]
    for r in range(2, 9):
        cfg = make_config(r)
        for policy in POLICIES:
            tp = alloc_program(ap, cfg, policy)
            # b is loaded from the heap, then never moved, stored or loaded:
            # no argument travels on the stack, and x and u stay in r1
            insts = tp.flatten()
            assert not [i for i in insts if isinstance(i, (Move, Store, Load, FrameAdjust))], (
                r, policy, format_target(tp),
            )
            report = equivalent(p, tp, cfg, [heap_from_seed(s) for s in range(3)])
            assert report.ok, (r, policy, report.detail)


# k is only forwarded inside a recursive group; h never references z at
# all.  The allocator runs h, then e: h calls e before e is annotated, so
# e reads every parameter and k is passed, but h drops z.
MUTUAL_SRC = (
    "(letrec ((e (lambda (n k) (if (< n 1) (begin (return n)) (begin (set! m (- n 1)) (h m 5 k)))))"
    "         (h (lambda (n z k) (e n k))))"
    " (set! k (mref 0 0)) (set! r (e 4 k)) (mset! 0 1 r) (return r))"
)


def test_a_parameter_a_recursive_group_only_forwards_is_still_passed():
    p = parse(MUTUAL_SRC)
    assert validate(p) == []
    ap = annotate(p)
    assert [proc.read_params for proc in ap.procs] == [("n", "k"), ("n", "k")]
    for r in range(2, 9):
        cfg = make_config(r)
        for policy in POLICIES:
            tp = alloc_program(ap, cfg, policy)
            report = equivalent(p, tp, cfg, [heap_from_seed(s) for s in range(3)])
            assert report.ok, (r, policy, report.detail)
    # at R4, e's tail call leaves m and k in r1 and r2, where h reads n and
    # k: nothing loads the 5 bound for z, and neither procedure moves a value
    code = dict(alloc_program(ap, make_config(4)).procs)
    assert not [i for i in code["e"] + code["h"] if isinstance(i, (LoadImm, Move, Load, Store))]
    # at R2 the entry stores k as e's one stack argument
    entry = alloc_program(ap, make_config(2)).entry
    assert [i for i in entry if isinstance(i, Store)]


@pytest.mark.parametrize(
    "src,order,reads",
    [
        (CYCLE3_SRC, ("c", "b", "a"), [("n", "p", "q"), ("n",), ("n", "w")]),
        (DIAMOND_SRC, ("b", "c", "a"), [("n", "x", "y"), ("n", "p"), ("n", "q")]),
    ],
    ids=["3-cycle", "diamond"],
)
def test_cycle_members_not_called_early_drop_their_unread_parameters(src, order, reads):
    program, ap = load_program(src)
    assert ap.order == order
    assert [proc.read_params for proc in ap.procs] == reads
    heaps = [heap_from_seed(s) for s in range(3)]
    for r in range(2, 13):
        cfg = make_config(r)
        for policy in POLICIES:
            tp = alloc_program(ap, cfg, policy)
            _check_clobber_sets(ap, tp, cfg)
            report = equivalent(program, tp, cfg, heaps)
            assert report.ok, (r, policy, report.detail)


def _drop_unread_parameters(p: Program) -> Program:
    """The source rewrite the allocator's convention stands for: each
    procedure parameter that is not live on entry leaves the parameter
    list and every call's arguments, and becomes a leading `(set! a 0)`
    (dead, so that dead readers still validate).  Repeated until no
    parameter goes; generated call graphs have no cycles."""
    while True:
        ap = annotate(p)
        keep = {
            proc.name: [v in proc.entry_live for v in proc.params] for proc in ap.procs
        }
        if all(all(k) for k in keep.values()):
            return p

        def calls(stmts):
            out = []
            for s in stmts:
                if isinstance(s, If):
                    s = replace(s, then_body=calls(s.then_body), else_body=calls(s.else_body))
                elif isinstance(s, Call):
                    s = replace(s, args=tuple(a for a, k in zip(s.args, keep[s.callee]) if k))
                out.append(s)
            return tuple(out)

        definitions = []
        for d in p.definitions:
            gone = [v for v, k in zip(d.params, keep[d.name]) if not k]
            params = tuple(v for v, k in zip(d.params, keep[d.name]) if k)
            body = tuple(Assign(v, 0) for v in gone) + calls(d.body)
            definitions.append(replace(d, params=params, body=body))
        p = Program(tuple(definitions), calls(p.body))


def test_dynamic_counts_equal_those_of_the_source_rewrite():
    dropped = 0
    for seed in range(100):
        p = generate_program(seed)
        q = _drop_unread_parameters(p)
        assert validate(q) == [], seed
        dropped += sum(len(d.params) - len(e.params) for d, e in zip(p.definitions, q.definitions))
        heap = heap_from_seed(seed)
        assert run_uil(q, list(heap)) == run_uil(p, list(heap)), seed
        ap, aq = annotate(p), annotate(q)
        for r in (3, 4, 8):
            cfg = make_config(r)
            _, stats = run_target(alloc_program(ap, cfg, "furthest"), cfg, list(heap))
            _, want = run_target(alloc_program(aq, cfg, "furthest"), cfg, list(heap))
            assert stats == want, (seed, r)
    assert dropped > 50

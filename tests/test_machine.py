import hashlib
import random
import re
from pathlib import Path

import pytest

from uilc.allocator import POLICIES, alloc_fragment, alloc_program
from uilc.analysis import annotate, annotate_statements
from uilc.gen import generate_program, generate_straight_line
from uilc.isa import (
    AsmError,
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
    format_inst,
    format_insts,
    parse_asm,
    static_traffic,
)
from uilc.machine import (
    MachineFault,
    Observation,
    OutOfFuel,
    belady_oracle,
    default_heap,
    equivalent,
    heap_from_seed,
    run_insts,
    run_target,
    run_uil,
    spill_free_shape,
    wrap64,
)
from uilc.model import Reg, make_config
from uilc.uil import parse, validate

from conftest import SPLIT_OBSERVED_SRC, load_program

DATA = Path(__file__).parent / "data"


def run_fault(insts, registers=2, heap=None):
    with pytest.raises(MachineFault) as excinfo:
        run_target(insts, make_config(registers), heap)
    return str(excinfo.value)


def uil_fault(src, heap=None):
    with pytest.raises(MachineFault) as excinfo:
        run_uil(parse(src), heap)
    return str(excinfo.value)

# The golden two-register allocation: fill both registers, spill one,
# compute, load it back, and sum.
SPLIT_SEQUENCE = [
    LoadImm(0, 1),
    LoadImm(1, 2),
    Store(0, 0),
    BinOpInst("+", 0, Reg(1), 1),
    Load(0, 0),
    BinOpInst("+", 0, Reg(0), Reg(1)),
]


def test_split_sequence_computes_sum_with_one_load_one_store():
    cfg = make_config(2)
    machine = run_insts(SPLIT_SEQUENCE, cfg)
    assert machine.regs[0] == 1 + 2
    assert machine.stats.dynamic_loads == 1
    assert machine.stats.dynamic_stores == 1


def test_empty_program_returns_zero_with_no_traffic():
    cfg = make_config(2)
    obs, stats = run_target([Halt()], cfg)
    assert obs == Observation(0, ())
    assert stats.dynamic_loads == stats.dynamic_stores == stats.dynamic_moves == 0


def test_run_uil_four_statement_example(chain_call):
    program, _ = chain_call
    obs = run_uil(program)
    assert obs.value == 3  # f(0, 3) = 0 + (0 + 1 + 2)
    assert obs.writes == ()


def test_run_uil_return_immediate():
    obs = run_uil(parse("(letrec () (return 7))"))
    assert obs == Observation(7, ())


def test_run_uil_memory_write_trace():
    obs = run_uil(parse("(letrec () (mset! 0 0 5) (return 0))"))
    assert obs.writes == ((0, 5),)


def test_run_uil_heap_out_of_range_faults():
    assert uil_fault("(letrec () (mset! 9999 0 1) (return 0))") == (
        "heap access out of range: 9999+0"
    )
    assert uil_fault("(letrec () (set! x (mref -1 0)) (return x))") == (
        "heap access out of range: -1+0"
    )
    assert uil_fault("(letrec () (mset! 2 0 1) (return 0))", heap=[0, 0]) == (
        "heap access out of range: 2+0"
    )


def test_dead_out_of_range_mref_still_faults():
    # nothing reads x, but a memory read can fault, so it is never dead
    src = "(letrec () (set! y 1) (set! x (mref 9999 y)) (set! x 2) (return 0))"
    program, ap = load_program(src)
    assert [a.dead for a in ap.entry] == [False, False, True, False]
    message = "heap access out of range: 9999+1"
    assert uil_fault(src) == message
    cfg = make_config(2)
    with pytest.raises(MachineFault, match=re.escape(message)):
        run_target(alloc_program(ap, cfg), cfg)


def test_run_uil_diverging_recursion_exhausts_fuel():
    src = "(letrec ((loop (lambda () (loop)))) (loop))"
    program = parse(src)
    assert validate(program) == []
    with pytest.raises(OutOfFuel):
        run_uil(program, fuel=10_000)


def test_run_target_diverging_recursion_exhausts_fuel():
    src = "(letrec ((loop (lambda () (loop)))) (loop))"
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    with pytest.raises(OutOfFuel):
        run_target(tp, cfg, fuel=10_000)


def test_arithmetic_wraps_at_64_bits():
    src = (
        "(letrec () (set! a 4611686018427387904) (set! b (* a 4))"
        " (mset! 0 0 b) (return b))"
    )
    program, ap = load_program(src)
    obs = run_uil(program)
    assert obs.value == wrap64(4611686018427387904 * 4) == 0
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    target, _ = run_target(tp, cfg)
    assert target == obs


def test_equivalent_on_split_example(split_prog):
    program, ap = split_prog
    cfg = make_config(2)
    tp = alloc_program(ap, cfg)
    assert equivalent(program, tp, cfg).ok


def test_equivalent_no_spills_at_eight_registers(split_prog):
    program, ap = split_prog
    cfg = make_config(8)
    tp = alloc_program(ap, cfg)
    assert equivalent(program, tp, cfg).ok
    loads, stores, _ = static_traffic(tp.flatten())
    assert loads == 0 and stores == 0


def test_equivalent_detects_dropped_store():
    # z is observed, so x is parked on the stack while z is computed
    program, ap = load_program(SPLIT_OBSERVED_SRC)
    cfg = make_config(2)
    tp = alloc_program(ap, cfg)
    mutated = [i for i in tp.flatten() if not isinstance(i, Store)]
    from uilc.isa import TargetProgram

    broken = TargetProgram(entry=mutated, procs=[])
    report = equivalent(program, broken, cfg)
    assert not report.ok
    assert report.source_obs is not None and report.target_obs is not None
    assert "divergence" in report.detail


def test_equivalent_runs_every_seed_heap():
    src = "(letrec () (set! x (mref 5 0)) (mset! 6 0 x) (return x))"
    program, ap = load_program(src)
    cfg = make_config(4)
    tp = alloc_program(ap, cfg)
    heaps = [heap_from_seed(s) for s in range(5)]
    report = equivalent(program, tp, cfg, heaps)
    assert report.ok and report.checked == 5


def test_belady_split_core_needs_one_load(split_prog):
    program, _ = split_prog
    body = annotate_statements(program.body[:4])
    assert belady_oracle(body, 2) == 1


def test_belady_no_pressure_needs_no_loads():
    p = parse("(letrec () (set! a 1) (set! b (+ a 1)) (return b))")
    ap = annotate(p)
    assert belady_oracle(ap, 2) == 0


def test_belady_oracle_strictly_below_lifo():
    # v0 stays live to the end while fresh bindings are reused right away,
    # so evicting the most recent resident cascades into extra reloads;
    # the second v1 is written to the heap, so it is computed
    src = (
        "(letrec ()"
        " (set! v0 95)"
        " (set! v1 76)"
        " (set! v2 (+ v0 v1))"
        " (mset! 1 15 v1)"
        " (set! v1 (+ v2 v2))"
        " (mset! 2 0 v1)"
        " (set! v3 (mref 28 0))"
        " (set! v2 (- v2 v0))"
        " (return v2))"
    )
    program, ap = load_program(src)
    cfg = make_config(2)
    lifo_tp = alloc_program(ap, cfg, "lifo")
    _, lifo_stats = run_target(lifo_tp, cfg)
    best = belady_oracle(ap, 2)
    assert best == 1
    assert lifo_stats.dynamic_loads == 3
    furthest_tp = alloc_program(ap, cfg, "furthest")
    _, furthest_stats = run_target(furthest_tp, cfg)
    assert furthest_stats.dynamic_loads == best


def test_belady_guards_reject_large_instances():
    stmts = " ".join(f"(set! v{i} {i}) (mset! 0 {i} v{i})" for i in range(12))
    p = parse(f"(letrec () {stmts} (return v0))")
    ap = annotate(p)
    with pytest.raises(ValueError, match="oracle bound exceeded: 12 variables"):
        belady_oracle(ap, 2)
    # the guard counts the variables of the statements that are not dead:
    # eleven dead assignments leave one
    stmts = " ".join(f"(set! v{i} {i})" for i in range(12))
    ap = annotate(parse(f"(letrec () {stmts} (return v0))"))
    assert sum(a.dead for a in ap.entry) == 11
    assert belady_oracle(ap, 2) == 0
    # no register cap: at R=4 the six variables of seed 0 fit
    assert belady_oracle(annotate(generate_straight_line(0)), 4) == 0
    branchy = parse(
        "(letrec () (set! a 1) (if (> a 0) (begin (set! b 1)) (begin (set! b 2))) (return b))"
    )
    with pytest.raises(ValueError):
        belady_oracle(annotate(branchy), 2)


# Digest of the oracle's outcome (its loads, or the text of its
# ValueError) on every `generate_straight_line` seed 0..4,999 at R=1..3,
# for the whole program and for its statements as a fragment.  These
# bodies hold no copies, so any way of computing the minimum must leave
# it as it is.
ORACLE_SHA256 = "55027ccc64121c851c7684645bdb07e324585a1cc424acf1e95bb07c053df1a7"


def _oracle_outcome(body, r):
    try:
        return belady_oracle(body, r)
    except ValueError as e:
        return str(e)


def test_oracle_outcomes_are_pinned():
    digest = hashlib.sha256()
    for seed in range(5000):
        p = generate_straight_line(seed)
        for body in (annotate(p), annotate_statements(p.body)):
            for r in (1, 2, 3):
                digest.update(repr(_oracle_outcome(body, r)).encode())
                digest.update(b"\n")
    assert digest.hexdigest() == ORACLE_SHA256


def _loads(body, r, policy):
    """Loads of `body` (an annotated program or fragment) allocated at R=`r`;
    on straight-line code every instruction runs once."""
    cfg = make_config(r)
    if isinstance(body, tuple):
        insts, _ = alloc_fragment(body, cfg, policy)
    else:
        insts = alloc_program(body, cfg, policy).flatten()
    return static_traffic(insts)[0]


def test_belady_copies_that_emit_nothing_cost_nothing():
    # the self-copy of v0 is a rebind, so v0 needs no register there
    src = (
        "(letrec () (set! v1 (mref 29 9)) (set! v0 (mref 6 4)) (set! v2 (+ v1 v0))"
        " (set! v0 v0) (mset! 0 2 v1) (mset! 0 8 v0) (return v2))"
    )
    ap = annotate(parse(src))
    assert belady_oracle(ap, 2) == 1
    assert _loads(ap, 2, "lifo") == 1
    # a copy to a dead destination (a fragment computes it) emits nothing
    frag = annotate_statements(parse("(letrec () (set! a 1) (set! b 2) (set! c a) (return b))").body)
    assert belady_oracle(frag, 1) == 0
    assert _loads(frag, 1, "furthest") == 0


def _copy_body(seed):
    """A straight-line program over v0..v5 in which about a third of the
    assignments copy a variable, self-copies included."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(6)]
    defined = []
    stmts = []
    for _ in range(rng.randint(3, 12)):
        roll = rng.random()
        d = rng.choice(names)
        if not defined or roll < 0.2:
            stmts.append(f"(set! {d} {rng.randint(0, 9)})")
        elif roll < 0.5:
            stmts.append(f"(set! {d} {rng.choice(defined)})")
        elif roll < 0.7:
            stmts.append(f"(set! {d} (+ {rng.choice(defined)} {rng.choice(defined)}))")
        elif roll < 0.85:
            stmts.append(f"(set! {d} (mref {rng.randint(0, 47)} {rng.randint(0, 15)}))")
        else:
            stmts.append(f"(mset! 0 {rng.randint(0, 15)} {rng.choice(defined)})")
            continue
        if d not in defined:
            defined.append(d)
    return parse(f"(letrec () {' '.join(stmts)} (return {rng.choice(defined)}))")


def test_belady_is_a_lower_bound_on_bodies_with_copies():
    below = []
    for seed in range(2000):
        p = _copy_body(seed)
        for body in (annotate(p), annotate_statements(p.body)):
            for r in (2, 3, 4):
                best = belady_oracle(body, r)
                for policy in POLICIES:
                    if _loads(body, r, policy) < best:
                        below.append((seed, type(body).__name__, r, policy))
    assert below == []


def test_furthest_meets_the_oracle_on_the_c6_corpus_at_more_registers():
    for seed in range(200):
        ap = annotate(generate_straight_line(seed))
        for r in (4, 5, 8):
            assert _loads(ap, r, "furthest") == belady_oracle(ap, r), (seed, r)


def _long_body(seed, n):
    """A straight-line program of `n` random statements over v0..v5."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(6)]
    stmts = [f"(set! {v} {i})" for i, v in enumerate(names)]
    for _ in range(n):
        roll = rng.random()
        d, a, b = rng.choice(names), rng.choice(names), rng.choice(names)
        if roll < 0.5:
            stmts.append(f"(set! {d} (+ {a} {b}))")
        elif roll < 0.75:
            stmts.append(f"(mset! 0 {rng.randint(0, 15)} {a})")
        else:
            stmts.append(f"(set! {d} (mref {rng.randint(0, 47)} {rng.randint(0, 15)}))")
    return parse(f"(letrec () {' '.join(stmts)} (return v0))")


def test_belady_runs_past_the_recursion_limit_on_a_long_body():
    ap = annotate(_long_body(0, 1500))
    assert sum(not a.dead for a in ap.entry) == 1155
    for r in (2, 3, 4):
        best = belady_oracle(ap, r)
        assert best > 0
        assert _loads(ap, r, "furthest") == best


def test_determinism_identical_observations_and_stats():
    p = generate_program(23)
    ap = annotate(p)
    cfg = make_config(3)
    tp1 = alloc_program(ap, cfg)
    tp2 = alloc_program(ap, cfg)
    assert tp1.flatten() == tp2.flatten()
    heap = heap_from_seed(23)
    obs1, stats1 = run_target(tp1, cfg, list(heap))
    obs2, stats2 = run_target(tp2, cfg, list(heap))
    assert obs1 == obs2
    assert stats1.as_dict() == stats2.as_dict()


def test_frame_imbalance_is_a_fault():
    cfg = make_config(2)
    with pytest.raises(MachineFault, match=r"^unbalanced frame adjustment: fp 1 != 0$"):
        run_insts([FrameAdjust(2), FrameAdjust(-1)], cfg)
    with pytest.raises(MachineFault, match="^frame pointer went negative$"):
        run_insts([FrameAdjust(-1)], cfg)
    assert run_fault([FrameAdjust(2), FrameAdjust(-3), Halt()]) == "frame pointer went negative"
    assert run_fault([FrameAdjust(0), Halt()]) == "frame release without matching advance"


def test_indirect_jump_validates_label_values():
    cfg = make_config(2)
    with pytest.raises(MachineFault, match="^indirect jump to bad label value 99$"):
        run_target([LoadImm(0, 99), Jump(Reg(0)), Halt()], cfg)
    program = [LabelDef("a"), LoadImm(0, 1), Jump(Reg(0)), Halt()]
    assert run_fault(program) == "indirect jump to bad label value 1"
    assert run_fault([LoadImm(0, -1), Jump(Reg(0))]) == "indirect jump to bad label value -1"


def test_running_off_the_end_is_a_fault():
    cfg = make_config(2)
    with pytest.raises(MachineFault, match="^execution ran off the end of the program$"):
        run_target([LoadImm(0, 1)], cfg)
    assert run_fault([]) == "execution ran off the end of the program"
    # checked before fuel: one unit runs the load, and none is left
    with pytest.raises(MachineFault):
        run_target([LoadImm(0, 1)], cfg, fuel=1)
    with pytest.raises(OutOfFuel):
        run_target([LoadImm(0, 1)], cfg, fuel=0)


def test_asm_round_trip_on_generated_programs():
    for seed in range(12):
        p = generate_program(seed)
        ap = annotate(p)
        tp = alloc_program(ap, make_config(4))
        insts = tp.flatten()
        assert parse_asm(format_insts(insts)) == insts


def test_asm_round_trip_covers_every_instruction_form():
    insts = [
        Move(1, 2),
        LoadImm(0, -7),
        Load(1, 0),
        Store(3, 1),
        BinOpInst("*", 2, Reg(1), -4),
        LabelDef("f"),
        LoadLabel(0, ".L1"),
        Jump("f"),
        Jump(Reg(0)),
        FrameAdjust(2),
        FrameAdjust(-2),
        LabelDef(".L1"),
        MemStore(Reg(0), 3, Reg(1)),
        Halt(),
    ]
    insts += [MemLoad(1, Reg(0), 0), CondJump("<=", Reg(0), 5, ".L1")]
    assert parse_asm(format_insts(insts)) == insts
    # format_inst is each line without its indent
    lines = format_insts(insts).splitlines()
    assert [format_inst(i) for i in insts] == [line.strip() for line in lines]


@pytest.mark.parametrize(
    "line, why",
    [
        ("move r1", "move takes 2 operand(s), got 1"),
        ("jmp", "jmp takes 1 operand(s), got 0"),
        ("blt r1, 2", "blt takes 3 operand(s), got 2"),
        ("loadimm r1, x", "expected an integer, got 'x'"),
        ("fp+= x", "expected an integer, got 'x'"),
        ("move r1, r2, r3", "move takes 2 operand(s), got 3"),
        ("load r1 fv0 fv1", "load takes 2 operand(s), got 3"),
        ("halt r1", "halt takes 0 operand(s), got 1"),
        ("push r1", "unknown mnemonic 'push'"),
        ("store r1, r2", "expected a frame slot, got 'r1'"),
        ("move fv0, r1", "expected a register, got 'fv0'"),
        ("add r0, fv1, 2", "expected a register or immediate, got 'fv1'"),
        (
            "loadimm r1, 99999999999999999999999",
            "immediate 99999999999999999999999 does not fit a 64-bit word",
        ),
        (
            "mstore 0, 9223372036854775808, r1",
            "immediate 9223372036854775808 does not fit a 64-bit word",
        ),
        (
            "blt r1, -9223372036854775809, .L0",
            "immediate -9223372036854775809 does not fit a 64-bit word",
        ),
    ],
)
def test_parse_asm_names_the_malformed_line(line, why):
    with pytest.raises(AsmError) as e:
        parse_asm(f"halt\n  {line}  ; comment\nhalt\n")
    assert str(e.value) == f"line 2: {line!r}: {why}"


def test_parse_asm_reads_the_annotated_readme_listing():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    listing = readme.split("split directly:\n\n```\n", 1)[1].split("```", 1)[0]
    assert ";" in listing
    _, ap = load_program((root / "samples" / "split.uil").read_text())
    expected = alloc_program(ap, make_config(2)).flatten()
    assert parse_asm(listing) == expected
    # blank and comment-only lines hold no instruction
    spaced = "\n; the split\n\n" + listing.replace("\n", "\n\n   \n")
    assert parse_asm(spaced) == expected


@pytest.mark.parametrize("obj", [Reg(1), "move r1, r2", None, [Halt()]])
def test_formatting_a_non_instruction_raises_type_error(obj):
    message = "unknown instruction " + re.escape(repr(obj))
    with pytest.raises(TypeError, match=message):
        format_inst(obj)
    with pytest.raises(TypeError, match=message):
        format_insts([Halt(), obj])


def test_spill_free_shape_accepts_low_pressure(split_prog):
    program, ap = split_prog
    assert spill_free_shape(ap, make_config(8))
    assert not spill_free_shape(ap, make_config(2))  # four values live at once


def test_spill_free_shape_rejects_live_across_call():
    src = (
        "(letrec ((f (lambda () (return 1))))"
        " (set! a 5) (set! b (f)) (set! c (+ a b)) (return c))"
    )
    _, ap = load_program(src)
    assert not spill_free_shape(ap, make_config(8))


def test_spill_free_shape_accepts_result_chaining():
    src = "(letrec ((f (lambda (n) (return n)))) (set! a (f 5)) (return a))"
    _, ap = load_program(src)
    assert spill_free_shape(ap, make_config(8))


def test_spill_free_shape_counts_what_lives_into_a_branch_not_the_join():
    # generator seed 1452's first `if` reads x0 and joins with x1, x2 and
    # x3 live, four values at R=3; but both branches define x3, so only
    # x1 and x2 live into a branch, and every policy allocates the program
    # with no load or store
    ap = annotate(generate_program(1452))
    cfg = make_config(3)
    assert spill_free_shape(ap, cfg)
    for policy in POLICIES:
        assert static_traffic(alloc_program(ap, cfg, policy).flatten())[:2] == (0, 0), policy


def test_spill_free_shape_leaves_room_for_owed_registers():
    # f needs R-1 = 7 registers besides the return address's, but three
    # of them hold what f owes its caller: it must evict one and store it
    src = (
        "(letrec ((f (lambda (a b c)"
        "   (set! d (+ a 1)) (set! e (+ b 2)) (set! k (+ c 3)) (set! h (+ d e))"
        "   (set! a (+ a b)) (set! a (+ a c)) (set! a (+ a d)) (set! a (+ a e))"
        "   (set! a (+ a k)) (set! a (+ a h)) (return a))))"
        " (f 1 2 3))"
    )
    _, ap = load_program(src)
    cfg = make_config(8)
    assert not spill_free_shape(ap, cfg)
    assert static_traffic(alloc_program(ap, cfg).flatten())[1] > 0


# ---------------------------------------------------------------------------
# Fault pinning: every MachineFault message, and the step that raises it


@pytest.mark.parametrize(
    "inst, message",
    [
        (Move(0, 5), "register r5 out of range"),
        (BinOpInst("+", 0, Reg(1), Reg(3)), "register r3 out of range"),
        (MemLoad(0, Reg(2), 0), "register r2 out of range"),
        (MemStore(0, 0, Reg(4)), "register r4 out of range"),
        (Store(0, 9), "register r9 out of range"),
        (Jump(Reg(6)), "register r6 out of range"),
        (CondJump("<", 0, Reg(2), "nowhere"), "register r2 out of range"),
    ],
)
def test_bad_source_register_faults(inst, message):
    assert run_fault([inst, Halt()]) == message


@pytest.mark.parametrize(
    "inst, message",
    [
        (Move(7, 0), "register r7 out of range"),
        (LoadImm(2, 1), "register r2 out of range"),
        (Load(3, 0), "register r3 out of range"),
        (BinOpInst("*", 4, 1, 2), "register r4 out of range"),
        (MemLoad(5, 0, 0), "register r5 out of range"),
        (LoadLabel(2, "here"), "register r2 out of range"),
    ],
)
def test_bad_destination_register_faults(inst, message):
    assert run_fault([inst, LabelDef("here"), Halt()]) == message


def test_negative_slot_faults():
    assert run_fault([Load(0, -1), Halt()]) == "negative frame slot fv-1"
    assert run_fault([Store(-2, 0), Halt()]) == "negative frame slot fv-2"


def test_unknown_labels_fault():
    assert run_fault([Jump("nowhere"), Halt()]) == "jump to unknown label nowhere"
    taken = [CondJump("<", 0, 1, "nowhere"), Halt()]
    assert run_fault(taken) == "jump to unknown label nowhere"
    assert run_fault([LoadLabel(0, "nowhere"), Halt()]) == "unknown label nowhere"


def test_branch_to_unknown_label_faults_only_when_taken():
    obs, stats = run_target([CondJump(">", 0, 1, "nowhere"), Halt()], make_config(2))
    assert obs == Observation(0, ()) and stats.steps == 2


def test_heap_out_of_range_faults():
    assert run_fault([MemLoad(0, 60, 4), Halt()]) == "heap access out of range: 60+4"
    assert run_fault([MemStore(-1, 0, 5), Halt()]) == "heap access out of range: -1+0"
    assert run_fault([MemLoad(0, 3, 0), Halt()], heap=[0, 0, 0]) == "heap access out of range: 3+0"


def test_unknown_operator_and_relation_fault():
    assert run_fault([BinOpInst("/", 0, 1, 2), Halt()]) == "unknown operator '/'"
    assert run_fault([CondJump("!=", 0, 1, "x"), Halt()]) == "unknown relation '!='"


def test_duplicate_label_faults_before_running():
    assert run_fault([Halt(), LabelDef("a"), LabelDef("a")]) == "duplicate label a"


@pytest.mark.parametrize(
    "inst, message",
    [
        (Move(9, 8), "register r8 out of range"),
        (BinOpInst("/", 5, Reg(4), 1), "register r4 out of range"),
        (BinOpInst("/", 5, Reg(0), 1), "unknown operator '/'"),
        (Load(5, -1), "negative frame slot fv-1"),
        (Store(-1, 5), "register r5 out of range"),
        (LoadLabel(5, "nowhere"), "unknown label nowhere"),
        (CondJump("!=", Reg(0), Reg(0), "nowhere"), "unknown relation '!='"),
        (CondJump("!=", Reg(7), 0, "nowhere"), "register r7 out of range"),
        (MemLoad(5, 60, 10), "heap access out of range: 60+10"),
        (MemLoad(5, 0, 0), "register r5 out of range"),
        (MemLoad(5, Reg(6), 0), "register r6 out of range"),
        (MemStore(Reg(7), 60, Reg(6)), "register r7 out of range"),
        (MemStore(60, 10, Reg(6)), "heap access out of range: 60+10"),
        (MemStore(0, 0, Reg(6)), "register r6 out of range"),
    ],
)
def test_instruction_with_two_faults_raises_the_first(inst, message):
    assert run_fault([inst, Halt()]) == message


def test_malformed_instructions_after_halt_do_not_fault():
    dead = [
        Move(0, 9),
        LoadImm(9, 0),
        Load(0, -1),
        Store(-1, 0),
        BinOpInst("/", 0, 1, 2),
        MemLoad(9, 0, 0),
        CondJump("!=", 0, 1, "nowhere"),
        CondJump("<", 0, 1, "nowhere"),
        Jump("nowhere"),
        Jump(Reg(9)),
        LoadLabel(0, "nowhere"),
    ]
    obs, stats = run_target([LoadImm(1, 4), Halt()] + dead, make_config(2))
    assert obs == Observation(4, ())
    assert stats.steps == 2 and stats.instructions == 2 + len(dead)


def test_fault_fires_at_its_step_not_before():
    # the first instruction runs (its store lands) before the second faults
    heap = default_heap()
    with pytest.raises(MachineFault):
        run_target([MemStore(0, 0, 7), Move(0, 9), Halt()], make_config(2), heap)
    assert heap[0] == 7


def test_run_target_fuel_boundary():
    _, ap = load_program((DATA / "fib.uil").read_text())
    cfg = make_config(3)
    tp = alloc_program(ap, cfg)
    obs, stats = run_target(tp, cfg)
    assert obs.value == 55
    again, stats_again = run_target(tp, cfg, fuel=stats.steps)
    assert again == obs and stats_again.as_dict() == stats.as_dict()
    with pytest.raises(OutOfFuel):
        run_target(tp, cfg, fuel=stats.steps - 1)


def test_unknown_jump_target_faults_even_on_the_last_unit_of_fuel():
    with pytest.raises(MachineFault):
        run_target([Jump("nowhere"), Halt()], make_config(2), fuel=1)
    with pytest.raises(MachineFault):
        run_target([CondJump("=", 0, 0, "nowhere"), Halt()], make_config(2), fuel=1)


# Statements run by this program: the entry's set!-call and return, and per
# call of f its if, then one return (n = 0) or set!, tail call (n > 0).
RUN_UIL_FUEL_SRC = """
(letrec ((f (lambda (n)
  (if (= n 0)
    (begin (return 9))
    (begin (set! m (- n 1)) (f m))))))
  (set! x (f 3))
  (return x))
"""


def test_run_uil_fuel_boundary():
    program, _ = load_program(RUN_UIL_FUEL_SRC)
    statements = 2 + 3 * 3 + 2
    assert run_uil(program, fuel=statements) == Observation(9, ())
    with pytest.raises(OutOfFuel):
        run_uil(program, fuel=statements - 1)


def test_run_uil_faults_name_their_cause():
    assert uil_fault("(letrec () (return x))") == "unbound variable 'x'"
    assert uil_fault("(letrec () (set! y (+ 1 z)) (return y))") == "unbound variable 'z'"
    assert uil_fault("(letrec () (g 1))") == "call to unknown procedure 'g'"
    assert uil_fault("(letrec ((f (lambda (a) (return a)))) (f 1 2))") == (
        "arity mismatch calling 'f'"
    )
    assert uil_fault("(letrec ((f (lambda (a) (return a)))) (f q))") == "unbound variable 'q'"
    assert uil_fault("(letrec () (set! x 1))") == "body ended without a return or tail call"


def test_run_uil_faults_only_on_executed_statements():
    src = "(letrec () (if (< 0 1) (begin (return 1)) (begin (g y))))"
    assert run_uil(parse(src)) == Observation(1, ())


# ---------------------------------------------------------------------------
# Golden traffic: assembly printed by `uilc alloc` for tests/data/*.uil,
# run as text, so the simulator's counts are pinned whatever the allocator
# emits later

_FIB = Observation(55, ((0, 55),))
_WALK = Observation(16128589941724529, tuple((a, 16128589941724529) for a in range(37, 31, -1)))
GOLDEN_TRAFFIC = {
    ("fib", 2): (_FIB, dict(static_loads=3, static_stores=3, static_moves=3, dynamic_loads=264,
                            dynamic_stores=264, dynamic_moves=264, instructions=33, steps=2562,
                            call_rounds=176)),
    ("fib", 4): (_FIB, dict(static_loads=3, static_stores=3, static_moves=3, dynamic_loads=264,
                            dynamic_stores=264, dynamic_moves=264, instructions=33, steps=2562,
                            call_rounds=176)),
    ("walk", 2): (_WALK, dict(static_loads=31, static_stores=29, static_moves=0, dynamic_loads=152,
                              dynamic_stores=125, dynamic_moves=0, instructions=86, steps=375,
                              call_rounds=6)),
    ("walk", 4): (_WALK, dict(static_loads=19, static_stores=20, static_moves=3, dynamic_loads=99,
                              dynamic_stores=90, dynamic_moves=13, instructions=68, steps=300,
                              call_rounds=6)),
}


@pytest.mark.parametrize("kernel, registers", sorted(GOLDEN_TRAFFIC))
def test_golden_traffic_fixture(kernel, registers):
    want_obs, want_stats = GOLDEN_TRAFFIC[kernel, registers]
    insts = parse_asm((DATA / f"{kernel}_r{registers}.s").read_text())
    obs, stats = run_target(insts, make_config(registers), heap_from_seed(5))
    assert obs == want_obs
    static = dict(zip(("static_loads", "static_stores", "static_moves"), static_traffic(insts)))
    assert {**static, **stats.as_dict()} == want_stats
    source = parse((DATA / f"{kernel}.uil").read_text())
    assert run_uil(source, heap_from_seed(5)) == want_obs

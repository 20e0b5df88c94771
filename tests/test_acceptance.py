"""Acceptance suite: one test per shipping criterion, run at full scale.

Each test prints a PASS line with its measured numbers so the suite can
be read as a checklist (`pytest tests/test_acceptance.py -v -s`).
"""

import random
import time

import pytest

from uilc.allocator import POLICIES, _sequence_moves, alloc_fragment, alloc_program, load, save
from uilc.analysis import annotate, annotate_statements
from uilc.gen import generate_program, generate_straight_line
from uilc.isa import Load, LoadImm, Store, opcode_name, static_traffic
from uilc.machine import (
    belady_oracle,
    default_heap,
    equivalent,
    heap_from_seed,
    run_insts,
    run_target,
    spill_free_shape,
)
from uilc.model import RET, Model, Reg, Slot, initial_model, make_config

from conftest import SPLIT_SRC, CHAIN_SRC, load_program


@pytest.fixture(scope="module")
def corpus():
    programs = []
    for seed in range(500):
        p = generate_program(seed)
        programs.append((seed, p, annotate(p)))
    return programs


def test_c1_two_register_split_matches_golden_code():
    started = time.perf_counter()
    program, _ = load_program(SPLIT_SRC)
    body = annotate_statements(program.body[:4])
    insts, _ = alloc_fragment(body, make_config(2), "furthest")
    # lowest-index first-fit pins the spill slot to fv0 and the two
    # registers to r0/r1; the opcode shape is what is being checked
    assert [opcode_name(i) for i in insts] == [
        "loadimm",
        "loadimm",
        "store",
        "binop",
        "load",
        "binop",
    ]
    assert insts[2] == Store(0, 0)
    assert insts[4] == Load(0, 0)
    assert sum(isinstance(i, Store) for i in insts) == 1
    assert sum(isinstance(i, Load) for i in insts) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: split example reproduced in {elapsed:.3f}s")


def test_c2_liveness_golden_ending_sets():
    started = time.perf_counter()
    _, ap = load_program(CHAIN_SRC)
    ends = [set(a.ends) for a in ap.entry]
    assert ends == [set(), set(), {"y"}, {"f", "x", "z"}]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: ending sets {ends} in {elapsed:.3f}s")


def test_c3_initial_model_golden():
    cfg = make_config(4, max_arg_regs=2)
    m = initial_model(("x", "y", "z"), cfg)
    assert m.regmap == {"x": 1, "y": 2, RET: 0}
    assert m.stackmap == {"z": 0}
    print(f"\nACCEPTANCE 3 PASS: initial model {m.dump()}")


def _simultaneous(moves, regs, stack):
    def read(src):
        if isinstance(src, Reg):
            return regs[src.i]
        if isinstance(src, Slot):
            return stack[src.i]
        return src

    values = [(dst, read(src)) for src, dst in moves]
    new_regs, new_stack = list(regs), list(stack)
    for dst, v in values:
        if isinstance(dst, Reg):
            new_regs[dst.i] = v
        else:
            new_stack[dst.i] = v
    return new_regs, new_stack


def test_c4_shuffle_realizes_simultaneous_assignment():
    started = time.perf_counter()
    rng = random.Random(404)
    cfg = make_config(8)
    checked_loops = 0
    for case in range(1000):
        if case % 3 == 0:
            # pure loops over registers: every leg is one instruction
            regs_avail = list(range(6))
            rng.shuffle(regs_avail)
            n_loops = rng.randint(1, 2)
            cut = rng.randint(2, max(2, len(regs_avail) - 2)) if n_loops == 2 else len(regs_avail)
            cycles = [regs_avail[:cut], regs_avail[cut:]][: n_loops]
            cycles = [c[: rng.randint(2, len(c))] for c in cycles if len(c) >= 2]
            moves = []
            for cycle in cycles:
                for i, r in enumerate(cycle):
                    moves.append((Reg(r), Reg(cycle[(i + 1) % len(cycle)])))
            if not moves:
                continue
            insts = _sequence_moves(moves, cfg)
            n = sum(len(c) for c in cycles)
            assert len(insts) == n + len(cycles), (case, moves)
            checked_loops += 1
        else:
            locations = [Reg(i) for i in range(6)] + [Slot(i) for i in range(6)]
            rng.shuffle(locations)
            k = rng.randint(1, 6)
            dsts = locations[:k]
            srcs = [rng.choice(locations + [rng.randint(-99, 99)]) for _ in range(k)]
            moves = list(zip(srcs, dsts))
            insts = _sequence_moves(moves, cfg)
            if all(s == d for s, d in moves):
                assert insts == []
            regs = [100 + i for i in range(8)]
            stack = [200 + i for i in range(8)]
            machine = run_insts(insts, cfg, regs=regs, stack=stack)
            want_regs, want_stack = _simultaneous(moves, regs, stack)
            for dst in dsts:
                if isinstance(dst, Reg):
                    assert machine.regs[dst.i] == want_regs[dst.i], (case, moves)
                else:
                    assert machine.stack[dst.i] == want_stack[dst.i], (case, moves)
    # identity mappings emit nothing
    for loc in (Reg(0), Reg(5), Slot(0), Slot(3)):
        insts = _sequence_moves([(loc, loc)], cfg)
        assert insts == []
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 4 PASS: 1000 mappings realized, {checked_loops} pure-loop "
        f"counts at n+l, in {elapsed:.2f}s"
    )


def test_c5_differential_equivalence_500_programs(corpus):
    started = time.perf_counter()
    checked = 0
    for seed, program, ap in corpus:
        heaps = [heap_from_seed(seed)]
        for r in (3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                tp = alloc_program(ap, cfg, policy)
                report = equivalent(program, tp, cfg, heaps)
                assert report.ok, (seed, r, policy, report.detail)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: {checked} allocations equivalent in {elapsed:.1f}s")


def test_c6_furthest_next_use_matches_exhaustive_minimum():
    started = time.perf_counter()
    furthest_total = 0
    lifo_total = 0
    counterexamples = []
    instances = 0
    for seed in range(200):
        program = generate_straight_line(seed)
        ap = annotate(program)
        for r in (2, 3):
            cfg = make_config(r)
            tp = alloc_program(ap, cfg, "furthest")
            _, stats = run_target(tp, cfg)
            best = belady_oracle(ap, r)
            assert stats.dynamic_loads == best, (seed, r, stats.dynamic_loads, best)
            lifo_tp = alloc_program(ap, cfg, "lifo")
            _, lifo_stats = run_target(lifo_tp, cfg)
            f_traffic = stats.dynamic_loads + stats.dynamic_stores
            l_traffic = lifo_stats.dynamic_loads + lifo_stats.dynamic_stores
            furthest_total += f_traffic
            lifo_total += l_traffic
            if f_traffic > l_traffic:
                counterexamples.append((seed, r, f_traffic, l_traffic))
            instances += 1
    assert furthest_total <= lifo_total, (furthest_total, lifo_total)
    elapsed = time.perf_counter() - started
    # store-inclusive per-instance regressions are reported, not failed
    note = f", {len(counterexamples)} store-inclusive counterexample(s): {counterexamples}" if counterexamples else ""
    print(
        f"\nACCEPTANCE 6 PASS: {instances} instances at the exhaustive minimum; "
        f"traffic {furthest_total} (furthest) <= {lifo_total} (lifo) in {elapsed:.1f}s{note}"
    )


def test_c7_spill_free_programs_emit_no_stack_traffic(corpus):
    cfg = make_config(8)
    low_pressure = [
        annotate(generate_program(10_000 + seed, pressure_vars=3)) for seed in range(150)
    ]
    candidates = [ap for _, _, ap in corpus] + low_pressure
    qualifying = [ap for ap in candidates if spill_free_shape(ap, cfg)]
    assert len(qualifying) >= 25, "corpus must contain spill-free programs"
    for ap in qualifying:
        tp = alloc_program(ap, cfg, "furthest")
        loads, stores, _ = static_traffic(tp.flatten())
        assert loads == 0 and stores == 0
    print(f"\nACCEPTANCE 7 PASS: {len(qualifying)} spill-free programs, zero loads/stores")


def test_c8_save_idempotent_and_load_noop_properties():
    started = time.perf_counter()
    rng = random.Random(808)
    cfg = make_config(4)
    cases = 0
    for _ in range(10_000):
        m = Model()
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        for v in names:
            r = m.free_register(cfg)
            if rng.random() < 0.7 and r is not None:
                m = m.bind_reg(v, r)
                if rng.random() < 0.4:
                    m = m.bind_slot(v, m.free_slot())
            else:
                m = m.bind_slot(v, m.free_slot())
        m1, _ = save(m, names)
        m2, insts2 = save(m1, names)
        assert insts2 == [] and m2 == m1
        resident = [v for v in names if m.reg_of(v) is not None]
        m3, insts3 = load(m, resident, frozenset(), {}, "furthest", cfg)
        assert insts3 == [] and m3 == m
        cases += 1
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 8 PASS: {cases} cases, resident saves/loads emit nothing ({elapsed:.1f}s)")


def test_c9_frame_pointer_balances_across_calls(corpus):
    # the simulator faults on any unmatched frame adjustment, so a clean
    # sweep over the corpus certifies balance for every completed call
    rounds = 0
    for seed, program, ap in corpus:
        cfg = make_config(3)
        tp = alloc_program(ap, cfg, "furthest")
        _, stats = run_target(tp, cfg, heap_from_seed(seed))
        rounds += stats.call_rounds
    assert rounds > 0, "corpus must exercise non-tail calls"
    print(f"\nACCEPTANCE 9 PASS: {rounds} non-tail call round trips, frame pointer restored")

import gc
import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from uilc.analysis import (
    INF,
    annotate,
    annotate_statements,
    dump_annotated,
    stmt_refs,
    walk_statements,
)
from uilc.gen import generate_program, generate_straight_line
from uilc.uil import Assign, If, MemRead, Program, format_program, parse, validate

from conftest import CHAIN_SRC, load_program


# ---------------------------------------------------------------------------
# Path-enumeration oracle: expand every branch combination into linear
# paths and read liveness facts straight off them.


def _paths(body):
    if not body:
        return [[]]
    s, rest = body[0], body[1:]
    tails = _paths(rest)
    if isinstance(s.stmt, If):
        head = (s.point, stmt_refs(s.stmt), [], False)
        result = []
        for branch in (s.then_body, s.else_body):
            for inner in _paths(branch):
                for tail in tails:
                    result.append([head] + inner + tail)
        return result
    pure = isinstance(s.stmt, Assign) and not isinstance(s.stmt.rhs, MemRead)
    entry = (s.point, stmt_refs(s.stmt), s.stmt.defs(), pure)
    return [[entry] + tail for tail in tails]


def _path_facts(paths, dead):
    """(live_in, live_out, next_use) per point, unioned over `paths`,
    with the references of the points in `dead` left out."""
    live_in, live_out, next_use = {}, {}, {}
    for path in paths:
        for i, (point, _, _, _) in enumerate(path):
            live_in.setdefault(point, set())
            live_out.setdefault(point, set())
            killed_in = set()
            killed_after = set()
            for j in range(i, len(path)):
                q, refs, defs, _ = path[j]
                if q in dead:
                    refs = []
                for v in refs:
                    if v not in killed_in:
                        live_in[point].add(v)
                if j > i:
                    for v in refs:
                        if v not in killed_after:
                            live_out[point].add(v)
                            key = (point, v)
                            next_use[key] = min(next_use.get(key, math.inf), q)
                killed_in |= set(defs)
                if j > i:
                    killed_after |= set(defs)
    return live_in, live_out, next_use


def _oracle_facts(body):
    """(live_in, live_out, next_use, dead) per point, unioned over all paths.

    A reference at j counts toward position i only when the variable is
    not redefined in between; definitions at i itself kill live_in for
    later references but not the next use of the value defined there.
    A pure assignment (any right-hand side but `mref`) whose destination
    is not live after it is dead, and its references count for nothing;
    rounds of the path facts mark dead points until none is added.
    """
    paths = _paths(list(body))
    dead = set()
    while True:
        live_in, live_out, next_use = _path_facts(paths, dead)
        more = {
            point
            for path in paths
            for point, _, defs, pure in path
            if pure and point not in dead and defs[0] not in live_out[point]
        }
        if not more:
            return live_in, live_out, next_use, dead
        dead |= more


def _all_points(body):
    return [a.point for a in walk_statements(body)]


def next_use_at(a, v):
    return a.next_uses.get(v, INF)


def _check_against_oracle(body):
    live_in, live_out, next_use, dead = _oracle_facts(list(body))
    variables = set()
    for a in walk_statements(body):
        variables |= set(stmt_refs(a.stmt)) | set(a.stmt.defs())
    for a in walk_statements(body):
        p = a.point
        assert a.dead == (p in dead), p
        expected_ends = (live_in[p] | set(a.stmt.defs())) - live_out[p]
        assert a.ends == expected_ends, (p, a.ends, expected_ends)
        for v in variables:
            want = next_use.get((p, v), math.inf)
            assert next_use_at(a, v) == want, (p, v)


# ---------------------------------------------------------------------------


def test_ending_sets_of_four_statement_example(chain_call):
    _, ap = chain_call
    ends = [a.ends for a in ap.entry]
    assert ends == [
        frozenset(),
        frozenset(),
        frozenset({"y"}),
        frozenset({"f", "x", "z"}),
    ]


def test_dump_suffixes_statements_with_ending_sets(chain_call):
    _, ap = chain_call
    dump = dump_annotated(ap.entry)
    assert dump.splitlines() == [
        "(set! x 0), {}",
        "(set! y (+ x 1)), {}",
        "(set! z (+ y 2)), {y}",
        "(f x z), {f, x, z}",
    ]


def test_next_use_of_x_is_the_call(chain_call):
    _, ap = chain_call
    points = [a.point for a in ap.entry]
    # after y <- x + 1, the next reference to x is the call
    assert next_use_at(ap.entry[1], "x") == points[3]


def test_next_use_after_last_statement_is_infinite(chain_call):
    _, ap = chain_call
    assert next_use_at(ap.entry[-1], "z") == INF


def test_unknown_variable_is_dead(chain_call):
    _, ap = chain_call
    assert next_use_at(ap.entry[0], "nosuch") == INF


def test_single_return_of_parameter():
    p = parse("(letrec ((f (lambda (x) (return x)))) (f 1))")
    ap = annotate(p)
    proc = ap.procs[0]
    assert proc.body[0].ends == frozenset({"x"})


def test_branch_next_use_takes_minimum():
    # v is referenced earlier (numerically) in the then branch
    p = parse(
        "(letrec () (set! v 1) (set! c 2)"
        " (if (< c 3) (begin (set! a v)) (begin (set! b 0) (set! a (+ v b))))"
        " (return a))"
    )
    assert validate(p) == []
    ap = annotate(p)
    body = ap.entry
    if_stmt = body[2]
    then_use = if_stmt.then_body[0].point
    assert next_use_at(body[1], "v") == then_use
    _check_against_oracle(body)


def test_variable_ending_in_both_branches():
    # used in both branches, never after: it ends inside each branch
    p = parse(
        "(letrec () (set! v 1) (set! c 2)"
        " (if (< c 3) (begin (set! a v)) (begin (set! a (+ v 1))))"
        " (return a))"
    )
    ap = annotate(p)
    if_stmt = ap.entry[2]
    assert "v" in if_stmt.then_body[0].ends
    assert "v" in if_stmt.else_body[0].ends
    assert "v" not in ap.entry[3].ends
    _check_against_oracle(ap.entry)


def test_redefinition_kills_next_use():
    # the first x dies at its last use even though the name is read later
    p = parse(
        "(letrec () (set! x 1) (set! y (+ x 1)) (set! x 2) (set! z (+ x y)) (return z))"
    )
    ap = annotate(p)
    body = ap.entry
    assert "x" in body[1].ends
    assert next_use_at(body[1], "x") == INF
    _check_against_oracle(body)


def test_dead_definition_ends_immediately():
    p = parse("(letrec () (set! x 1) (set! y 2) (return y))")
    ap = annotate(p)
    assert "x" in ap.entry[0].ends


def test_consistency_ends_iff_dead_and_live_in():
    # v ends at s exactly when it was live entering s and has no next use
    for seed in range(30):
        p = generate_program(seed, max_stmts=12)
        ap = annotate(p)
        for body in [ap.entry] + [proc.body for proc in ap.procs]:
            live_in, live_out, _, _ = _oracle_facts(list(body))
            for a in walk_statements(body):
                for v in live_in[a.point] | a.ends:
                    dead = next_use_at(a, v) == INF
                    in_ends = v in a.ends
                    live_entering = v in (live_in[a.point] | set(a.stmt.defs()))
                    assert in_ends == (dead and live_entering), (a.point, v)


@pytest.mark.parametrize("seed", range(25))
def test_annotation_matches_path_oracle(seed):
    p = generate_program(seed, max_stmts=12)
    ap = annotate(p)
    _check_against_oracle(ap.entry)
    for proc in ap.procs:
        _check_against_oracle(proc.body)


def test_points_are_preorder_unique():
    p = generate_program(7)
    ap = annotate(p)
    for body in [ap.entry] + [proc.body for proc in ap.procs]:
        points = _all_points(body)
        assert points == sorted(points)
        assert len(points) == len(set(points))


def test_stmt_refs_puts_the_callee_first():
    p = parse("(letrec ((f (lambda (a b) (return a)))) (set! r (f 1 x)) (f r 2))")
    assert stmt_refs(p.body[0]) == ["f", "x"]
    assert stmt_refs(p.body[1]) == ["f", "r"]


def test_fragment_annotation():
    p = parse(CHAIN_SRC)
    body = annotate_statements(p.body)
    assert body[2].ends == frozenset({"y"})
    assert next_use_at(body[0], "x") == 1


def test_branch_entry_live_sets():
    p = parse(
        "(letrec () (set! a 1) (set! b 2) (set! c 3)"
        " (if (< c 0) (begin (set! d a)) (begin (set! d b)))"
        " (return d))"
    )
    ap = annotate(p)
    if_stmt = ap.entry[3]
    assert if_stmt.then_live == frozenset({"a"})
    assert if_stmt.else_live == frozenset({"b"})


def test_straight_line_forward_reconstruction_matches_backward_pass():
    # in straight-line code a range can only end where its variable is
    # referenced or defined, so ending sets are recoverable forward from
    # the next-use maps alone; a pure assignment whose destination has no
    # next use is dead, and references nothing, so only its destination
    # ends there
    for seed in range(40):
        p = generate_straight_line(seed)
        ap = annotate(p)
        for a in ap.entry:
            s = a.stmt
            dead = (
                isinstance(s, Assign)
                and not isinstance(s.rhs, MemRead)
                and next_use_at(a, s.dst) == INF
            )
            assert a.dead == dead, (seed, a.point)
            candidates = set(s.defs()) if dead else set(stmt_refs(s)) | set(s.defs())
            forward_ends = {v for v in candidates if next_use_at(a, v) == INF}
            assert forward_ends == set(a.ends), (seed, a.point)


# ---------------------------------------------------------------------------
# tail positions

TAIL_SRC = (
    "(letrec ((f (lambda (n) (return n))))"
    " (f 0)"
    " (set! x (f 1))"
    " (if (> x 1) (begin (f x)) (begin (f 2)))"
    " (if (> x 0)"
    "   (begin (f x))"
    "   (begin (set! y (+ x 1)) (f y))))"
)


def test_tail_if_passes_tail_position_to_its_branch_calls():
    _, ap = load_program(TAIL_SRC)
    early, bound, inner_if, tail_if = ap.entry
    assert not early.tail  # a call with more of the body after it
    assert not bound.tail  # a result-binding call
    assert not inner_if.tail
    assert not inner_if.then_body[-1].tail and not inner_if.else_body[-1].tail
    assert tail_if.tail
    assert tail_if.then_body[-1].tail and tail_if.else_body[-1].tail
    assert not tail_if.else_body[0].tail
    assert ap.procs[0].body[-1].tail


def _raw_tail_flags(stmts, tail):
    """Pre-order tail flags of raw statements: the last statement of a
    frame-ending body is tail, and so is the last of each branch of a tail If."""
    flags = []
    for i, s in enumerate(stmts):
        here = tail and i == len(stmts) - 1
        flags.append(here)
        if isinstance(s, If):
            flags += _raw_tail_flags(s.then_body, here)
            flags += _raw_tail_flags(s.else_body, here)
    return flags


def test_tail_flags_match_raw_program_recomputation():
    root = Path(__file__).parents[1]
    files = sorted((root / "tests" / "data").glob("*.uil")) + sorted((root / "samples").glob("*.uil"))
    programs = [generate_program(seed) for seed in range(100)]
    programs += [parse(TAIL_SRC)] + [parse(f.read_text()) for f in files]
    tail_kinds = Counter()
    for p in programs:
        ap = annotate(p)
        bodies = [(ap.entry, p.body)] + [
            (proc.body, d.body) for proc, d in zip(ap.procs, p.definitions)
        ]
        for body, raw in bodies:
            flags = [a.tail for a in walk_statements(body)]
            assert flags == _raw_tail_flags(raw, True), format_program(p)
            tail_kinds.update(type(a.stmt).__name__ for a in walk_statements(body) if a.tail)
    assert tail_kinds["If"] and tail_kinds["Call"] and tail_kinds["ReturnValue"], tail_kinds


def test_fragment_annotation_marks_nothing_tail():
    body = annotate_statements(parse(TAIL_SRC).body)
    assert not any(a.tail for a in walk_statements(body))


# ---------------------------------------------------------------------------
# pinned output and the no-copy design

# Digest of every annotation fact over the corpus `_pinned_programs`
# yields: each statement's point, sorted ending set, sorted live-after
# set, sorted next-use items, tail flag, sorted branch entry sets and dead
# flag, in pre-order, then each procedure's entry set.  A change to `annotate` must
# leave it as it is.
ANNOTATION_SHA256 = "0609a91c2944b879934d10e2ba30d676a9184f7ab397a387c5be82177e79cb5c"


def _pinned_programs():
    """C5 (generator seeds 0..499), C6 (straight-line seeds 0..199) and
    three `large-pressure` programs."""
    yield from (generate_program(seed) for seed in range(500))
    yield from (generate_straight_line(seed) for seed in range(200))
    for seed in range(3):
        yield generate_program(seed, max_procs=0, max_stmts=3000, pressure_vars=32)


def test_annotations_are_pinned():
    digest = hashlib.sha256()
    for p in _pinned_programs():
        ap = annotate(p)
        for body in [ap.entry] + [proc.body for proc in ap.procs]:
            for a in walk_statements(body):
                fact = (
                    a.point,
                    sorted(a.ends),
                    sorted(a.live_after),
                    sorted(a.next_uses.items()),
                    a.tail,
                    sorted(a.then_live),
                    sorted(a.else_live),
                    a.dead,
                )
                digest.update(repr(fact).encode())
        for proc in ap.procs:
            digest.update(repr((proc.name, sorted(proc.entry_live))).encode())
    assert digest.hexdigest() == ANNOTATION_SHA256


# Digest of the call-crossing sets over `_pinned_programs` and generator
# seeds 0..99 with up to six procedures of up to 60 statements: for each
# body, every point whose set of variables living across a later non-tail
# call is not empty, with that set sorted, in point order.
ACROSS_SHA256 = "16e1f494cd40fa6767208bb356033aaa999bc3a1de80000c6a2073bc6e49e5e2"


def test_call_crossing_sets_are_pinned():
    programs = itertools.chain(
        _pinned_programs(),
        (generate_program(seed, max_procs=6, max_stmts=60) for seed in range(100)),
    )
    digest = hashlib.sha256()
    for p in programs:
        ap = annotate(p)
        for body in [ap.entry] + [proc.body for proc in ap.procs]:
            facts = sorted((a.point, sorted(a.across)) for a in walk_statements(body) if a.across)
            digest.update(repr(facts).encode())
    assert digest.hexdigest() == ACROSS_SHA256


def _without_dead(stmts, annotated):
    """The raw statements with every statement annotated dead left out."""
    kept = []
    for s, a in zip(stmts, annotated):
        if a.dead:
            continue
        if isinstance(s, If):
            s = replace(
                s,
                then_body=_without_dead(s.then_body, a.then_body),
                else_body=_without_dead(s.else_body, a.else_body),
            )
        kept.append(s)
    return tuple(kept)


def test_one_walk_finds_every_dead_assignment():
    # deleting what one walk marks dead leaves a program in which a second
    # walk marks nothing dead and finds the same facts: the walk reaches
    # the fixpoint of deleting dead assignments
    programs = itertools.chain(
        (generate_program(seed) for seed in range(500)),
        (
            generate_program(seed, max_procs=0, max_stmts=3000, pressure_vars=32)
            for seed in range(3)
        ),
    )
    dead_total = 0
    for p in programs:
        ap = annotate(p)
        pruned = Program(
            tuple(
                replace(d, body=_without_dead(d.body, proc.body))
                for d, proc in zip(p.definitions, ap.procs)
            ),
            _without_dead(p.body, ap.entry),
        )
        again = annotate(pruned)
        bodies = [(ap.entry, again.entry)] + [
            (x.body, y.body) for x, y in zip(ap.procs, again.procs)
        ]
        for body, twin in bodies:
            survivors = []
            for a in walk_statements(body):
                if a.dead:
                    s = a.stmt
                    assert isinstance(s, Assign) and not isinstance(s.rhs, MemRead), s
                    assert a.ends == {s.dst} and s.dst not in a.next_uses
                    dead_total += 1
                else:
                    survivors.append(a)
            renumbered = list(walk_statements(twin))
            assert not any(b.dead for b in renumbered)
            assert len(renumbered) == len(survivors)
            point = {a.point: b.point for a, b in zip(survivors, renumbered)}
            for a, b in zip(survivors, renumbered):
                # an `if` keeps its test; its branches lost their dead statements
                assert (b.stmt.test if isinstance(b.stmt, If) else b.stmt) == (
                    a.stmt.test if isinstance(a.stmt, If) else a.stmt
                )
                assert b.ends == a.ends
                assert b.next_uses == {v: point[q] for v, q in a.next_uses.items()}
                assert b.across == a.across and b.tail == a.tail
                assert (b.then_live, b.else_live) == (a.then_live, a.else_live)
        for x, y in zip(ap.procs, again.procs):
            assert x.entry_live == y.entry_live
    assert dead_total > 5000


def test_live_after_is_a_view_of_the_next_use_map():
    # `live_after` costs no copy: for a statement other than an `if` it is
    # the key view of the statement's own next-use map.  It still acts as
    # a set, and annotations stay hashable with value equality.
    views = []
    for seed in range(40):
        p = generate_program(seed)
        first, again = annotate(p), annotate(p)
        bodies = [(first.entry, again.entry)] + [
            (x.body, y.body) for x, y in zip(first.procs, again.procs)
        ]
        for body, twin in bodies:
            for a, b in zip(walk_statements(body), walk_statements(twin)):
                assert a == b and hash(a) == hash(b)
                if isinstance(a.stmt, If):
                    continue
                expected = frozenset(a.next_uses)
                live = a.live_after
                assert live == expected and expected == live
                assert live | {"%new"} == expected | {"%new"}
                assert not live - expected and len(live) == len(expected)
                assert all(v in live for v in expected) and "%new" not in live
                views.append(a)
    assert views
    for a in views:
        # `live_after.mapping` is only a read-only proxy of the map, so
        # the identity is read from the view's one referent
        assert type(a.live_after) is type({}.keys())
        assert gc.get_referents(a.live_after)[0] is a.next_uses

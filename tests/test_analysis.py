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
    walk_statements,
)
from uilc.gen import generate_program, generate_straight_line
from uilc.uil import Assign, Call, If, MemRead, Program, format_program, parse, validate

from conftest import CHAIN_SRC, CYCLE3_SRC, DIAMOND_SRC, live_after, load_program


# ---------------------------------------------------------------------------
# Path-enumeration oracle: expand every branch combination into linear
# paths and read liveness facts straight off them.


def stmt_refs(s):
    """Variables (and callee names) referenced by a statement itself, every
    argument of a call included."""
    refs = [v for v in s.operands() if type(v) is str]
    # The callee name counts as a reference and shows up in ending sets.
    return [s.callee, *refs] if type(s) is Call else refs


def _refs(s, reads):
    """`stmt_refs` under the unread-parameter rule: a call to a callee in
    `reads` references the callee and the variables it passes at the
    positions `reads` marks; a call to any other passes every argument."""
    if isinstance(s, Call) and s.callee in reads:
        passed = [a for a, r in zip(s.args, reads[s.callee]) if r]
        return [s.callee] + [a for a in passed if isinstance(a, str)]
    return stmt_refs(s)


def _raw_statements(stmts):
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from _raw_statements(s.then_body)
            yield from _raw_statements(s.else_body)


def _paths(stmts, reads, point=0):
    """Every path through the raw statements `stmts`, the first of which
    has pre-order point `point`: lists of (point, refs, defs, kind), where
    kind is True for a pure assignment, the set of its branches' points
    for an `if`, and False otherwise."""
    if not stmts:
        return [[]]
    s, rest = stmts[0], stmts[1:]
    size = len(list(_raw_statements((s,))))
    tails = _paths(rest, reads, point + size)
    if isinstance(s, If):
        head = (point, _refs(s, reads), (), frozenset(range(point + 1, point + size)))
        else_point = point + 1 + len(list(_raw_statements(s.then_body)))
        inner = _paths(s.then_body, reads, point + 1) + _paths(s.else_body, reads, else_point)
        return [[head] + path + tail for path in inner for tail in tails]
    pure = isinstance(s, Assign) and not isinstance(s.rhs, MemRead)
    entry = (point, _refs(s, reads), s.defs(), pure)
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


def _oracle_facts(stmts, reads):
    """(live_in, live_out, next_use, dead) per point of the raw statements
    `stmts`, unioned over all paths, with calls referencing what `reads`
    says they pass.

    A reference at j counts toward position i only when the variable is
    not redefined in between; definitions at i itself kill live_in for
    later references but not the next use of the value defined there.
    A pure assignment (any right-hand side but `mref`) whose destination
    is not live after it is dead, and so is an `if` whose branch points
    are all dead; the references of a dead point count for nothing.
    Rounds of the path facts mark dead points until none is added.
    """
    paths = _paths(list(stmts), reads)
    dead = set()
    while True:
        live_in, live_out, next_use = _path_facts(paths, dead)
        more = set()
        for path in paths:
            for point, _, defs, kind in path:
                if point in dead:
                    continue
                if kind is True and defs[0] not in live_out[point]:
                    more.add(point)
                elif kind and kind is not True and kind <= dead:
                    more.add(point)
        if not more:
            return live_in, live_out, next_use, dead
        dead |= more


def _read_positions(p, order):
    """Procedure -> for each parameter, whether a call passes it; found
    without `annotate`, in its callees-first `order`, which is checked
    first: a procedure calls one later in the order only along a cycle,
    when the callee reaches back to it.  A procedure called by one at or
    before it in the order (itself included) was called before its callers
    knew what it reads, and passes every argument.  Any other passes the
    parameters the path oracle finds live at its first point, with the
    positions of the procedures before it already taken."""
    calls = {
        d.name: {s.callee for s in _raw_statements(d.body) if isinstance(s, Call)}
        for d in p.definitions
    }
    reach = {name: set(callees) for name, callees in calls.items()}
    grown = True
    while grown:
        grown = False
        for name, reached in reach.items():
            more = set().union(*(reach[g] for g in reached)) - reached
            if more:
                reached |= more
                grown = True
    assert sorted(order) == sorted(calls)
    place = {name: i for i, name in enumerate(order)}
    for name in order:
        for g in calls[name]:
            assert place[g] <= place[name] or name in reach[g], (name, g)
    definitions = {d.name: d for d in p.definitions}
    reads = {}
    for i, name in enumerate(order):
        d = definitions[name]
        if any(name in calls[q] for q in order[: i + 1]):
            reads[name] = (True,) * len(d.params)
        else:
            entry = _oracle_facts(d.body, reads)[0][0]
            reads[name] = tuple(v in entry for v in d.params)
    return reads


def _all_points(body):
    return [a.point for a in walk_statements(body)]


def next_use_at(a, v):
    return a.next_uses.get(v, INF)


def _check_against_oracle(body, reads):
    live_in, live_out, next_use, dead = _oracle_facts([a.stmt for a in body], reads)
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
        if isinstance(a.stmt, Call):
            keep = reads.get(a.stmt.callee, [True] * len(a.stmt.args))
            assert a.passed == tuple(x for x, r in zip(a.stmt.args, keep) if r), p
        else:
            assert a.passed == (), p


def _check_program_against_oracle(p):
    """Every body of `p` and every procedure's read parameters."""
    ap = annotate(p)
    reads = _read_positions(p, ap.order)
    _check_against_oracle(ap.entry, reads)
    for proc in ap.procs:
        want = tuple(v for v, r in zip(proc.params, reads[proc.name]) if r)
        assert proc.read_params == want, proc.name
        _check_against_oracle(proc.body, reads)
    return ap


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
    _check_against_oracle(body, {})


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
    _check_against_oracle(ap.entry, {})


def test_redefinition_kills_next_use():
    # the first x dies at its last use even though the name is read later
    p = parse(
        "(letrec () (set! x 1) (set! y (+ x 1)) (set! x 2) (set! z (+ x y)) (return z))"
    )
    ap = annotate(p)
    body = ap.entry
    assert "x" in body[1].ends
    assert next_use_at(body[1], "x") == INF
    _check_against_oracle(body, {})


def test_dead_definition_ends_immediately():
    p = parse("(letrec () (set! x 1) (set! y 2) (return y))")
    ap = annotate(p)
    assert "x" in ap.entry[0].ends


def test_consistency_ends_iff_dead_and_live_in():
    # v ends at s exactly when it was live entering s and has no next use
    for seed in range(30):
        p = generate_program(seed, max_stmts=12)
        ap = annotate(p)
        reads = _read_positions(p, ap.order)
        for body in [ap.entry] + [proc.body for proc in ap.procs]:
            live_in, live_out, _, _ = _oracle_facts([a.stmt for a in body], reads)
            for a in walk_statements(body):
                for v in live_in[a.point] | a.ends:
                    dead = next_use_at(a, v) == INF
                    in_ends = v in a.ends
                    live_entering = v in (live_in[a.point] | set(a.stmt.defs()))
                    assert in_ends == (dead and live_entering), (a.point, v)


@pytest.mark.parametrize("seed", range(25))
def test_annotation_matches_path_oracle(seed):
    _check_program_against_oracle(generate_program(seed, max_stmts=12))


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
    # ends there.  A call references only the arguments it passes
    # (`_read_positions`), so the others are no candidates.
    programs = [generate_straight_line(seed) for seed in range(40)]
    programs += [generate_program(seed) for seed in range(100)]
    calls = 0
    for p in programs:
        ap = annotate(p)
        reads = _read_positions(p, ap.order)
        for body in [ap.entry] + [proc.body for proc in ap.procs]:
            if any(isinstance(a.stmt, If) for a in body):
                continue
            for a in body:
                s = a.stmt
                dead = (
                    isinstance(s, Assign)
                    and not isinstance(s.rhs, MemRead)
                    and next_use_at(a, s.dst) == INF
                )
                assert a.dead == dead, a.point
                candidates = set(s.defs()) if dead else set(_refs(s, reads)) | set(s.defs())
                forward_ends = {v for v in candidates if next_use_at(a, v) == INF}
                assert forward_ends == set(a.ends), a.point
                calls += isinstance(s, Call) and len(a.passed) < len(s.args)
    assert calls > 40  # calls that leave an argument out


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
# set, sorted next-use items, tail flag, sorted branch entry sets, dead
# flag and passed arguments, in pre-order, then each procedure's entry set
# and read parameters.  A change to `annotate` must leave it as it is.
ANNOTATION_SHA256 = "40a65dca0059e2515d0bda7df5c54634d6695206dcb1c332ccad774d3287f237"


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
                    sorted(live_after(a)),
                    sorted(a.next_uses.items()),
                    a.tail,
                    sorted(a.then_live),
                    sorted(a.else_live),
                    a.dead,
                    a.passed,
                )
                digest.update(repr(fact).encode())
        for proc in ap.procs:
            digest.update(repr((proc.name, sorted(proc.entry_live), proc.read_params)).encode())
    assert digest.hexdigest() == ANNOTATION_SHA256


# Digest of each statement's references and call-crossing set over the
# corpus `_pinned_programs` yields: the point, `refs` in order and the
# sorted `across` of every statement in pre-order, first of each whole
# program's bodies (`annotate`), then of its entry body as a fragment
# (`annotate_statements`).  A change to how `annotate` finds what a
# statement reads must leave it as it is.
ANNOTATION_REFS_SHA256 = "8eec2f82e8e8b2a8452c09b85a5979bf27f7d66a5c7e7bb064b7806e9d2cf133"


def test_annotation_refs_are_pinned():
    digest = hashlib.sha256()
    for p in _pinned_programs():
        ap = annotate(p)
        bodies = [ap.entry] + [proc.body for proc in ap.procs] + [annotate_statements(p.body)]
        for body in bodies:
            for a in walk_statements(body):
                digest.update(repr((a.point, a.refs, sorted(a.across))).encode())
    assert digest.hexdigest() == ANNOTATION_REFS_SHA256


def test_each_body_is_indexed_by_point():
    for p in _pinned_programs():
        ap = annotate(p)
        bodies = [(ap.entry, ap.entry_by_point)] + [(proc.body, proc.by_point) for proc in ap.procs]
        for body, by_point in bodies:
            walked = list(walk_statements(body))
            assert sorted(by_point) == list(range(len(walked)))
            assert all(by_point[a.point] is a for a in walked)


# Digest of the call-crossing sets over `_pinned_programs` and generator
# seeds 0..99 with up to six procedures of up to 60 statements: for each
# body, every point whose set of variables living across a later non-tail
# call is not empty, with that set sorted, in point order.
ACROSS_SHA256 = "dcca1c9d1f7b56d4525ce30a05c8f4536e5c526d7d706d022f1206ec91855c7a"


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
    # the fixpoint of deleting dead assignments and dead `if`s
    programs = itertools.chain(
        (generate_program(seed) for seed in range(500)),
        (
            generate_program(seed, max_procs=0, max_stmts=3000, pressure_vars=32)
            for seed in range(3)
        ),
    )
    dead_total = dead_ifs = 0
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
                    if isinstance(s, If):
                        # a non-tail `if` whose branches hold only dead statements
                        assert not a.tail and a.ends == set()
                        assert all(b.dead for b in (*a.then_body, *a.else_body))
                        dead_ifs += 1
                    else:
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
            assert x.entry_live == y.entry_live and x.read_params == y.read_params
    assert dead_total > 5000 and dead_ifs > 10


def test_annotating_twice_gives_equal_records_with_equal_hashes():
    for seed in range(40):
        p = generate_program(seed)
        first, again = annotate(p), annotate(p)
        bodies = [(first.entry, again.entry)] + [
            (x.body, y.body) for x, y in zip(first.procs, again.procs)
        ]
        for body, twin in bodies:
            pairs = list(zip(walk_statements(body), walk_statements(twin)))
            assert pairs
            for a, b in pairs:
                assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# strong liveness across calls: callees first, unread parameters, dead `if`s

# g never reads w, so f's y only feeds it and the entry's b feeds nothing
FORWARD_CHAIN_SRC = (
    "(letrec ((g (lambda (u w) (set! t (+ u 1)) (return t)))"
    "         (f (lambda (x y) (g x y))))"
    " (set! a (mref 0 0)) (set! b (+ a 7)) (set! r (f a b)) (return r))"
)

# f forwards k to itself only; f calls itself before it is annotated, so
# k still counts as read, and every call passes every argument
SELF_FORWARD_SRC = (
    "(letrec ((f (lambda (n k)"
    "   (if (< n 1) (begin (return 0)) (begin (set! m (- n 1)) (f m k))))))"
    " (set! k (mref 0 0)) (f 3 k))"
)

# a two-procedure cycle, annotated h then e: h never references z at all,
# and drops it; e only forwards k, but h calls e before e is annotated,
# so e is passed every argument, and h therefore k
MUTUAL_SRC = (
    "(letrec ((e (lambda (n k) (if (< n 1) (begin (return n)) (begin (set! m (- n 1)) (h m 5 k)))))"
    "         (h (lambda (n z k) (e n k))))"
    " (set! k (mref 0 0)) (set! r (e 4 k)) (mset! 0 1 r) (return r))"
)

# the `if`s' branches assign only what nothing reads: the inner `if` is
# dead, then the outer one, and c only fed their tests
DEAD_IF_SRC = (
    "(letrec () (set! c (mref 0 0)) (set! d (+ c 1))"
    " (if (< d 3) (begin (set! e 1) (if (= c 0) (begin (set! e 2)) (begin (set! e d))))"
    "   (begin (set! e 3)))"
    " (return 0))"
)


def test_forwarded_parameter_of_an_acyclic_chain_is_read_nowhere():
    ap = _check_program_against_oracle(parse(FORWARD_CHAIN_SRC))
    g, f = ap.procs
    assert (g.read_params, f.read_params) == (("u",), ("x",))
    assert f.body[0].passed == ("x",) and f.body[0].refs == ["g", "x"]
    assert "y" not in f.entry_live
    _, b, call, _ = ap.entry
    assert call.passed == ("a",) and call.ends == {"f", "a"}
    assert b.dead  # it only fed y


def test_a_procedure_called_before_it_is_annotated_is_passed_every_argument():
    ap = _check_program_against_oracle(parse(SELF_FORWARD_SRC))
    (f,) = ap.procs
    assert f.read_params == f.params
    assert all(a.passed == a.stmt.args for a in [*ap.entry_calls, *f.calls])
    ap = _check_program_against_oracle(parse(MUTUAL_SRC))
    e, h = ap.procs
    assert ap.order == ("h", "e")
    assert (e.read_params, h.read_params) == (("n", "k"), ("n", "k"))
    assert h.calls[0].passed == ("n", "k")
    # the 5 bound for z goes nowhere
    (tail,) = e.calls
    assert tail.passed == ("m", "k") and tail.refs == ["h", "m", "k"]
    assert not any(a.dead for a in ap.entry)


@pytest.mark.parametrize("src", [CYCLE3_SRC, DIAMOND_SRC], ids=["3-cycle", "diamond"])
def test_cycles_match_the_path_oracle(src):
    ap = _check_program_against_oracle(parse(src))
    # only a is called before it is annotated
    assert [proc.read_params == proc.params for proc in ap.procs] == [True, False, False]


def test_a_long_call_chain_annotates_without_recursion():
    # p0 calls p1, ..., p2998 calls p2999: the walk runs 3,000 calls deep
    n = 3000
    procs = [f"(p{i} (lambda (x y) (p{i + 1} x y)))" for i in range(n - 1)]
    procs.append(f"(p{n - 1} (lambda (x y) (return x)))")
    _, ap = load_program(f"(letrec ({' '.join(procs)}) (set! r (p0 1 2)) (return r))")
    assert ap.order == tuple(f"p{i}" for i in reversed(range(n)))
    assert all(proc.read_params == ("x",) for proc in ap.procs)
    assert ap.entry_calls[0].passed == (1,)


def test_procedures_are_annotated_callees_first():
    # a later callee still tells its earlier caller what it reads
    ap = annotate(parse(FORWARD_CHAIN_SRC))
    assert [proc.name for proc in ap.procs] == ["g", "f"]
    swapped = parse(
        "(letrec ((f (lambda (x y) (g x y)))"
        "         (g (lambda (u w) (set! t (+ u 1)) (return t))))"
        " (set! a (mref 0 0)) (set! b (+ a 7)) (set! r (f a b)) (return r))"
    )
    assert validate(swapped) == []
    f, g = _check_program_against_oracle(swapped).procs
    assert (f.read_params, g.read_params) == (("x",), ("u",))


def test_dead_ifs_are_found_in_the_same_walk():
    ap = annotate(parse(DEAD_IF_SRC))
    _check_against_oracle(ap.entry, {})
    c, d, outer, ret = ap.entry
    inner = outer.then_body[1]
    assert outer.dead and inner.dead and d.dead and outer.ends == set()
    assert not c.dead  # an `mref` can fault
    assert "c" in c.ends and ret.ends == set()
    # a fragment marks nothing dead
    assert not any(a.dead for a in walk_statements(annotate_statements(parse(DEAD_IF_SRC).body)))


def test_generated_dead_ifs_match_the_path_oracle():
    found = 0
    for seed in range(500):
        p = generate_program(seed)
        ap = annotate(p)
        bodies = [ap.entry] + [proc.body for proc in ap.procs]
        if any(a.dead and isinstance(a.stmt, If) for body in bodies for a in walk_statements(body)):
            _check_program_against_oracle(p)
            found += 1
    assert found > 10


# callers come before their callees in the source; even and odd form a
# recursive group, and fib calls itself
CALL_ORDER_SRC = """
(letrec ((w (lambda (k) (set! f (fib k)) (set! r (+ f k)) (return r)))
         (even (lambda (n) (if (= n 0) (begin (return 1)) (begin (set! m (- n 1)) (odd m)))))
         (odd (lambda (n) (if (= n 0) (begin (return 0)) (begin (set! m (- n 1)) (even m)))))
         (inc (lambda (a) (set! b (+ a 1)) (return b)))
         (fib (lambda (n)
           (if (< n 2)
             (begin (return n))
             (begin (set! m (- n 1)) (set! a (fib m)) (set! k (- n 2)) (set! b (fib k))
                    (set! r (+ a b)) (return r))))))
  (set! x (w 5)) (set! y (even x)) (set! z (inc y)) (return z))
"""


def test_annotate_records_the_callees_first_order():
    _, ap = load_program(CALL_ORDER_SRC)
    assert [proc.name for proc in ap.procs] == ["w", "even", "odd", "inc", "fib"]
    assert ap.order == ("fib", "w", "odd", "even", "inc")
    # fib and even are called before they are annotated
    assert [proc.read_params for proc in ap.procs] == [("k",), ("n",), ("n",), ("a",), ("n",)]
    # generated call graphs have no cycles; a procedure calls only earlier ones
    for seed in range(50):
        ap = annotate(generate_program(seed))
        assert ap.order == tuple(proc.name for proc in ap.procs)

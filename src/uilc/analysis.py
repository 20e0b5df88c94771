"""Backward liveness analysis: live-range endings and next-use positions.

One backward walk per procedure body annotates every statement with the
set of variables whose live range ends there, the point where each
variable live after it is referenced next, the variables that live
across a later non-tail call before they are assigned again, and whether
it is in tail position.  Over whole bodies the liveness is strong: a
pure assignment whose destination is never read is marked `dead`, and
its operands do not become live through it, so an assignment read only
by dead ones (a faint one) is dead too.  An `if` whose branches hold
only dead statements is dead as well, and its test reads nothing.
Bodies have no loops, so the one walk finds every such statement.

The strong liveness crosses calls.  Procedures are annotated callees
first, in a depth-first post-order of the call graph, and a procedure's
read parameters are those live on entry to its body.  A call to an
annotated callee passes only the arguments of its read parameters (the
call's `passed` operands); any other argument is no reference of the
call, so an assignment that only feeds it is dead in the same walk.  A
callee not yet annotated when its caller is (the caller itself, or one
still on the walk's stack: the two lie on a cycle of calls) is passed
every argument, and is then *called early*: every parameter of it counts
as read.  Every other procedure, on a cycle or not, keeps the parameters
live on entry, so no fixpoint is needed.  The callees-first order
(``AnnotatedProgram.order``) is recorded for the allocator, which runs
in the same order.

Points are pre-order, branches then-before-else; the walk hands them out
from the end of the body down, and enters each statement in its body's
point index (``AnnotatedProc.by_point``, ``AnnotatedProgram.entry_by_point``)
as it builds it, and each call in its body's call list (``calls``,
``entry_calls``), so a later stage reaches the statement a next use names,
or a body's calls, without a walk of its own.  A statement's live set is
the key set of its next-use map, the map the walk already holds, so no
statement copies it.  No interference graph is built.  UIL has no loop
form, so branch joins need no fixpoint iteration.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import field

from ._gc import gc_paused
from ._record import record
from .uil import (
    Assign,
    BinExpr,
    Call,
    Definition,
    If,
    MemRead,
    MemWrite,
    Operand,
    Program,
    Statement,
    count_statements,
)

INF = math.inf


@record
class AnnotatedStatement:
    stmt: Statement
    point: int
    ends: frozenset[str]
    # The next reference of each variable live after this statement (for
    # an If: entering either branch, which is what the registers hold at
    # its test): the first point after `point` that reads the value on
    # some path.  An absent variable is dead, so the keys are the live
    # set.  The annotator shares these dicts between statements: never
    # mutate one.
    next_uses: dict[str, float] = field(compare=False)
    # Nothing in the frame runs after this statement: a call here is a
    # tail call, and an If here has no join.
    tail: bool
    # the variables the statement reads, for the stages that read them; a
    # call's lists its callee name first, then only the variables it passes
    refs: list[str] = field(compare=False)
    # Variables live across a later non-tail call before they are assigned
    # again, after this statement (for an If: on entry to either branch).
    across: frozenset[str] = field(compare=False)
    then_body: tuple["AnnotatedStatement", ...] = ()
    else_body: tuple["AnnotatedStatement", ...] = ()
    # live sets on entry to each branch; a variable used in only one
    # branch has no statement to carry its ending on the other path
    then_live: frozenset[str] = frozenset()
    else_live: frozenset[str] = frozenset()
    # a pure assignment nothing reads (`ends` is its destination alone), or
    # an `if` whose branches hold only dead statements (`ends` is empty):
    # it emits nothing, and its operands are not live through it
    dead: bool = False
    # for a call: the arguments it passes, in order, those bound for the
    # parameters the callee reads; `refs` lists the callee and their variables
    passed: tuple[Operand, ...] = ()


@record
class AnnotatedProc:
    name: str
    params: tuple[str, ...]
    body: tuple[AnnotatedStatement, ...]
    # point -> the statement of `body` (branches included) at that point
    by_point: dict[int, AnnotatedStatement] = field(compare=False, repr=False)
    # the calls of `body` (branches included), tail calls too
    calls: tuple[AnnotatedStatement, ...] = field(compare=False, repr=False)
    # parameters never referenced at all have no ending to record
    entry_live: frozenset[str]
    # the parameters a caller passes, in order: those in `entry_live`, or
    # every one for a procedure called before it was annotated
    read_params: tuple[str, ...]


@record
class AnnotatedProgram:
    entry: tuple[AnnotatedStatement, ...]
    # point -> the statement of `entry` (branches included) at that point
    entry_by_point: dict[int, AnnotatedStatement] = field(compare=False, repr=False)
    # the calls of `entry` (branches included), tail calls too
    entry_calls: tuple[AnnotatedStatement, ...] = field(compare=False, repr=False)
    procs: tuple[AnnotatedProc, ...]
    # the procedure names callees first (a depth-first post-order of the
    # call graph: a procedure comes after each callee that does not reach
    # back to it); `procs` keeps source order
    order: tuple[str, ...]


def _annotate_body(
    body: tuple[Statement, ...],
    end: int,
    cont: dict[str, float],
    tail: bool,
    across: frozenset[str],
    *,
    strong: bool,
    passes: dict[str, tuple[int, ...]],
    by_point: dict[int, AnnotatedStatement],
    calls: list[AnnotatedStatement],
) -> tuple[tuple[AnnotatedStatement, ...], dict[str, float], frozenset[str], int]:
    """Backward walk; the points of `body` run up to `end` (exclusive) and
    `cont` maps the variables live after it to their next reference.

    Returns the annotated statements, the map holding at body entry, the
    call-crossing set there (`across` holds after the body) and the body's
    first point.  A variable's entry is removed when a definition kills
    it, so the key set of the map is exactly the live set.  `tail` holds
    when nothing in the frame runs after `body`; then its last statement
    is in tail position, and so is the last of each branch of a tail If.
    With `strong`, an assignment whose destination is not live after it,
    and whose right-hand side cannot fault (anything but `mref`), is dead
    and leaves the map as it found it, and so is an If whose branches
    hold only dead statements.  `passes` maps a callee to the positions
    of the arguments its callers pass; a call to any other passes all.
    Each annotated statement is also entered in `by_point` under its point,
    and each call is added to `calls`.
    """
    annotated: list[AnnotatedStatement] = []
    uses = cont  # never mutated: each statement builds its own `before`
    for s in reversed(body):
        kind = type(s)
        if kind is If:
            test = s.test
            refs = [v for v in (test.a, test.b) if type(v) is str]
            # pre-order: the If, its then branch, its else branch
            else_body, else_uses, else_across, end = _annotate_body(
                s.else_body, end, uses, tail, across, strong=strong, passes=passes,
                by_point=by_point, calls=calls,
            )
            then_body, then_uses, then_across, end = _annotate_body(
                s.then_body, end, uses, tail, across, strong=strong, passes=passes,
                by_point=by_point, calls=calls,
            )
            end -= 1
            # a dead statement leaves the map as it found it, and any other
            # builds a new one: a branch that hands back `uses` itself holds
            # only dead statements
            if strong and then_uses is uses and else_uses is uses:
                # the identity on machine state: the branches left `across`
                # as they found it too, and the test reads nothing
                live = frozenset(uses)
                a = by_point[end] = AnnotatedStatement(
                    s, end, frozenset(), uses, tail, refs, across,
                    then_body, else_body, live, live, dead=True,
                )
                annotated.append(a)
                tail = False
                continue
            across = then_across | else_across
            after = _merge_min(then_uses, else_uses)
            before = dict(after)
            ends = frozenset([v for v in refs if v not in after])
            a = by_point[end] = AnnotatedStatement(
                s,
                end,
                ends,
                after,
                tail,
                refs,
                across,
                then_body,
                else_body,
                frozenset(then_uses),
                frozenset(else_uses),
            )
            annotated.append(a)
            for v in refs:
                before[v] = end
        else:
            # what the statement reads and the variable it defines, if any,
            # read off each kind's own fields
            dst = None
            if kind is Assign:
                dst = s.dst
                rhs = s.rhs
                rhs_kind = type(rhs)
                if rhs_kind is BinExpr:
                    refs = [v for v in (rhs.a, rhs.b) if type(v) is str]
                elif rhs_kind is str:
                    refs = [rhs]
                elif rhs_kind is MemRead:
                    refs = [v for v in (rhs.base, rhs.index) if type(v) is str]
                else:
                    refs = []
                if strong and dst not in uses and rhs_kind is not MemRead:
                    end -= 1
                    a = by_point[end] = AnnotatedStatement(
                        s, end, frozenset((dst,)), uses, tail, refs, across, dead=True,
                    )
                    annotated.append(a)
                    tail = False
                    continue
            elif kind is Call:
                keep = passes.get(s.callee)
                passed = s.args if keep is None else tuple([s.args[i] for i in keep])
                refs = [s.callee, *[v for v in passed if type(v) is str]]
                dst = s.dst
            elif kind is MemWrite:
                refs = [v for v in (s.base, s.index, s.src) if type(v) is str]
            else:
                refs = [s.value] if type(s.value) is str else []
            end -= 1
            before = dict(uses)
            # a live definition starts a new value; a dead one is in neither
            # `uses` nor `across`, and None is no variable
            if dst in uses:
                del before[dst]
            # Endings: live into the statement (or defined by it) but not
            # live after it.  A dead definition ends immediately.  Every
            # entry already in `before` is a later point: `end` is the minimum.
            ends = []
            for v in refs:
                if v not in uses:
                    ends.append(v)
                before[v] = end
            if dst is not None and dst not in uses:
                ends.append(dst)
            if kind is Call:
                a = AnnotatedStatement(
                    s, end, frozenset(ends), uses, tail, refs, across, passed=passed,
                )
                calls.append(a)
                # what lives after a non-tail call lives across it
                if not tail:
                    across = across.union(uses.keys())
            else:
                a = AnnotatedStatement(s, end, frozenset(ends), uses, tail, refs, across)
            by_point[end] = a
            annotated.append(a)
            if dst in across:
                across = across - {dst}
        uses = before
        tail = False
    annotated.reverse()
    return tuple(annotated), uses, across, end


def _merge_min(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    merged = dict(a)
    for v, q in b.items():
        if q < merged.get(v, INF):
            merged[v] = q
    return merged


@gc_paused
def annotate(p: Program) -> AnnotatedProgram:
    """Annotate a validated program with ending sets, next uses, tails,
    dead statements, read parameters and passed arguments.

    Procedures are annotated callees first (`_callees_first`), so that
    each call knows which arguments its callee reads; that order is
    recorded as `order` (the allocator runs in it too), and `procs` keeps
    source order.  A procedure called before it was annotated reads every
    parameter.  Each procedure body (and the entry body) is numbered
    independently in pre-order, branches then-before-else, and ends its
    frame.  Pauses the cyclic garbage collector while it runs
    (`_gc.gc_paused`).
    """
    # callee -> positions of the arguments a call passes, recorded as each
    # procedure is annotated; a callee not yet annotated is absent, so its
    # callers pass it every argument, and it is called early
    passes: dict[str, tuple[int, ...]] = {}
    early: set[str] = set()
    procs: dict[str, AnnotatedProc] = {}
    for d, size in _callees_first(p.definitions):
        body, by_point, calls, entry_uses = _annotate_sequence(d.body, size, True, passes)
        early.update([a.stmt.callee for a in calls if a.stmt.callee not in passes])
        read = d.params if d.name in early else tuple([v for v in d.params if v in entry_uses])
        procs[d.name] = AnnotatedProc(
            d.name, d.params, body, by_point, calls, frozenset(entry_uses), read
        )
        passes[d.name] = tuple([i for i, v in enumerate(d.params) if v in read])
    entry, by_point, calls, _ = _annotate_sequence(p.body, count_statements(p.body), True, passes)
    return AnnotatedProgram(
        entry, by_point, calls, tuple([procs[d.name] for d in p.definitions]), tuple(procs)
    )


def _scan(body: tuple[Statement, ...], callees: dict[str, None]) -> int:
    """`count_statements(body)`, collecting the procedures `body` calls
    into `callees` on the way, in order of first call."""
    n = len(body)
    for s in body:
        if type(s) is Call:
            callees[s.callee] = None
        elif type(s) is If:
            n += _scan(s.then_body, callees) + _scan(s.else_body, callees)
    return n


def _callees_first(definitions) -> Iterator[tuple[Definition, int]]:
    """Each definition with its statement count, callees first: a
    depth-first post-order of the call graph, roots in source order and
    callees in order of first call.

    A procedure comes after every callee but one still on the walk's
    stack, which reaches back to it.  An undefined callee is passed over
    (`validate` reports it).  The walk keeps its own stack, so a long
    chain of calls cannot exhaust Python's.
    """
    calls: dict[str, tuple[Definition, int, dict[str, None]]] = {}
    for d in definitions:
        callees: dict[str, None] = {}
        calls[d.name] = (d, _scan(d.body, callees), callees)
    seen: set[str] = set()
    for root in calls:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(calls[root][2]))]
        while work:
            v, callees = work[-1]
            for w in callees:
                if w not in seen and w in calls:
                    seen.add(w)
                    work.append((w, iter(calls[w][2])))
                    break
            else:
                work.pop()
                d, size, _ = calls[v]
                yield d, size


def annotate_statements(stmts: tuple[Statement, ...]) -> tuple[AnnotatedStatement, ...]:
    """Annotate a bare statement sequence (a body fragment); none is tail,
    and none is dead: what runs after a fragment is unknown.  Its calls
    pass every argument."""
    return _annotate_sequence(stmts, count_statements(stmts), False, {})[0]


def _annotate_sequence(stmts: tuple[Statement, ...], size: int, whole: bool, passes):
    """Annotate a body of `size` statements numbered from point 0; a
    `whole` body ends its frame, so its last statement is tail and its
    liveness strong.

    Returns the annotated body, its point -> statement index, its calls
    and the map live on entry.
    """
    by_point: dict[int, AnnotatedStatement] = {}
    calls: list[AnnotatedStatement] = []
    body, entry_uses, _, _ = _annotate_body(
        stmts, size, {}, whole, frozenset(), strong=whole, passes=passes, by_point=by_point,
        calls=calls,
    )
    return body, by_point, tuple(calls), entry_uses


def walk_statements(body: tuple[AnnotatedStatement, ...]):
    """Iterate annotated statements in pre-order, branches included."""
    for a in body:
        yield a
        yield from walk_statements(a.then_body)
        yield from walk_statements(a.else_body)

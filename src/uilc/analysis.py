"""Backward liveness analysis: live-range endings and next-use positions.

One backward sweep per procedure body annotates every statement with the
set of variables whose live range ends there and with the point where
each variable live after it is referenced next.  A forward numbering
pass marks the statements in tail position.  No interference graph is
built.  UIL has no loop form, so branch joins need no fixpoint iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._gc import gc_paused
from .uil import Call, If, Program, Statement, _fmt_statement, variables

INF = math.inf


@dataclass(frozen=True)
class AnnotatedStatement:
    stmt: Statement
    point: int
    ends: frozenset[str]
    # Variables referenced (before redefinition) strictly after this
    # statement, on some path.  For an If this is join liveness.
    live_after: frozenset[str]
    # The next reference of each variable live after this statement (for
    # an If: entering either branch): the first point after `point` that
    # reads the value on some path.  An absent variable is dead.  The
    # annotator shares these dicts between statements: never mutate one.
    next_uses: dict[str, float] = field(compare=False)
    # Nothing in the frame runs after this statement: a call here is a
    # tail call, and an If here has no join.
    tail: bool
    then_body: tuple["AnnotatedStatement", ...] = ()
    else_body: tuple["AnnotatedStatement", ...] = ()
    # live sets on entry to each branch; a variable used in only one
    # branch has no statement to carry its ending on the other path
    then_live: frozenset[str] = frozenset()
    else_live: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AnnotatedProc:
    name: str
    params: tuple[str, ...]
    body: tuple[AnnotatedStatement, ...]
    # parameters never referenced at all have no ending to record
    entry_live: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AnnotatedProgram:
    program: Program
    entry: tuple[AnnotatedStatement, ...]
    procs: tuple[AnnotatedProc, ...] = ()


def stmt_refs(s: Statement) -> list[str]:
    """Variables (and callee names) referenced by a statement itself."""
    refs = variables(s.operands())
    # The callee name counts as a reference and shows up in ending sets.
    return [s.callee, *refs] if type(s) is Call else refs


def _number(stmts: tuple[Statement, ...], counter: list[int], tail: bool) -> list:
    """Pre-order numbering skeleton: (stmt, point, tail, then_skel, else_skel).

    `tail` holds when nothing in the frame runs after `stmts`; then the
    last statement is in tail position, and so is the last of each branch
    of a tail If.
    """
    skeleton = []
    last = len(stmts) - 1
    for i, s in enumerate(stmts):
        point = counter[0]
        counter[0] += 1
        is_tail = tail and i == last
        if isinstance(s, If):
            then_skel = _number(s.then_body, counter, is_tail)
            else_skel = _number(s.else_body, counter, is_tail)
            skeleton.append((s, point, is_tail, then_skel, else_skel))
        else:
            skeleton.append((s, point, is_tail, None, None))
    return skeleton


def _annotate_body(
    skeleton: list, cont: dict[str, float]
) -> tuple[tuple[AnnotatedStatement, ...], dict[str, float]]:
    """Backward walk; `cont` maps live variables to their next reference.

    Returns the annotated statements and the map holding at body entry.
    A variable's entry is removed when a definition kills it, so the key
    set of the map is exactly the live set.
    """
    annotated: list[AnnotatedStatement] = []
    uses = cont  # never mutated: each statement builds its own `before`
    for s, point, tail, then_skel, else_skel in reversed(skeleton):
        if isinstance(s, If):
            then_body, then_uses = _annotate_body(then_skel, uses)
            else_body, else_uses = _annotate_body(else_skel, uses)
            after = _merge_min(then_uses, else_uses)
            live_after = frozenset(uses)  # join liveness
            refs = stmt_refs(s)
            before = dict(after)
            for v in refs:
                before[v] = min(before.get(v, INF), point)
            ends = frozenset(refs).difference(after)
            annotated.append(
                AnnotatedStatement(
                    s,
                    point,
                    ends,
                    live_after,
                    after,
                    tail,
                    tuple(then_body),
                    tuple(else_body),
                    frozenset(then_uses),
                    frozenset(else_uses),
                )
            )
            uses = before
        else:
            live_after = frozenset(uses)
            before = dict(uses)
            defs = s.defs()
            refs = stmt_refs(s)
            for v in defs:
                before.pop(v, None)
            for v in refs:
                before[v] = min(before.get(v, INF), point)
            # Endings: live into the statement (or defined by it) but not
            # live after it, which is (refs | defs) - live_after.  A dead
            # definition ends immediately.
            ends = frozenset(refs).union(defs) - live_after
            annotated.append(AnnotatedStatement(s, point, ends, live_after, uses, tail))
            uses = before
    annotated.reverse()
    return tuple(annotated), uses


def _merge_min(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    merged = dict(a)
    for v, q in b.items():
        merged[v] = min(merged.get(v, INF), q)
    return merged


@gc_paused
def annotate(p: Program) -> AnnotatedProgram:
    """Annotate a validated program with ending sets, next uses and tails.

    Each procedure body (and the entry body) is numbered independently in
    pre-order, branches then-before-else, and ends its frame.  Pauses the
    cyclic garbage collector while it runs (`_gc.gc_paused`).
    """
    procs = []
    for d in p.definitions:
        body, entry_uses = _annotate_sequence(d.body, tail=True)
        procs.append(AnnotatedProc(d.name, d.params, body, frozenset(entry_uses)))
    entry, _ = _annotate_sequence(p.body, tail=True)
    return AnnotatedProgram(p, entry, tuple(procs))


def annotate_statements(stmts: tuple[Statement, ...]) -> tuple[AnnotatedStatement, ...]:
    """Annotate a bare statement sequence (a body fragment); none is tail."""
    return _annotate_sequence(stmts, tail=False)[0]


def _annotate_sequence(stmts: tuple[Statement, ...], tail: bool):
    """Number a body from point 0 and annotate it.

    Returns the annotated body and the map live on entry.
    """
    return _annotate_body(_number(stmts, [0], tail), {})


def _fmt_ends(ends: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(ends)) + "}"


def dump_annotated(body: tuple[AnnotatedStatement, ...], indent: int = 0) -> str:
    """Debug listing: each statement suffixed with its ending set."""
    lines: list[str] = []
    _dump_into(body, indent, lines)
    return "\n".join(lines)


def _dump_into(body, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for a in body:
        if isinstance(a.stmt, If):
            t = a.stmt.test
            lines.append(f"{pad}(if ({t.rel} {t.a} {t.b}), {_fmt_ends(a.ends)}")
            lines.append(f"{pad}  then:")
            _dump_into(a.then_body, indent + 2, lines)
            lines.append(f"{pad}  else:")
            _dump_into(a.else_body, indent + 2, lines)
        else:
            buf: list[str] = []
            _fmt_statement(a.stmt, 0, buf)
            lines.append(f"{pad}{buf[0]}, {_fmt_ends(a.ends)}")


def walk_statements(body: tuple[AnnotatedStatement, ...]):
    """Iterate annotated statements in pre-order, branches included."""
    for a in body:
        yield a
        yield from walk_statements(a.then_body)
        yield from walk_statements(a.else_body)

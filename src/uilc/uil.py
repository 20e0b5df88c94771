"""UIL abstract syntax, concrete text format, parser, printer, and validator.

UIL is a first-order statement language: a program is a `letrec` of
fixed-arity procedures over flat statements (assignments, memory reads
and writes, two-way branches, calls, and value returns).  The concrete
syntax is parenthesized prefix form; comments run from `;` to end of
line.

The syntax nodes are frozen records (`_record.record`).  `parse` reads
the text in one pass into nested lists of token matches, then builds the
nodes; positions are counted only for statements and definitions, and
for whatever a `ParseError` names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ._gc import gc_paused
from ._record import record

Operand = str | int  # identifier or signed 64-bit immediate

WORD_MIN = -(1 << 63)
WORD_MAX = (1 << 63) - 1

BINOPS = ("+", "-", "*")
RELATIONS = ("<", "<=", "=", ">=", ">")

RESERVED_NAME = "RET"
KEYWORDS = frozenset(
    {"letrec", "lambda", "set!", "mset!", "mref", "if", "begin", "return"}
)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_?!-]*$")
_INT_RE = re.compile(r"^-?[0-9]+$")
# a register in the assembly: `jmp r1` reads back as a jump through r1, so
# no procedure (whose name is its label) may be named so
_REGISTER_RE = re.compile(r"^r[0-9]+$")

Pos = tuple[int, int]  # (line, column), 1-based

# Deepest parenthesis nesting the reader accepts.  Every later stage
# recurses on nested `if`s, and this keeps them all well inside the
# interpreter's default recursion limit.
MAX_DEPTH = 200


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@record
class BinExpr:
    op: str
    a: Operand
    b: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.a, self.b)


@record
class MemRead:
    base: Operand
    index: Operand

    def operands(self) -> tuple[Operand, ...]:
        return (self.base, self.index)


Rhs = BinExpr | MemRead | Operand


@record
class Cmp:
    rel: str
    a: Operand
    b: Operand


# Every statement answers operands(): each operand it reads, immediates
# included, in evaluation order; and defs(): the variables it assigns.
@record
class Assign:
    dst: str
    rhs: Rhs
    pos: Pos | None = field(default=None, compare=False)

    def operands(self) -> tuple[Operand, ...]:
        rhs = self.rhs
        return rhs.operands() if isinstance(rhs, (BinExpr, MemRead)) else (rhs,)

    def defs(self) -> tuple[str, ...]:
        return (self.dst,)


@record
class MemWrite:
    base: Operand
    index: Operand
    src: Operand
    pos: Pos | None = field(default=None, compare=False)

    def operands(self) -> tuple[Operand, ...]:
        return (self.base, self.index, self.src)

    def defs(self) -> tuple[str, ...]:
        return ()


@record
class If:
    test: Cmp
    then_body: tuple["Statement", ...]
    else_body: tuple["Statement", ...]
    pos: Pos | None = field(default=None, compare=False)

    def operands(self) -> tuple[Operand, ...]:
        return (self.test.a, self.test.b)

    def defs(self) -> tuple[str, ...]:
        return ()


@record
class Call:
    callee: str
    args: tuple[Operand, ...]
    # `(set! x (f a b))` sugar: the call's result is bound to `dst`.
    dst: str | None = None
    pos: Pos | None = field(default=None, compare=False)

    def operands(self) -> tuple[Operand, ...]:
        return self.args

    def defs(self) -> tuple[str, ...]:
        return () if self.dst is None else (self.dst,)


@record
class ReturnValue:
    value: Operand
    pos: Pos | None = field(default=None, compare=False)

    def operands(self) -> tuple[Operand, ...]:
        return (self.value,)

    def defs(self) -> tuple[str, ...]:
        return ()


Statement = Assign | MemWrite | If | Call | ReturnValue


def variables(operands) -> list[str]:
    """The variables among operands, in order; immediates are dropped."""
    return [v for v in operands if type(v) is str]


def count_statements(body: tuple[Statement, ...]) -> int:
    """The number of statements in `body`, branches included."""
    n = len(body)
    for s in body:
        if type(s) is If:
            n += count_statements(s.then_body) + count_statements(s.else_body)
    return n


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[str, ...]
    body: tuple[Statement, ...]
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Program:
    definitions: tuple[Definition, ...]
    body: tuple[Statement, ...]


@dataclass(frozen=True)
class Diagnostic:
    message: str
    pos: Pos | None = None

    def __str__(self) -> str:
        if self.pos is None:
            return self.message
        return f"{self.pos[0]}:{self.pos[1]}: {self.message}"


# ---------------------------------------------------------------------------
# S-expression reader: lists of token matches, no positions


class _Sexpr:
    """List node of the reader.  Its items are `_Sexpr` nodes and atoms; an
    atom is the `_TOKEN_RE` match itself, and a list keeps the match of its
    "(" as `paren`.  No position is counted while reading: a statement's is
    counted by the parser as it goes (`_Parser.pos`), and any other only
    when a diagnostic names it (`_pos`)."""

    __slots__ = ("items", "paren")

    def __init__(self, items: list, paren: re.Match):
        self.items = items
        self.paren = paren


# One match per parenthesis, comment or atom; spaces, tabs, carriage
# returns and newlines match nothing and are skipped.  The group that
# matched tells the kind: 1 "(", 2 ")", 3 an atom; a comment has none.
_TOKEN_RE = re.compile(r"(\()|(\))|;[^\n]*|([^ \t\r\n();]+)")


def _read_all(text: str) -> list:
    """Read the top-level forms in one left-to-right pass."""
    forms: list = []
    items = forms  # the list that receives the next form
    # the item lists of the enclosing lists, innermost last: an open list
    # is the last item of the one it sits in
    enclosing: list[list] = []
    too_deep: _Sexpr | None = None  # the first list opened past MAX_DEPTH
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 3:
            items.append(m)
        elif kind == 1:
            node = _Sexpr([], m)
            items.append(node)
            enclosing.append(items)
            items = node.items
            if len(enclosing) > MAX_DEPTH and too_deep is None:
                too_deep = node
        elif kind == 2:
            if not enclosing:
                raise _err(m, "unexpected ')'")
            items = enclosing.pop()
    if enclosing:
        raise _err(enclosing[-1][-1], "unclosed parenthesis")
    if too_deep is not None:
        raise _err(too_deep, f"nesting deeper than {MAX_DEPTH} parentheses")
    return forms


def _pos(node) -> Pos:
    """The (line, column) of a list node or an atom, counted from the start
    of the text: every character but a newline advances the column by one."""
    if type(node) is _Sexpr:
        node = node.paren
    text, start = node.string, node.start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


# ---------------------------------------------------------------------------
# Parser


def _err(node, message: str) -> ParseError:
    return ParseError(message, *_pos(node))


def _is_list(node, head: str | None = None) -> bool:
    if type(node) is not _Sexpr:
        return False
    if head is None:
        return True
    items = node.items
    return len(items) > 0 and type(items[0]) is not _Sexpr and items[0][0] == head


class _Parser:
    """One call of `parse`.

    ``operands`` maps each atom text met as an operand or identifier to its
    value: the integer of an integer, the text of an identifier.  Each
    distinct text is classified once; one that is neither ends the parse.
    ``line`` is the line of ``text`` that holds offset ``last``, the start
    of the list `pos` counted last, and the line starts at ``line_start``.
    """

    __slots__ = ("operands", "text", "line", "line_start", "last")

    def __init__(self, text: str) -> None:
        self.operands: dict[str, Operand] = {}
        self.text = text
        self.line = 1
        self.line_start = 0
        self.last = 0

    def pos(self, node: _Sexpr) -> Pos:
        """The (line, column) of a statement or definition.  The parser
        meets them in text order, so only the newlines since the one
        counted last are counted."""
        start = node.paren.start()
        text, last = self.text, self.last
        newlines = text.count("\n", last, start)
        if newlines:
            self.line += newlines
            self.line_start = text.rfind("\n", last, start) + 1
        self.last = start
        return self.line, start - self.line_start + 1

    def operand(self, node) -> Operand:
        if type(node) is _Sexpr:
            raise _err(node, "expected an identifier or integer")
        text = node[0]
        value = self.operands.get(text)
        if value is None:
            if _INT_RE.match(text):
                value = int(text)
                if not (WORD_MIN <= value <= WORD_MAX):
                    raise _err(node, f"immediate {text} does not fit a 64-bit word")
            elif _IDENT_RE.match(text) and text not in KEYWORDS:
                value = text
            else:
                raise _err(node, f"bad operand {text!r}")
            self.operands[text] = value
        return value

    def ident(self, node, what: str) -> str:
        if type(node) is _Sexpr:
            raise _err(node, f"expected {what}")
        text = node[0]
        value = self.operands.get(text)
        if value is None:
            if not _IDENT_RE.match(text) or text in KEYWORDS:
                raise _err(node, f"bad {what} {text!r}")
            value = self.operands[text] = text
        elif type(value) is not str:
            raise _err(node, f"bad {what} {text!r}")
        return value

    def call_args(self, items) -> tuple[Operand, ...]:
        operand = self.operand
        return tuple([operand(a) for a in items[1:]])

    def assignment(self, node: _Sexpr, pos: Pos) -> Assign | Call:
        """`(set! dst rhs)`; a call right-hand side binds the call's result."""
        items = node.items
        if len(items) != 3:
            raise _err(node, "'set!' takes a destination and a value")
        dst = self.ident(items[1], "variable")
        rhs = items[2]
        if type(rhs) is not _Sexpr:
            return Assign(dst, self.operand(rhs), pos)
        ritems = rhs.items
        if not ritems:
            raise _err(rhs, "empty expression")
        head = ritems[0]
        if type(head) is _Sexpr:
            raise _err(rhs, "malformed expression")
        op = head[0]
        if op in BINOPS:
            if len(ritems) != 3:
                raise _err(rhs, f"'{op}' takes two operands")
            return Assign(dst, BinExpr(op, self.operand(ritems[1]), self.operand(ritems[2])), pos)
        if op == "mref":
            if len(ritems) != 3:
                raise _err(rhs, "'mref' takes base and index")
            return Assign(dst, MemRead(self.operand(ritems[1]), self.operand(ritems[2])), pos)
        callee = self.ident(head, "procedure name")
        return Call(callee, self.call_args(ritems), dst, pos)

    def body(self, nodes, where) -> tuple[Statement, ...]:
        if not nodes:
            raise _err(where, "empty statement body")
        statement = self.statement
        return tuple([statement(n) for n in nodes])

    def statement(self, node) -> Statement:
        if type(node) is not _Sexpr or not node.items:
            raise _err(node, "expected a statement")
        pos = self.pos(node)
        items = node.items
        head = items[0]
        if type(head) is _Sexpr:
            raise _err(node, "malformed statement")
        kind = head[0]

        if kind == "set!":
            return self.assignment(node, pos)

        if kind == "if":
            if len(items) != 4:
                raise _err(node, "'if' takes a test and two begin blocks")
            test_node = items[1]
            if type(test_node) is not _Sexpr or len(test_node.items) != 3:
                raise _err(node, "'if' test must be (rel a b)")
            rel, a, b = test_node.items
            if type(rel) is _Sexpr or rel[0] not in RELATIONS:
                raise _err(test_node, "unknown relation in test")
            test = Cmp(rel[0], self.operand(a), self.operand(b))
            branches = []
            statement = self.statement
            for branch in items[2:4]:
                if not _is_list(branch, "begin"):
                    raise _err(node, "'if' branches must be (begin ...) blocks")
                branches.append(tuple([statement(s) for s in branch.items[1:]]))
            return If(test, branches[0], branches[1], pos)

        if kind == "return":
            if len(items) != 2:
                raise _err(node, "'return' takes one value")
            return ReturnValue(self.operand(items[1]), pos)

        if kind == "mset!":
            if len(items) != 4:
                raise _err(node, "'mset!' takes base, index, and source")
            operand = self.operand
            return MemWrite(operand(items[1]), operand(items[2]), operand(items[3]), pos)

        if kind in KEYWORDS or kind in BINOPS or kind in RELATIONS:
            raise _err(node, f"'{kind}' is not a statement here")

        callee = self.ident(head, "procedure name")
        return Call(callee, self.call_args(items), None, pos)

    def definition(self, node) -> Definition:
        # ((name (lambda (params...) stmt...)))
        if not _is_list(node) or len(node.items) != 2:
            raise _err(node, "definition must be (name (lambda (params...) stmt...))")
        pos = self.pos(node)
        name = self.ident(node.items[0], "procedure name")
        lam = node.items[1]
        if not _is_list(lam, "lambda") or len(lam.items) < 3:
            raise _err(node, "definition body must be a lambda with statements")
        params_node = lam.items[1]
        if not _is_list(params_node):
            raise _err(lam, "lambda parameter list must be parenthesized")
        params = tuple([self.ident(p, "parameter") for p in params_node.items])
        body = self.body(lam.items[2:], lam)
        return Definition(name, params, body, pos)


@gc_paused
def parse(text: str) -> Program:
    """Parse concrete UIL text into a Program.

    Raises ParseError with line/column on malformed input.  Each statement
    and definition carries its (line, column) as `pos`.  Pauses the cyclic
    garbage collector while it runs (`_gc.gc_paused`).
    """
    forms = _read_all(text)
    if len(forms) != 1:
        if not forms:
            raise ParseError("empty input", 1, 1)
        raise _err(forms[1], "expected a single (letrec ...) form")
    top = forms[0]
    if not _is_list(top, "letrec") or len(top.items) < 2:
        line, col = _pos(top) if type(top) is _Sexpr else (1, 1)
        raise ParseError("program must be (letrec (definitions...) stmt...)", line, col)
    defs_node = top.items[1]
    if not _is_list(defs_node):
        raise _err(top, "letrec definitions must be parenthesized")
    parser = _Parser(text)
    definitions = tuple([parser.definition(d) for d in defs_node.items])
    seen = set()
    for d in definitions:
        if d.name in seen:
            raise ParseError(f"duplicate definition of '{d.name}'", d.pos[0], d.pos[1])
        seen.add(d.name)
    body = parser.body(top.items[2:], top)
    return Program(definitions, body)


# ---------------------------------------------------------------------------
# Pretty printer (canonical form: one statement per line, two-space indent)


def statement_line(s: Statement) -> str:
    """The first line of `s`'s canonical text: an `if`'s holds its test."""
    if isinstance(s, Assign):
        rhs = s.rhs
        if isinstance(rhs, BinExpr):
            rhs = f"({rhs.op} {rhs.a} {rhs.b})"
        elif isinstance(rhs, MemRead):
            rhs = f"(mref {rhs.base} {rhs.index})"
        return f"(set! {s.dst} {rhs})"
    if isinstance(s, MemWrite):
        return f"(mset! {s.base} {s.index} {s.src})"
    if isinstance(s, If):
        t = s.test
        return f"(if ({t.rel} {t.a} {t.b})"
    if isinstance(s, Call):
        call = f"({s.callee}" + "".join(f" {a}" for a in s.args) + ")"
        return call if s.dst is None else f"(set! {s.dst} {call})"
    if isinstance(s, ReturnValue):
        return f"(return {s.value})"
    raise TypeError(f"unknown statement {s!r}")  # pragma: no cover


def _fmt_statement(s: Statement, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    out.append(pad + statement_line(s))
    if isinstance(s, If):
        out.append(f"{pad}  (begin")
        for sub in s.then_body:
            _fmt_statement(sub, indent + 2, out)
        out[-1] += ")"
        out.append(f"{pad}  (begin")
        for sub in s.else_body:
            _fmt_statement(sub, indent + 2, out)
        out[-1] += "))"


def format_program(p: Program) -> str:
    out: list[str] = []
    if p.definitions:
        out.append("(letrec")
        out.append("  (")
        for d in p.definitions:
            params = " ".join(d.params)
            out.append(f"   ({d.name} (lambda ({params})")
            for s in d.body:
                _fmt_statement(s, 3, out)
            out[-1] += "))"
        out[-1] += ")"
    else:
        out.append("(letrec ()")
    for s in p.body:
        _fmt_statement(s, 1, out)
    out[-1] += ")"
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Validator


def _check_defined(
    v: str, defined: set[str], arities: dict[str, int], pos: Pos | None, diags: list[Diagnostic]
) -> None:
    if v == RESERVED_NAME:
        diags.append(Diagnostic(f"'{RESERVED_NAME}' is a reserved name", pos))
    elif v in arities:
        diags.append(Diagnostic(f"procedure '{v}' used as a value", pos))
    elif v not in defined:
        diags.append(Diagnostic(f"variable '{v}' may be used before assignment", pos))


def _is_tail_form(s: Statement) -> bool:
    if isinstance(s, ReturnValue):
        return True
    if isinstance(s, Call):
        return s.dst is None
    if isinstance(s, If):
        return (
            bool(s.then_body)
            and bool(s.else_body)
            and _is_tail_form(s.then_body[-1])
            and _is_tail_form(s.else_body[-1])
        )
    return False


def _validate_body(
    body: tuple[Statement, ...],
    defined: set[str],
    arities: dict[str, int],
    diags: list[Diagnostic],
    tail: bool,
) -> set[str]:
    """Walk a statement sequence checking defined-before-use on all paths.

    Returns the set of variables definitely assigned after the sequence.
    `defined` (assigned on entry) must be the caller's own fresh set: the
    walk adds to it in place.  `arities` holds every procedure name.  An
    operand that is a defined variable, neither a procedure name nor
    `RET`, draws no diagnostic and skips `_check_defined`.  What only the
    parser checks (operators, relations, immediates) is checked again, and
    an operand that is neither a `str` nor an exact `int` is a bad one.
    """
    last = len(body) - 1
    for idx, s in enumerate(body):
        kind = type(s)
        is_tail = tail and idx == last
        for v in s.operands():
            if type(v) is str:
                if v not in defined or v in arities or v == RESERVED_NAME:
                    _check_defined(v, defined, arities, s.pos, diags)
            elif type(v) is not int:
                diags.append(Diagnostic(f"bad operand {v!r}", s.pos))
            elif not WORD_MIN <= v <= WORD_MAX:
                diags.append(Diagnostic(f"immediate {v} does not fit a 64-bit word", s.pos))
        defs = s.defs()
        for v in defs:
            if v == RESERVED_NAME:
                diags.append(Diagnostic(f"cannot assign reserved name '{RESERVED_NAME}'", s.pos))
            if v in arities:
                diags.append(Diagnostic(f"cannot assign procedure name '{v}'", s.pos))
        if kind is Assign and type(s.rhs) is BinExpr and s.rhs.op not in BINOPS:
            diags.append(Diagnostic(f"unknown operator '{s.rhs.op}'", s.pos))
        elif kind is If:
            if s.test.rel not in RELATIONS:
                diags.append(Diagnostic("unknown relation in test", s.pos))
            if not s.then_body or not s.else_body:
                diags.append(Diagnostic("'if' branches must be nonempty", s.pos))
            then_defined = _validate_body(s.then_body, set(defined), arities, diags, is_tail)
            else_defined = _validate_body(s.else_body, set(defined), arities, diags, is_tail)
            defined = then_defined & else_defined
        elif kind is Call:
            if s.callee not in arities:
                diags.append(Diagnostic(f"call to undefined procedure '{s.callee}'", s.pos))
            elif len(s.args) != arities[s.callee]:
                diags.append(
                    Diagnostic(
                        f"'{s.callee}' takes {arities[s.callee]} argument(s), got {len(s.args)}",
                        s.pos,
                    )
                )
            if s.dst is not None and is_tail:
                diags.append(Diagnostic("result-binding call cannot sit in tail position", s.pos))
        elif kind is ReturnValue:
            if not is_tail:
                diags.append(Diagnostic("return outside tail position", s.pos))
        defined.update(defs)
    return defined


@gc_paused
def validate(p: Program) -> list[Diagnostic]:
    """Check program invariants; an empty list means the program is valid.

    Pauses the cyclic garbage collector while it runs (`_gc.gc_paused`).
    """
    diags: list[Diagnostic] = []
    arities: dict[str, int] = {}
    for d in p.definitions:
        if d.name == RESERVED_NAME:
            diags.append(Diagnostic(f"'{RESERVED_NAME}' is a reserved name", d.pos))
        if _REGISTER_RE.match(d.name):
            diags.append(Diagnostic(f"procedure name '{d.name}' is a register name", d.pos))
        arities[d.name] = len(d.params)
        if len(set(d.params)) != len(d.params):
            diags.append(Diagnostic(f"duplicate parameter in '{d.name}'", d.pos))
        if RESERVED_NAME in d.params:
            diags.append(Diagnostic(f"'{RESERVED_NAME}' is a reserved name", d.pos))

    for d in p.definitions:
        # a call names its callee, so a parameter would read as live
        for v in d.params:
            if v in arities:
                diags.append(
                    Diagnostic(f"parameter '{v}' of '{d.name}' is a procedure name", d.pos)
                )
        if not d.body:
            diags.append(Diagnostic(f"procedure '{d.name}' has an empty body", d.pos))
            continue
        if not _is_tail_form(d.body[-1]):
            diags.append(
                Diagnostic(f"procedure '{d.name}' must end in a return or tail call", d.pos)
            )
        _validate_body(d.body, set(d.params), arities, diags, tail=True)

    if not p.body:
        diags.append(Diagnostic("program body is empty", None))
    else:
        if not _is_tail_form(p.body[-1]):
            diags.append(
                Diagnostic("program body must end in a return or tail call", p.body[-1].pos)
            )
        _validate_body(p.body, set(), arities, diags, tail=True)
    return diags

"""UIL abstract syntax, concrete text format, parser, printer, and validator.

UIL is a first-order statement language: a program is a `letrec` of
fixed-arity procedures over flat statements (assignments, memory reads
and writes, two-way branches, calls, and value returns).  The concrete
syntax is parenthesized prefix form; comments run from `;` to end of
line.

The syntax nodes are frozen records (`_record.record`).  `parse` reads
the text in one pass into nested lists of atom texts, split at
parentheses, then builds the nodes.  Only space, tab, carriage return and
newline separate atoms.  Positions are counted only for statements and
definitions, and for whatever a `ParseError` names.
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
# S-expression reader: nested lists of atom texts, no positions

# Only space, tab, carriage return and newline separate atoms; a comment
# runs from `;` to the end of its line.  Both rewrites keep every offset.
_COMMENT_RE = re.compile(r";[^\n]*")
_SPACES = str.maketrans("\t\r\n", "   ")
_PAREN_RE = re.compile(r"([()])")
# what may sit between two items: separators and comments
_GAP_RE = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")


def _blank_comment(m: re.Match) -> str:
    return " " * len(m[0])


def _read_all(text: str) -> list:
    """Read the top-level forms in one left-to-right pass.

    A list node is a Python `list`: item 0 is the offset of its "(" in
    `text`, and the items after it are its elements, lists and atoms.  An
    atom is its text, a `str`.  The top level is returned as a list node
    whose "(" sits at offset -1.  The text is split once at parentheses,
    after comments are blanked and tabs, carriage returns and newlines are
    made spaces, so the Python-level work is per parenthesis: the atoms
    between two parentheses are added by one `split(" ")`.  No position is
    counted while reading: a statement's is counted by the parser as it
    goes (`_Parser.pos`), and any other only when a diagnostic names it
    (`_item_offset`)."""
    blank = _COMMENT_RE.sub(_blank_comment, text) if ";" in text else text
    parts = _PAREN_RE.split(blank.translate(_SPACES))
    forms: list = [-1]
    items = forms  # the list that receives the next item
    # the enclosing lists, innermost last: an open list is the last item
    # of the one it sits in
    enclosing: list[list] = []
    too_deep: list | None = None  # the first list opened past MAX_DEPTH
    chunk = parts[0]
    forms.extend(filter(None, chunk.split(" ")))
    offset = len(chunk)  # of the parenthesis that comes next
    paired = iter(parts)
    next(paired)
    for paren, chunk in zip(paired, paired):
        if paren == "(":
            node = [offset]
            items.append(node)
            enclosing.append(items)
            items = node
            if len(enclosing) > MAX_DEPTH and too_deep is None:
                too_deep = node
        elif enclosing:
            items = enclosing.pop()
        else:
            raise ParseError("unexpected ')'", *_pos(text, offset))
        offset += len(chunk) + 1
        if chunk.strip(" "):
            items.extend(filter(None, chunk.split(" ")))
    if enclosing:
        raise ParseError("unclosed parenthesis", *_pos(text, items[0]))
    if too_deep is not None:
        raise ParseError(
            f"nesting deeper than {MAX_DEPTH} parentheses", *_pos(text, too_deep[0])
        )
    return forms


def _item_offset(text: str, node: list, index: int) -> int:
    """The offset in `text` of item `index` of the list node `node`, or of
    its ")" when `index` is `len(node)`.  Found by stepping over the items
    before it, their separators and comments; only a diagnostic needs it."""
    at = node[0] + 1
    for item in node[1:index]:
        at = _GAP_RE.match(text, at).end()
        at = _item_offset(text, item, len(item)) + 1 if type(item) is list else at + len(item)
    return _GAP_RE.match(text, at).end()


def _pos(text: str, offset: int) -> Pos:
    """The (line, column) of `offset`, counted from the start of `text`:
    every character but a newline advances the column by one."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser


def _is_list(node, head: str) -> bool:
    """Whether `node` is a list node whose first element is `head`."""
    return type(node) is list and len(node) > 1 and node[1] == head


class _Parser:
    """One call of `parse`.

    ``operands`` maps each atom text met as an operand or identifier to its
    value: the integer of an integer, the text of an identifier.  Each
    distinct text is classified once; one that is neither ends the parse.
    ``line`` is the line of ``text`` that holds offset ``last``, the start
    of the list `pos` counted last, and the line starts at ``line_start``.
    An item that a diagnostic may name is passed as its list node and its
    index there, since an atom does not know its offset.
    """

    __slots__ = ("operands", "text", "line", "line_start", "last")

    def __init__(self, text: str) -> None:
        self.operands: dict[str, Operand] = {}
        self.text = text
        self.line = 1
        self.line_start = 0
        self.last = 0

    def err(self, node: list, message: str) -> ParseError:
        """The error `message` at the "(" of the list node `node`."""
        return ParseError(message, *_pos(self.text, node[0]))

    def err_at(self, parent: list, i: int, message: str) -> ParseError:
        """The error `message` at item `i` of the list node `parent`."""
        return ParseError(message, *_pos(self.text, _item_offset(self.text, parent, i)))

    def pos(self, node: list) -> Pos:
        """The (line, column) of a statement or definition.  The parser
        meets them in text order, so only the newlines since the one
        counted last are counted."""
        start = node[0]
        text, last = self.text, self.last
        newlines = text.count("\n", last, start)
        if newlines:
            self.line += newlines
            self.line_start = text.rfind("\n", last, start) + 1
        self.last = start
        return self.line, start - self.line_start + 1

    def operand(self, parent: list, i: int) -> Operand:
        text = parent[i]
        if type(text) is list:
            raise self.err(text, "expected an identifier or integer")
        value = self.operands.get(text)
        if value is None:
            if _INT_RE.match(text):
                value = int(text)
                if not (WORD_MIN <= value <= WORD_MAX):
                    raise self.err_at(parent, i, f"immediate {text} does not fit a 64-bit word")
            elif _IDENT_RE.match(text) and text not in KEYWORDS:
                value = text
            else:
                raise self.err_at(parent, i, f"bad operand {text!r}")
            self.operands[text] = value
        return value

    def ident(self, parent: list, i: int, what: str) -> str:
        text = parent[i]
        if type(text) is list:
            raise self.err(text, f"expected {what}")
        value = self.operands.get(text)
        if value is None:
            if not _IDENT_RE.match(text) or text in KEYWORDS:
                raise self.err_at(parent, i, f"bad {what} {text!r}")
            value = self.operands[text] = text
        elif type(value) is not str:
            raise self.err_at(parent, i, f"bad {what} {text!r}")
        return value

    def call_args(self, node: list) -> tuple[Operand, ...]:
        """The operands from item 2 of `node` on, the callee at item 1."""
        operand = self.operand
        return tuple([operand(node, i) for i in range(2, len(node))])

    def assignment(self, node: list, pos: Pos) -> Assign | Call:
        """`(set! dst rhs)`; a call right-hand side binds the call's result."""
        if len(node) != 4:
            raise self.err(node, "'set!' takes a destination and a value")
        dst = self.ident(node, 2, "variable")
        rhs = node[3]
        if type(rhs) is not list:
            return Assign(dst, self.operand(node, 3), pos)
        if len(rhs) == 1:
            raise self.err(rhs, "empty expression")
        op = rhs[1]
        if type(op) is list:
            raise self.err(rhs, "malformed expression")
        if op in BINOPS:
            if len(rhs) != 4:
                raise self.err(rhs, f"'{op}' takes two operands")
            return Assign(dst, BinExpr(op, self.operand(rhs, 2), self.operand(rhs, 3)), pos)
        if op == "mref":
            if len(rhs) != 4:
                raise self.err(rhs, "'mref' takes base and index")
            return Assign(dst, MemRead(self.operand(rhs, 2), self.operand(rhs, 3)), pos)
        callee = self.ident(rhs, 1, "procedure name")
        return Call(callee, self.call_args(rhs), dst, pos)

    def body(self, parent: list, start: int) -> tuple[Statement, ...]:
        """The statements from item `start` of `parent` on."""
        statement = self.statement
        return tuple([statement(parent, i) for i in range(start, len(parent))])

    def statement(self, parent: list, i: int) -> Statement:
        node = parent[i]
        if type(node) is not list or len(node) == 1:
            raise self.err_at(parent, i, "expected a statement")
        pos = self.pos(node)
        kind = node[1]
        if type(kind) is list:
            raise self.err(node, "malformed statement")

        if kind == "set!":
            return self.assignment(node, pos)

        if kind == "if":
            if len(node) != 5:
                raise self.err(node, "'if' takes a test and two begin blocks")
            test = node[2]
            if type(test) is not list or len(test) != 4:
                raise self.err(node, "'if' test must be (rel a b)")
            rel = test[1]
            if type(rel) is list or rel not in RELATIONS:
                raise self.err(test, "unknown relation in test")
            cmp = Cmp(rel, self.operand(test, 2), self.operand(test, 3))
            branches = []
            for branch in node[3:5]:
                if not _is_list(branch, "begin"):
                    raise self.err(node, "'if' branches must be (begin ...) blocks")
                branches.append(self.body(branch, 2))
            return If(cmp, branches[0], branches[1], pos)

        if kind == "return":
            if len(node) != 3:
                raise self.err(node, "'return' takes one value")
            return ReturnValue(self.operand(node, 2), pos)

        if kind == "mset!":
            if len(node) != 5:
                raise self.err(node, "'mset!' takes base, index, and source")
            operand = self.operand
            return MemWrite(operand(node, 2), operand(node, 3), operand(node, 4), pos)

        if kind in KEYWORDS or kind in BINOPS or kind in RELATIONS:
            raise self.err(node, f"'{kind}' is not a statement here")

        callee = self.ident(node, 1, "procedure name")
        return Call(callee, self.call_args(node), None, pos)

    def definition(self, parent: list, i: int) -> Definition:
        # ((name (lambda (params...) stmt...)))
        node = parent[i]
        if type(node) is not list or len(node) != 3:
            raise self.err_at(parent, i, "definition must be (name (lambda (params...) stmt...))")
        pos = self.pos(node)
        name = self.ident(node, 1, "procedure name")
        lam = node[2]
        if not _is_list(lam, "lambda") or len(lam) < 4:
            raise self.err(node, "definition body must be a lambda with statements")
        params_node = lam[2]
        if type(params_node) is not list:
            raise self.err(lam, "lambda parameter list must be parenthesized")
        params = tuple([self.ident(params_node, k, "parameter") for k in range(1, len(params_node))])
        return Definition(name, params, self.body(lam, 3), pos)


@gc_paused
def parse(text: str) -> Program:
    """Parse concrete UIL text into a Program.

    Raises ParseError with line/column on malformed input.  Each statement
    and definition carries its (line, column) as `pos`.  Pauses the cyclic
    garbage collector while it runs (`_gc.gc_paused`).
    """
    forms = _read_all(text)
    parser = _Parser(text)
    if len(forms) != 2:
        if len(forms) == 1:
            raise ParseError("empty input", 1, 1)
        raise parser.err_at(forms, 2, "expected a single (letrec ...) form")
    top = forms[1]
    if not _is_list(top, "letrec") or len(top) < 3:
        line, col = _pos(text, top[0]) if type(top) is list else (1, 1)
        raise ParseError("program must be (letrec (definitions...) stmt...)", line, col)
    defs_node = top[2]
    if type(defs_node) is not list:
        raise parser.err(top, "letrec definitions must be parenthesized")
    definitions = tuple([parser.definition(defs_node, i) for i in range(1, len(defs_node))])
    seen = set()
    for d in definitions:
        if d.name in seen:
            raise ParseError(f"duplicate definition of '{d.name}'", d.pos[0], d.pos[1])
        seen.add(d.name)
    if len(top) == 3:
        raise parser.err(top, "empty statement body")
    body = parser.body(top, 3)
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

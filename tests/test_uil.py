import ast
import functools
import hashlib
import random
import re

import pytest

from uilc.allocator import POLICIES, alloc_program
from uilc.analysis import annotate
from uilc.gen import generate_program
from uilc.machine import equivalent
from uilc.model import make_config
from uilc.uil import (
    MAX_DEPTH,
    Assign,
    BinExpr,
    Call,
    Cmp,
    Definition,
    If,
    MemRead,
    MemWrite,
    ParseError,
    Program,
    WORD_MAX,
    WORD_MIN,
    ReturnValue,
    format_program,
    parse,
    validate,
)

from conftest import CHAIN_SRC, nested_ifs


def test_parse_smallest_program():
    p = parse("(letrec () (set! x 0) (return x))")
    assert p.definitions == ()
    assert p.body == (Assign("x", 0), ReturnValue("x"))


def test_parse_four_statement_body():
    p = parse("(letrec () (set! x 0) (set! y (+ x 1)) (set! z (+ y 2)) (f x z))")
    assert len(p.body) == 4
    assert p.body[1] == Assign("y", BinExpr("+", "x", 1))
    assert p.body[3] == Call("f", ("x", "z"))


def test_parse_identity_procedure():
    p = parse("(letrec ((f (lambda (x) (return x)))) (f 1))")
    assert len(p.definitions) == 1
    d = p.definitions[0]
    assert d.name == "f"
    assert d.params == ("x",)
    assert d.body == (ReturnValue("x"),)
    assert p.body == (Call("f", (1,)),)


def test_parse_memory_forms():
    p = parse("(letrec () (set! x (mref 0 1)) (mset! 0 1 x) (return x))")
    assert p.body[0] == Assign("x", MemRead(0, 1))
    assert p.body[1] == MemWrite(0, 1, "x")


def test_parse_if_with_begin_blocks():
    p = parse(
        "(letrec () (set! x 1)"
        " (if (> x 0) (begin (set! y 1)) (begin (set! y 2)))"
        " (return y))"
    )
    s = p.body[1]
    assert isinstance(s, If)
    assert s.test.rel == ">"
    assert s.then_body == (Assign("y", 1),)


def test_parse_call_result_sugar():
    p = parse("(letrec ((f (lambda () (return 1)))) (set! x (f)) (return x))")
    assert p.body[0] == Call("f", (), dst="x")


def test_comments_ignored():
    p = parse("(letrec () ; a program\n (set! x 0) ; define x\n (return x))")
    assert len(p.body) == 2


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("(letrec ()\n  (set! x 0)\n  (set! y))")
    assert exc.value.line == 3


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError):
        parse("(letrec ((f (lambda () (return 1))) (f (lambda () (return 2)))) (f))")


def test_unclosed_paren():
    with pytest.raises(ParseError):
        parse("(letrec () (return 0)")


def test_immediate_must_fit_word():
    with pytest.raises(ParseError):
        parse(f"(letrec () (return {2**63}))")
    parse(f"(letrec () (return {2**63 - 1}))")  # max word is fine


def test_validate_use_before_def():
    p = parse("(letrec () (set! x y) (return x))")
    diags = validate(p)
    assert len(diags) == 1
    assert "y" in diags[0].message


def test_validate_clean_example():
    p = parse(CHAIN_SRC)
    assert validate(p) == []


def test_validate_arity_mismatch():
    p = parse("(letrec ((f (lambda (a b) (return a)))) (f 1))")
    diags = validate(p)
    assert len(diags) == 1
    assert "argument" in diags[0].message


def test_validate_unknown_callee():
    p = parse("(letrec () (g 1))")
    assert any("undefined procedure" in d.message for d in validate(p))


def test_validate_branch_defined_on_one_path_only():
    p = parse(
        "(letrec () (set! c 1)"
        " (if (> c 0) (begin (set! y 1)) (begin (set! z 2)))"
        " (return y))"
    )
    assert any("y" in d.message for d in validate(p))


def test_validate_branch_defined_on_both_paths():
    p = parse(
        "(letrec () (set! c 1)"
        " (if (> c 0) (begin (set! y 1)) (begin (set! y 2)))"
        " (return y))"
    )
    assert validate(p) == []


def test_validate_reserved_name():
    p = parse("(letrec () (set! RET 1) (return RET))")
    assert any("reserved" in d.message for d in validate(p))


def test_validate_return_must_be_tail():
    p = parse("(letrec () (return 1) (set! x 2) (return x))")
    assert any("tail" in d.message for d in validate(p))


def test_validate_body_must_end_in_tail_form():
    p = parse("(letrec () (set! x 1))")
    assert any("end in a return or tail call" in d.message for d in validate(p))


def test_validate_result_binding_call_cannot_be_final():
    p = parse("(letrec ((f (lambda () (return 1)))) (set! x (f)))")
    assert validate(p)


def test_validate_early_return_inside_nontail_branch_rejected():
    p = parse(
        "(letrec () (set! c 1)"
        " (if (> c 0) (begin (return 1)) (begin (set! c 2)))"
        " (return c))"
    )
    assert any("tail" in d.message for d in validate(p))


def test_validate_duplicate_params():
    p = parse("(letrec ((f (lambda (a a) (return a)))) (f 1 2))")
    assert any("duplicate parameter" in d.message for d in validate(p))


def test_procedure_name_not_a_value():
    p = parse("(letrec ((f (lambda () (return 1)))) (set! x f) (return x))")
    assert any("used as a value" in d.message for d in validate(p))


# Every operand in evaluation order, immediates kept, and the assigned variables.
_STATEMENT_CASES = [
    (Assign("x", 7), (7,), ("x",)),
    (Assign("x", "y"), ("y",), ("x",)),
    (Assign("x", BinExpr("-", 3, "y")), (3, "y"), ("x",)),
    (Assign("x", MemRead("b", 2)), ("b", 2), ("x",)),
    (MemWrite("b", 1, "v"), ("b", 1, "v"), ()),
    (If(Cmp("<", "a", 0), (ReturnValue(1),), (ReturnValue(2),)), ("a", 0), ()),
    (Call("f", ("a", 4, "b")), ("a", 4, "b"), ()),
    (Call("f", ("a",), dst="r"), ("a",), ("r",)),
    (ReturnValue(5), (5,), ()),
    (ReturnValue("v"), ("v",), ()),
]


@pytest.mark.parametrize("stmt,operands,defs", _STATEMENT_CASES)
def test_statement_operands_and_defs(stmt, operands, defs):
    assert stmt.operands() == operands
    assert stmt.defs() == defs


# Programs drawing several diagnostics from one statement, with the exact
# text, position and order that `validate` reports them in.
_VALIDATE_CASES = [
    (
        "(letrec ((f (lambda (x) (return x)))) (set! RET (f RET)))",
        [
            "1:39: program body must end in a return or tail call",
            "1:39: 'RET' is a reserved name",
            "1:39: cannot assign reserved name 'RET'",
            "1:39: result-binding call cannot sit in tail position",
        ],
    ),
    (
        # a call may not bind a procedure name any more than a plain assignment
        "(letrec ((f (lambda () (return 1)))) (set! f (f)) (set! f 1) (return f))",
        [
            "1:38: cannot assign procedure name 'f'",
            "1:51: cannot assign procedure name 'f'",
            "1:62: procedure 'f' used as a value",
        ],
    ),
    (
        "(letrec ((f (lambda (a b) (return a)))) (f u) (g RET) (return u) (f 1 2))",
        [
            "1:41: variable 'u' may be used before assignment",
            "1:41: 'f' takes 2 argument(s), got 1",
            "1:47: 'RET' is a reserved name",
            "1:47: call to undefined procedure 'g'",
            "1:55: variable 'u' may be used before assignment",
            "1:55: return outside tail position",
        ],
    ),
    (
        "(letrec ((f (lambda () (return 1)))) (mset! RET f u) (set! y (mref f v))"
        " (if (< w RET) (begin (return f)) (begin (return y))))",
        [
            "1:38: 'RET' is a reserved name",
            "1:38: procedure 'f' used as a value",
            "1:38: variable 'u' may be used before assignment",
            "1:54: procedure 'f' used as a value",
            "1:54: variable 'v' may be used before assignment",
            "1:74: variable 'w' may be used before assignment",
            "1:74: 'RET' is a reserved name",
            "1:95: procedure 'f' used as a value",
        ],
    ),
    (
        # a parameter or an assignment never makes RET or a procedure name
        # a defined variable
        "(letrec ((f (lambda (f) (return f)))) (set! RET 1) (set! x (+ RET f)) (return x))",
        [
            "1:10: parameter 'f' of 'f' is a procedure name",
            "1:25: procedure 'f' used as a value",
            "1:39: cannot assign reserved name 'RET'",
            "1:52: 'RET' is a reserved name",
            "1:52: procedure 'f' used as a value",
        ],
    ),
    (
        # a call names its callee, so a parameter named like a procedure
        # would read as live; every procedure name is known first
        "(letrec ((f (lambda (g x) (set! y (g x)) (return y))) (g (lambda (a) (return a))))"
        " (set! r (f 7 3)) (return r))",
        ["1:10: parameter 'g' of 'f' is a procedure name"],
    ),
    (
        # a procedure's name is its assembly label, and `jmp r1` would read
        # back as a jump through r1; `r`, `r1x` and `R1` are no registers
        "(letrec ((r1 (lambda (a) (return a))) (r007 (lambda (RET) (return 2)))"
        " (r (lambda () (return 1))) (r1x (lambda () (return 1))) (R1 (lambda () (return 1))))"
        " (set! x (r1 5)) (r1 x))",
        [
            "1:10: procedure name 'r1' is a register name",
            "1:39: procedure name 'r007' is a register name",
            "1:39: 'RET' is a reserved name",
        ],
    ),
    ("(letrec ((RET (lambda () (return 1)))) (return 0))", ["1:10: 'RET' is a reserved name"]),
]


@pytest.mark.parametrize("text,expected", _VALIDATE_CASES)
def test_validate_exact_diagnostics(text, expected):
    assert [str(d) for d in validate(parse(text))] == expected


def test_validate_empty_bodies_of_built_programs():
    # the parser rejects an empty body, so only a built program has one
    (proc,) = validate(Program((Definition("f", (), ()),), (ReturnValue(0),)))
    assert str(proc) == "procedure 'f' has an empty body"
    (entry,) = validate(Program((), ()))
    assert entry.pos is None and str(entry) == "program body is empty"


_BUILT_CASES = [
    # the parser reads `(/ 1 2)` as a call, so only a built program has one
    ((Assign("x", BinExpr("/", 1, 2), (2, 3)), ReturnValue("x")), ["2:3: unknown operator '/'"]),
    (
        (If(Cmp("!=", 1, 2), (Assign("x", 1),), (Assign("x", 2),), (1, 5)), ReturnValue("x")),
        ["1:5: unknown relation in test"],
    ),
    (
        (Assign("x", 1 << 70), ReturnValue("x")),
        ["immediate 1180591620717411303424 does not fit a 64-bit word"],
    ),
    (
        (
            MemWrite(WORD_MIN - 1, 0, WORD_MAX + 1),
            Call("f", (WORD_MIN, WORD_MAX), "y"),
            ReturnValue(-(1 << 64)),
        ),
        [
            f"immediate {WORD_MIN - 1} does not fit a 64-bit word",
            f"immediate {WORD_MAX + 1} does not fit a 64-bit word",
            f"immediate {-(1 << 64)} does not fit a 64-bit word",
        ],
    ),
    # an operand is a str or an exact int: a float or a bool is neither
    (
        (Assign("x", BinExpr("+", 1.5, True), (2, 3)), ReturnValue("x")),
        ["2:3: bad operand 1.5", "2:3: bad operand True"],
    ),
    ((Assign("x", 1.5, (4, 1)), ReturnValue("x")), ["4:1: bad operand 1.5"]),
    (
        (
            MemWrite(None, "b", 0, (1, 2)),
            Call("f", (0.0, False), "y", (1, 9)),
            If(Cmp("<", "y", ()), (ReturnValue("y"),), (ReturnValue(b"x", (3, 4)),), (2, 1)),
        ),
        [
            "1:2: bad operand None",
            "1:2: variable 'b' may be used before assignment",
            "1:9: bad operand 0.0",
            "1:9: bad operand False",
            "2:1: bad operand ()",
            "3:4: bad operand b'x'",
        ],
    ),
]


@pytest.mark.parametrize("body,expected", _BUILT_CASES)
def test_validate_checks_what_only_the_parser_checked(body, expected):
    program = Program((Definition("f", ("a", "b"), (ReturnValue("a"),)),), body)
    assert [str(d) for d in validate(program)] == expected


def test_print_empty_branches():
    p = Program(
        (),
        (
            If(Cmp("<", 1, 2), (), (Assign("x", 1),)),
            If(Cmp("<", 1, 2), (Assign("x", 1),), ()),
            ReturnValue(0),
        ),
    )
    text = format_program(p)
    lines = text.splitlines()
    assert lines[2] == "    (begin)"
    assert lines[8] == "    (begin))"
    assert parse(text) == p


def test_print_canonical_form(split_prog):
    program, _ = split_prog
    text = format_program(program)
    lines = text.strip().splitlines()
    assert lines[0] == "(letrec ()"
    assert lines[1] == "  (set! x 1)"
    assert all(line.startswith("  ") for line in lines[1:])


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_parse_print(seed):
    p = generate_program(seed)
    assert validate(p) == []
    assert parse(format_program(p)) == p


def test_roundtrip_nested_branches():
    src = (
        "(letrec ((f (lambda (a) (return a))))"
        " (set! x 1)"
        " (if (< x 2)"
        "   (begin (if (= x 1) (begin (set! y 1)) (begin (set! y 2))) (set! z y))"
        "   (begin (set! z 0) (set! y z)))"
        " (f y))"
    )
    p = parse(src)
    assert validate(p) == []
    assert parse(format_program(p)) == p


# ---------------------------------------------------------------------------
# Exact error positions: (message, line, column), columns counting every
# character of the line (tabs and carriage returns included) from 1


def _parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    e = exc.value
    return e.message, e.line, e.col


@pytest.mark.parametrize(
    "text, expected",
    [
        # tabs and \r\n before a bad token
        ("(letrec ()\r\n\t(set! x 0)\r\n\t  (return x#))", ("bad operand 'x#'", 3, 12)),
        ("(letrec ()\r\n\t(return\r\tx#))", ("bad operand 'x#'", 2, 11)),
        ("(letrec ()\r\n\t(set! x 0)\r\n \t(return (if)))", ("expected an identifier or integer", 3, 11)),
        # a comment at EOF with no newline
        ("(letrec () (set! x 0) (return x) ; trailing", ("unclosed parenthesis", 1, 1)),
        ("(letrec ()\n (set! x (+ 1))) ; trailing", ("'+' takes two operands", 2, 10)),
        # an unclosed ( three levels deep points at the innermost one
        ("(letrec ()\n  (if (< a b)\n    (begin (set! x 1)", ("unclosed parenthesis", 3, 5)),
        # a stray ) after a complete form
        ("(letrec () (return 0))\n  )", ("unexpected ')'", 2, 3)),
        ("(letrec () (return 0)))", ("unexpected ')'", 1, 23)),
        # a second top-level form
        ("(letrec () (return 0))\n(letrec () (return 1))", ("expected a single (letrec ...) form", 2, 1)),
        ("(letrec () (return 0)) x", ("expected a single (letrec ...) form", 1, 24)),
        # empty and comment-only input
        ("", ("empty input", 1, 1)),
        ("  \t\r\n", ("empty input", 1, 1)),
        ("; nothing here\n;; more\n", ("empty input", 1, 1)),
        ("; no newline", ("empty input", 1, 1)),
        # an immediate wider than 64 bits
        ("(letrec ()\n  (return 18446744073709551616))", ("immediate 18446744073709551616 does not fit a 64-bit word", 2, 11)),
        ("(letrec () (return -9223372036854775809))", ("immediate -9223372036854775809 does not fit a 64-bit word", 1, 20)),
        # malformed definitions, expressions and statements
        ("(letrec (((f) (lambda () (return 1)))) (return 0))", ("expected procedure name", 1, 11)),
        ("(letrec () (set! x ()) (return 0))", ("empty expression", 1, 20)),
        ("(letrec () (set! x ((+) 1 2)) (return 0))", ("malformed expression", 1, 20)),
        ("(letrec ())", ("empty statement body", 1, 1)),
        ("(letrec () (return))", ("'return' takes one value", 1, 12)),
        ("(letrec () (begin) (return 0))", ("'begin' is not a statement here", 1, 12)),
        ("(letrec () (+ 1 2) (return 0))", ("'+' is not a statement here", 1, 12)),
        (
            "(letrec () (if (!= 1 2) (begin (return 1)) (begin (return 2))))",
            ("unknown relation in test", 1, 16),
        ),
        # only space, tab, carriage return and newline separate atoms: any
        # other whitespace is part of an atom or is an atom itself
        ("(letrec () (set! x 1\x0b) (return x))", ("bad operand '1\\x0b'", 1, 20)),
        ("(letrec () (set! x\x0c 1) (return x))", ("bad variable 'x\\x0c'", 1, 18)),
        ("(letrec ()\n  (set! x 1)\xa0(return x))", ("expected a statement", 2, 13)),
        ("(letrec () (set! x 1)\x1c(return x))", ("expected a statement", 1, 22)),
        ("(letrec () (set! x 1) (return x)) \x85", ("expected a single (letrec ...) form", 1, 35)),
    ],
)
def test_parse_error_exact_position(text, expected):
    assert _parse_error(text) == expected


def test_comment_at_eof_without_newline_parses():
    p = parse("(letrec () (set! x 0) (return x)) ; trailing")
    assert p.body == (Assign("x", 0), ReturnValue("x"))


def test_parentheses_in_a_comment_are_not_read():
    p = parse("(letrec () (set! x 1) ; a (comment) with )) parens\n (return x))")
    assert p.body == (Assign("x", 1), ReturnValue("x"))
    assert [s.pos for s in p.body] == [(1, 12), (2, 2)]


def test_deep_nesting_is_a_parse_error():
    assert _parse_error("(" * 5000) == ("unclosed parenthesis", 1, 5000)


# nested_ifs(n) reaches parenthesis depth 2n + 3
DEEPEST_IFS = (MAX_DEPTH - 3) // 2


def test_deepest_accepted_nesting_runs_every_stage():
    text = nested_ifs(DEEPEST_IFS)
    p = parse(text)
    assert validate(p) == []
    assert parse(format_program(p)) == p
    ap = annotate(p)
    for r in (2, 3, 8):
        cfg = make_config(r)
        for policy in POLICIES:
            tp = alloc_program(ap, cfg, policy, trace=[])
            assert equivalent(p, tp, cfg).ok, (r, policy)


def test_nesting_past_max_depth_is_a_parse_error():
    text = nested_ifs(DEEPEST_IFS + 1)
    innermost = text.rindex("(+ x 1)") + 1
    assert _parse_error(text) == (f"nesting deeper than {MAX_DEPTH} parentheses", 1, innermost)


_EDIT_CHARS = "()  \t\n\r;x9-+RETbegin"
# Whitespace that does not separate atoms (vertical tab, form feed, the
# file separator, NEL, no-break space, em space) and characters no atom
# may hold.  Only space, tab, carriage return and newline separate atoms.
_WIDE_EDIT_CHARS = _EDIT_CHARS + "\x0b\x0c\x1c\x85\xa0\u2003\"\\#"


@functools.lru_cache(maxsize=None)
def _generated_texts():
    """Generator programs 0..299 and their canonical texts."""
    programs = [generate_program(seed) for seed in range(300)]
    return programs, [format_program(p) for p in programs]


def _edited_texts(texts, alphabet, count, seed):
    """`count` seeded random edits of `texts`: one to three characters
    inserted, deleted or replaced from `alphabet`."""
    rng = random.Random(seed)
    edited = []
    for _ in range(count):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                chars.insert(i, rng.choice(alphabet))
            elif i < len(chars):
                if kind == 1:
                    del chars[i]
                else:
                    chars[i] = rng.choice(alphabet)
        edited.append("".join(chars))
    return edited


def _generated_and_edited_texts():
    """The canonical text of generator programs 0..299 with each program,
    then 2,000 seeded random edits of them from `_EDIT_CHARS`."""
    programs, texts = _generated_texts()
    return programs, texts, _edited_texts(texts, _EDIT_CHARS, 2000, 4)


def test_parse_roundtrip_and_random_edits_property():
    programs, texts, edited = _generated_and_edited_texts()
    for p, text in zip(programs, texts):
        assert parse(text) == p
    for text in edited:
        try:
            parse(text)
        except ParseError:
            pass


# Digest of every outcome of `_generated_and_edited_texts`: the
# (message, line, column) of each ParseError, or the repr of each parsed
# program, which shows every statement's and definition's `pos`.  A
# change to the reader or parser must leave it as it is.
PARSE_OUTCOMES_SHA256 = "2da516f67da56e0ffd112d62871982a541aadcce181e25ae19efb793afe2f99b"


def _parse_outcome(text):
    try:
        p = parse(text)
    except ParseError as e:
        return repr((e.message, e.line, e.col))
    return repr(p)


def test_parse_outcomes_are_pinned():
    _, texts, edited = _generated_and_edited_texts()
    digest = hashlib.sha256()
    for text in texts + edited:
        digest.update(_parse_outcome(text).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PARSE_OUTCOMES_SHA256


# The same digest over 2,000 seeded edits from `_WIDE_EDIT_CHARS`: it pins
# which characters separate atoms and which ones an atom holds.
PARSE_OUTCOMES_WIDE_SHA256 = "651ade9f40c2d9ed0dc7ad69bf0d70645caf506b8b8c817bbb7d3d2be53cc042"


def test_parse_outcomes_of_wide_edits_are_pinned():
    _, texts = _generated_texts()
    digest = hashlib.sha256()
    for text in _edited_texts(texts, _WIDE_EDIT_CHARS, 2000, 5):
        digest.update(_parse_outcome(text).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PARSE_OUTCOMES_WIDE_SHA256


_ATOM_ERROR_RE = re.compile(r"bad (?:operand|variable|parameter|procedure name) ('.*'|\".*\")\Z")


def test_an_atom_error_points_at_the_atom():
    """The line and column of every error that names an atom are where
    that atom starts in the text."""
    _, texts = _generated_texts()
    named = 0
    for text in _edited_texts(texts, _WIDE_EDIT_CHARS, 4000, 6):
        try:
            parse(text)
        except ParseError as e:
            m = _ATOM_ERROR_RE.match(e.message)
            if m:
                named += 1
                atom = ast.literal_eval(m.group(1))
                line = text.split("\n")[e.line - 1]
                assert line[e.col - 1 :].startswith(atom), (e.message, e.line, e.col)
    assert named > 700  # 775 of the 4,000 edits


# Digest of the `(message, pos)` list that `validate` returns for every
# text of `_generated_and_edited_texts` that parses (861 of them).  The
# random edits draw undefined-variable, undefined-procedure and arity
# diagnostics, and their order counts too; `_VALIDATE_CASES` covers the
# other kinds.  A change to the validator must leave it as it is.
VALIDATE_OUTCOMES_SHA256 = "7c1b581cb18ea9c085980db7ed500a1e71edfbb02734999cb0239ce99054bb99"


def test_validate_outcomes_are_pinned():
    _, texts, edited = _generated_and_edited_texts()
    digest = hashlib.sha256()
    for text in texts + edited:
        try:
            p = parse(text)
        except ParseError:
            continue
        outcome = [(d.message, d.pos) for d in validate(p)]
        digest.update(repr(outcome).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == VALIDATE_OUTCOMES_SHA256


_ATOM_RE = re.compile(r"[^\s()]+")
_PROC_RE = re.compile(r"\((\S+) \(lambda")
_PARAMS_RE = re.compile(r"\(lambda \(([^()]*)\)")
_RETURN_RE = re.compile(r"\(return [^\s()]+\)")
# the opening of a statement that starts a line of the canonical text
_STMT_RE = re.compile(r"^ *(\((?!begin\b|letrec\b)[^\s()]+ (?!\(lambda))", re.M)


def _splice_name(text, rng):
    """`RET` or a procedure name (or, in a parameter list, a parameter of
    the same list) put in for an atom that does not head a form: an
    operand, a destination or a parameter."""
    atoms = [m for m in _ATOM_RE.finditer(text) if text[m.start() - 1] != "("]
    m = rng.choice(atoms)
    names = ["RET", *_PROC_RE.findall(text)]
    for params in _PARAMS_RE.finditer(text):
        if params.start(1) <= m.start() < params.end(1):
            names += params.group(1).split()
    return text[: m.start()] + rng.choice(names) + text[m.end() :]


def _splice_branch(text, rng):
    """`(begin)` put in for a branch of an `if`."""
    starts = [m.start() for m in re.finditer(r"\(begin\b", text)]
    if not starts:
        return text
    i = rng.choice(starts)
    depth = 0
    for j in range(i, len(text)):
        depth += {"(": 1, ")": -1}.get(text[j], 0)
        if depth == 0:
            break
    return text[:i] + "(begin)" + text[j + 1 :]


def _splice_return(text, rng):
    """A `return` moved in front of an earlier statement."""
    returns = list(_RETURN_RE.finditer(text))
    if not returns:
        return text
    r = rng.choice(returns)
    fronts = [m.start(1) for m in _STMT_RE.finditer(text, 0, r.start())]
    if not fronts:
        return text
    f = rng.choice(fronts)
    return text[:f] + r.group() + " " + text[f : r.start()] + text[r.end() :]


def _spliced_texts():
    """1,500 seeded texts, each the canonical text of one of generator
    programs 0..299 after one to three whole-token splices."""
    rng = random.Random(19)
    texts = [format_program(generate_program(seed)) for seed in range(300)]
    spliced = []
    for _ in range(1500):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = rng.choice((_splice_name, _splice_branch, _splice_return))(text, rng)
        spliced.append(text)
    return spliced


# Digest of the `(message, pos)` list that `validate` returns for each
# text of `_spliced_texts` (all of them parse).  A change to the validator
# must leave it as it is.
VALIDATE_SPLICES_SHA256 = "0b560f0a9ad1afb5169d446803301858c2c1f6bdcfaf73b9edbbfb7801d4c55e"

# every diagnostic kind the splices must draw, with quoted names blanked
_SPLICED_DIAGNOSTICS = {
    "'_' is a reserved name",
    "procedure '_' used as a value",
    "cannot assign reserved name '_'",
    "cannot assign procedure name '_'",
    "'_' branches must be nonempty",
    "result-binding call cannot sit in tail position",
    "return outside tail position",
    "duplicate parameter in '_'",
    "parameter '_' of '_' is a procedure name",
    "procedure '_' must end in a return or tail call",
    "program body must end in a return or tail call",
}


def test_validate_outcomes_of_spliced_texts_are_pinned():
    digest = hashlib.sha256()
    kinds = set()
    for text in _spliced_texts():
        outcome = [(d.message, d.pos) for d in validate(parse(text))]
        kinds.update(re.sub(r"'[^']*'", "'_'", message) for message, _ in outcome)
        digest.update(repr(outcome).encode())
        digest.update(b"\n")
    assert _SPLICED_DIAGNOSTICS <= kinds, _SPLICED_DIAGNOSTICS - kinds
    assert digest.hexdigest() == VALIDATE_SPLICES_SHA256

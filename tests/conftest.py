import pytest

from uilc import annotate, parse, validate

# Two-register live-range splitting example: x and y fill the machine,
# allocating z forces x out, and the final sum brings x back.
SPLIT_SRC = """
(letrec ()
  (set! x 1)
  (set! y 2)
  (set! z (+ y 1))
  (set! w (+ x y))
  (return w))
"""

# The same split with z observed, as in samples/split.uil.  In SPLIT_SRC
# nothing reads z, so a whole-program allocation computes no z and parks
# nothing; the fragment C1 allocates still computes it.
SPLIT_OBSERVED_SRC = """
(letrec ()
  (set! x 1)
  (set! y 2)
  (set! z (+ y 1))
  (mset! 0 0 z)
  (set! w (+ x y))
  (return w))
"""

# Four-statement body ending in a tail call, with its callee defined.
CHAIN_SRC = """
(letrec ((f (lambda (a b)
  (set! c (+ a b))
  (return c))))
  (set! x 0)
  (set! y (+ x 1))
  (set! z (+ y 2))
  (f x z))
"""


def nested_ifs(levels):
    """Entry body with `levels` nested non-tail ifs on one line.

    The letrec is depth 1 and level k's `if` depth 2k, so the deepest
    parentheses sit at depth 2 * levels + 3; the first of them is the
    innermost level's `(+ x 1)`.
    """
    text = "(set! y (* x 2))"
    for _ in range(levels):
        text = f"(if (< x 1000) (begin (set! x (+ x 1)) {text}) (begin (set! y (- y 1))))"
    return f"(letrec () (set! x 0) (set! y 0) {text} (return y))"


def load_program(src):
    program = parse(src)
    diags = validate(program)
    assert not diags, diags
    return program, annotate(program)


@pytest.fixture
def split_prog():
    return load_program(SPLIT_SRC)


@pytest.fixture
def chain_call():
    return load_program(CHAIN_SRC)

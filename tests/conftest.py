import pytest

from uilc import annotate, parse, validate
from uilc.uil import If

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

# A 3-cycle a -> b -> c -> a.  The callees-first walk annotates c, b, then
# a, so c and b know what their callees read: c drops y, and b drops u and
# v.  c calls a before a is annotated, so a is passed every argument.
CYCLE3_SRC = """
(letrec ((a (lambda (n p q)
           (if (< n 1)
             (begin (return p))
             (begin (set! m (- n 1)) (set! s (+ p q)) (b m s q)))))
         (b (lambda (n u v) (set! t (+ n 1)) (set! r (c n t u)) (set! w (+ r t)) (return w)))
         (c (lambda (n w y) (set! k (+ w 2)) (a n k n))))
  (set! x (mref 0 0)) (set! r (a 5 x 3)) (mset! 0 1 r) (return r))
"""

# A diamond cycle a -> b, a -> c, b -> a, c -> a.  The walk leaves b, then
# c, then a (Tarjan's components would close c before b); b and c call a
# before a is annotated, and drop q and p.
DIAMOND_SRC = """
(letrec ((a (lambda (n x y)
           (if (< n 1)
             (begin (return x))
             (begin (set! m (- n 1)) (set! u (b m x y)) (set! v (c m u y))
                    (set! s (+ u v)) (return s)))))
         (b (lambda (n p q) (set! t (+ p 1)) (a n t n)))
         (c (lambda (n p q) (set! t (* q 2)) (a n t t))))
  (set! x (mref 0 0)) (set! y (mref 0 1)) (set! r (a 4 x y)) (mset! 0 2 r) (return r))
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


def live_after(a):
    """The variables live after annotated statement `a`: the keys of its
    next-use map, or, for an `if` that is not dead, the join set, which is
    what lives after the last statement of its else branch."""
    if type(a.stmt) is If and not a.dead:
        return live_after(a.else_body[-1])
    return a.next_uses.keys()


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

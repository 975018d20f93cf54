"""An exact oracle for add, sub, neg, conj and norm through c_* and both
routes.

``fractions.Fraction`` reads each operation on the stored preimages
exactly, with no float step that the package shares: a sum or a
difference part by part, a negation or a conjugation by sign, and the
norm as the exact a^2 + b^2. On each of the four pairs the operands are
the product oracle's draws (``test_product_oracle._part``): parts with
exponents uniform over the binary64 range up to each generator's bound,
zeros, signed zeros and parts at the bounds. Every draw goes through all
three callers, and each result is one of these:

- add and sub with each part the correctly rounded exact part, since
  each is one sum; so within eps/2 of the exact value normwise;
- neg and conj equal to the exact value (as Fractions, so -0.0 equals
  0);
- a norm h with a^2 + b^2 strictly between the squares of h's
  ``math.nextafter`` neighbours, that is one of the two floats around
  the exact norm;
- a guard refusal, or on the pullback route, which guards only its final
  result, a part that is not finite: each only when the correctly
  rounded exact part lies outside the guard's interval.

An exact zero always gives zero.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staralg import (
    GeneratorOverflowError,
    StarComplex,
    c_add,
    c_conj,
    c_neg,
    c_norm,
    c_sub,
    pair_of,
)
from staralg.expr import _CLASSICAL_OPS
from staralg.star_complex import _direct_ops
from test_product_oracle import PAIR_NAMES, _part

MAX = sys.float_info.max

_C_OPS = {
    "add": lambda pair, v, w: c_add(StarComplex(pair, v), StarComplex(pair, w)).value,
    "sub": lambda pair, v, w: c_sub(StarComplex(pair, v), StarComplex(pair, w)).value,
    "neg": lambda pair, v: c_neg(StarComplex(pair, v)).value,
    "conj": lambda pair, v: c_conj(StarComplex(pair, v)).value,
    # a beta-line value; the routes' norms sit on the real axis
    "norm": lambda pair, v: complex(c_norm(StarComplex(pair, v)).preimage, 0.0),
}
CALLERS = {
    "c_*": lambda op, pair, *vs: _C_OPS[op](pair, *vs),
    "direct": lambda op, pair, *vs: _direct_ops(pair)[op](*vs),
    "pullback": lambda op, pair, *vs: _CLASSICAL_OPS[op](*vs),
}

# the exact parts of each operation on Fraction parts; the norm's is
# the exact square a^2 + b^2 of its one part
EXACT = {
    "add": lambda a, b, c, d: (a + c, b + d),
    "sub": lambda a, b, c, d: (a - c, b - d),
    "neg": lambda a, b: (-a, -b),
    "conj": lambda a, b: (a, -b),
    "norm": lambda a, b: (a * a + b * b,),
}
ARITY = {"add": 2, "sub": 2, "neg": 1, "conj": 1, "norm": 1}


def _parts(*vs: complex) -> list[Fraction]:
    return [Fraction(p) for v in vs for p in (v.real, v.imag)]


def _rounded(x: Fraction) -> float:
    """x correctly rounded to binary64 (int division rounds correctly),
    infinite past the largest float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _outside(t: float, bound: float) -> bool:
    # every built-in generator's interval is [-t_max, t_max]
    return not -bound <= t <= bound


def _norm_outside(n: Fraction, bound: float) -> bool:
    """Does sqrt(n), correctly rounded, pass bound? It does when sqrt(n)
    lies past the midpoint between bound and the next float up."""
    mid = Fraction(bound) + Fraction(math.ulp(bound)) / 2
    return n > mid * mid


def _refusal_is_due(op: str, caller: str, pair, exact: tuple) -> bool:
    """Is the correctly rounded exact part outside its guard's interval?
    The guards are the pair's: alpha's on the real part and beta's on
    the imaginary part; c_norm's value is on the beta line, and the
    direct route's norm is a point whose real part alpha guards too. The
    pullback route's only refusal is a part past the largest float."""
    alpha, beta = pair.alpha.t_max, pair.beta.t_max
    if caller == "pullback":
        alpha = beta = MAX
    if op == "norm":
        bound = min(alpha, beta) if caller == "direct" else beta
        return _norm_outside(exact[0], bound)
    x, y = map(_rounded, exact)
    return _outside(x, alpha) or _outside(y, beta)


def _outcome(op: str, caller: str, pair, *vs: complex) -> str:
    """The caller's result of op on vs, checked against the exact one."""
    exact = EXACT[op](*_parts(*vs))
    try:
        q = CALLERS[caller](op, pair, *vs)
    except GeneratorOverflowError:
        assert caller != "pullback"
        assert _refusal_is_due(op, caller, pair, exact), (op, vs)
        return "refused"
    if not (math.isfinite(q.real) and math.isfinite(q.imag)):
        # only the pullback route returns an unguarded part
        assert caller == "pullback"
        assert _refusal_is_due(op, caller, pair, exact), (op, vs, q)
        return "refused"
    if not any(exact):
        assert q == 0, (op, vs, q)
        return "zero"
    if op == "norm":
        h, n = q.real, exact[0]
        assert q.imag == 0.0, (vs, q)
        assert Fraction(math.nextafter(h, 0.0)) ** 2 < n, (vs, h)
        assert h == MAX or n < Fraction(math.nextafter(h, math.inf)) ** 2, (vs, h)
    elif op in ("neg", "conj"):
        assert _parts(q) == list(exact), (op, vs, q)
    else:
        assert (q.real, q.imag) == tuple(map(_rounded, exact)), (op, vs, q)
    return "accepted"


def _points(pair, n: int) -> st.SearchStrategy[tuple[complex, ...]]:
    point = st.builds(complex, _part(pair.alpha.t_max), _part(pair.beta.t_max))
    return st.tuples(*[point] * n)


@pytest.mark.parametrize("names", PAIR_NAMES, ids="-".join)
@pytest.mark.parametrize("op", sorted(EXACT))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_operation_agrees_with_the_exact_value(names, op, data):
    pair = pair_of(*names)
    vs = data.draw(_points(pair, ARITY[op]))
    for caller in CALLERS:
        _outcome(op, caller, pair, *vs)


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize(
    "names, op, vs, want",
    [
        (("identity", "identity"), "add", (complex(1, 2), complex(0.5, -3)), "accepted"),
        (("identity", "identity"), "sub", (complex(1, -0.0), complex(1, 0)), "zero"),
        (("identity", "identity"), "neg", (complex(-0.0, 0),), "zero"),
        (("cube", "exp"), "conj", (complex(-5e-324, 700),), "accepted"),
        (("identity", "identity"), "norm", (complex(3, 4),), "accepted"),
        (("exp", "exp"), "norm", (complex(0, -700),), "accepted"),
        (("identity", "identity"), "norm", (complex(5e-324, 5e-324),), "accepted"),
        (("identity", "identity"), "norm", (complex(0, -0.0),), "zero"),
        # past the largest float: refused, or not finite on the pullback route
        (("identity", "identity"), "add", (complex(MAX, 0), complex(MAX, 0)), "refused"),
        (("identity", "identity"), "norm", (complex(MAX, MAX),), "refused"),
        # past a guard end inside the float range: refused where guarded
        (("exp", "exp"), "add", (complex(700, 0), complex(1, 0)), "refused"),
        (("identity", "exp"), "norm", (complex(600, 600),), "refused"),
    ],
)
def test_each_outcome_is_reached(caller, names, op, vs, want):
    got = _outcome(op, caller, pair_of(*names), *vs)
    # the pullback route's part past a guard end is for its final guard
    in_float_range = want == "refused" and names != ("identity", "identity")
    assert got == ("accepted" if in_float_range and caller == "pullback" else want)

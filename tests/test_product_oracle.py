"""An exact oracle for multiplication through c_mul and both routes.

``fractions.Fraction`` reads the product of two stored preimage pairs
exactly, (a + bi)(c + di) = (ac - bd) + (ad + bc)i, with no float step
that the package's multiplication shares. On each of the four pairs,
parts are drawn with exponents uniform over the binary64 range up to
each generator's preimage bound, with zeros, signed zeros and parts at
the bounds, and in operands of nearby magnitude whose partial products
cancel. Each result is one of three:

- a product within K eps of the exact one normwise, for an exact modulus
  in [2**-969, MAX / 4];
- a StarUnderflowError, with both exact parts rounding to zero, up to
  one rounding;
- the pair's guard refusing an exact part outside its interval.

A product of nonzero points is never a hidden zero.
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
    StarUnderflowError,
    c_mul,
    pair_of,
)
from staralg.expr import _CLASSICAL_OPS
from staralg.star_complex import _direct_ops

EPS = sys.float_info.epsilon
MAX = sys.float_info.max

# an accepted product is within K eps of the exact one, normwise; the
# known bound for the product CPython computes, (ac - bd) + (ad + bc)i
# with each step rounded, is sqrt(5) eps, and the worst measured over
# 20,000 draws of these kinds, 12,914 of them with an exact modulus in
# range and half of them cancelling, was 1.00 eps
K = 3
# an exact modulus from 2**-969 (53 bits above the least subnormal) to
# MAX / 4 leaves every partial product's rounding negligible or finite
_LOW = Fraction(1, 2**969)
_HIGH = Fraction(MAX) / 4
# a refused product has exact parts that round to zero up to one
# rounding, each at most the least subnormal: two partial products that
# each round to zero can sum to 2**-1074. (-5e-324, -5e-324) times
# (0.5, 0.5) is exactly -5e-324 i, and (2**-537, 2**-537) times
# (0.99 * 2**-538, -0.99 * 2**-538) has the real part 1.98 * 2**-1075,
# which rounds to 5e-324; both are refused, as subnormal products are
# left to the open subnormal item
_TINY = Fraction(1, 2**1074)

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]

CALLERS = {
    "c_mul": lambda pair, v, w: c_mul(StarComplex(pair, v), StarComplex(pair, w)).value,
    "direct": lambda pair, v, w: _direct_ops(pair)["mul"](v, w),
    "pullback": lambda pair, v, w: _CLASSICAL_OPS["mul"](v, w),
}

PAIRS = pytest.mark.parametrize("names", PAIR_NAMES, ids="-".join)
ROUTES = pytest.mark.parametrize("caller", sorted(CALLERS))


def _part(t_max: float) -> st.SearchStrategy[float]:
    """Parts in [-t_max, t_max], exponents uniform up to the bound."""
    top = 1024 if t_max == MAX else math.frexp(t_max)[1] - 1
    return st.one_of(
        st.builds(
            lambda sign, m, e: sign * math.ldexp(m, e),
            st.sampled_from((-1.0, 1.0)),
            st.floats(0.5, 1.0, exclude_max=True),
            st.integers(-1073, top),
        ),
        st.sampled_from((0.0, -0.0, 1.0, t_max, -t_max, 5e-324, sys.float_info.min)),
    )


def _near(x: float, steps: int) -> float:
    """x moved ``steps`` floats toward zero, so it keeps within a bound."""
    for _ in range(steps):
        x = math.nextafter(x, 0.0)
    return x


def _cancelling(t_max: float) -> st.SearchStrategy[tuple[complex, complex]]:
    """v with both parts near x and w with both parts near y, with signs
    drawn, so that one part of the product cancels to about xy eps."""
    part, signs, steps = _part(t_max), st.sampled_from((-1.0, 1.0)), st.integers(0, 4)
    return st.builds(
        lambda x, y, s, k: (
            complex(s[0] * _near(x, k[0]), s[1] * _near(x, k[1])),
            complex(s[2] * _near(y, k[2]), s[3] * _near(y, k[3])),
        ),
        part,
        part,
        st.tuples(signs, signs, signs, signs),
        st.tuples(steps, steps, steps, steps),
    )


def _operands(pair) -> st.SearchStrategy[tuple[complex, complex]]:
    a, b = _part(pair.alpha.t_max), _part(pair.beta.t_max)
    point = st.builds(complex, a, b)
    narrow = min(pair.alpha.t_max, pair.beta.t_max)
    return st.one_of(st.tuples(point, point), _cancelling(narrow))


def _exact(v: complex, w: complex) -> tuple[Fraction, Fraction]:
    a, b, c, d = map(Fraction, (v.real, v.imag, w.real, w.imag))
    return a * c - b * d, a * d + b * c


def _outcome(caller: str, pair, v: complex, w: complex) -> str:
    """The caller's product of v and w, checked against the exact one."""
    x, y = _exact(v, w)
    try:
        q = CALLERS[caller](pair, v, w)
    except StarUnderflowError:
        assert v and w and abs(x) <= _TINY and abs(y) <= _TINY, (v, w)
        return "underflow"
    except GeneratorOverflowError:
        # an exact part past its generator's bound, up to K eps normwise
        assert caller != "pullback"
        slack = K * Fraction(EPS) * (abs(x) + abs(y))
        assert (
            abs(x) > Fraction(pair.alpha.t_max) - slack
            or abs(y) > Fraction(pair.beta.t_max) - slack
        ), (v, w)
        return "refused"
    if v and w:
        assert q, (v, w)  # never a hidden zero
    n = x * x + y * y
    if _LOW**2 <= n <= _HIGH**2:
        err = (Fraction(q.real) - x) ** 2 + (Fraction(q.imag) - y) ** 2
        assert err <= (K * Fraction(EPS)) ** 2 * n, (v, w, q)
    return "accepted"


@PAIRS
@ROUTES
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multiplication_agrees_with_the_exact_product(names, caller, data):
    pair = pair_of(*names)
    v, w = data.draw(_operands(pair))
    _outcome(caller, pair, v, w)


@ROUTES
@pytest.mark.parametrize(
    "names, v, w, want",
    [
        (("identity", "identity"), complex(3, 4), complex(3, -4), "accepted"),
        # (1 + i)^2 = 2i: a zero part with a normal modulus is legitimate
        (("identity", "identity"), complex(1, 1), complex(1, 1), "accepted"),
        # both exact parts are about 1e-400
        (("identity", "identity"), complex(1e-200, 0), complex(1e-200, 0), "underflow"),
        (("cube", "exp"), complex(1e-200, 1e-200), complex(1e-200, 0), "underflow"),
        (("exp", "exp"), complex(1e-300, 0), complex(1e-100, 0), "underflow"),
        # the real part cancels to about 4e-14 beside an imaginary part of 2
        (
            ("identity", "identity"),
            complex(1.0, 1.0),
            complex(1.0, math.nextafter(1.0, 0.0)),
            "accepted",
        ),
        (("exp", "exp"), complex(600, 0), complex(2, 0), "refused"),
        (("identity", "exp"), complex(1e10, 1), complex(1, 1e-3), "refused"),
        (("identity", "identity"), complex(1e300, 0), complex(1e10, 0), "refused"),
    ],
)
def test_each_outcome_is_reached(caller, names, v, w, want):
    got = _outcome(caller, pair_of(*names), v, w)
    # the pullback route has no guard of its own: the final one refuses
    assert got == ("accepted" if (want, caller) == ("refused", "pullback") else want)


@ROUTES
@pytest.mark.parametrize(
    "v, w, want",
    [
        (complex(-5e-324, -5e-324), complex(0.5, 0.5), (0.0, -5e-324)),
        (
            complex(math.ldexp(1.0, -537), math.ldexp(1.0, -537)),
            complex(math.ldexp(0.99, -538), math.ldexp(-0.99, -538)),
            (5e-324, 0.0),
        ),
    ],
)
def test_a_product_whose_partial_products_round_to_zero_is_refused(caller, v, w, want):
    # the exact product rounds to the least subnormal, but each partial
    # product rounds to zero
    assert tuple(map(float, _exact(v, w))) == want
    with pytest.raises(StarUnderflowError, match="underflows to zero"):
        CALLERS[caller](pair_of("identity", "identity"), v, w)

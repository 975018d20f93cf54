"""An exact oracle for division on both routes.

``fractions.Fraction`` reads the quotient of two stored preimage pairs
exactly, v / w = v conj(w) / |w|^2, with no float step that the package's
division shares. Operands are drawn across the whole binary64 exponent
range, with zeros, signed zeros and parts at the float maximum, and with
both parts subnormal.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from staralg import StarDivisionError, StarUnderflowError
from staralg.expr import _classical_div
from staralg.star_complex import _quotient

EPS = sys.float_info.epsilon
MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min

# an accepted quotient in the normal range is within K eps of the exact
# one, normwise; the worst measured over about 61,000 draws with a normal
# divisor was 1.17 eps, over 12,587 draws with a divisor whose larger part
# is subnormal 1.08 eps, and over 3,000 draws with a numerator whose parts
# are both subnormal 0.95 eps. The plain division by such a divisor was
# off by up to 25%, and that of such a numerator by up to 1e14 eps: see
# test_a_subnormal_divisor_is_divided_correctly_rounded and
# test_a_subnormal_numerator_is_divided_correctly_rounded.
K = 3

# an exact part within a few roundings of the largest float is left out
_BELOW_MAX = Fraction(MAX) * (1 - 4 * Fraction(EPS))
_ABOVE_MAX = Fraction(MAX) * (1 + 4 * Fraction(EPS))
# half the least subnormal: a part at most this rounds to zero
_HALF_TINY = Fraction(1, 2**1075)

ROUTES = pytest.mark.parametrize(
    "divide", [_quotient, _classical_div], ids=["direct", "pullback"]
)

_PART = st.one_of(
    st.builds(
        lambda sign, m, e: sign * math.ldexp(m, e),
        st.sampled_from((-1.0, 1.0)),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-1073, 1024),
    ),
    st.sampled_from(
        (0.0, -0.0, 1.0, MAX, -MAX, math.nextafter(MAX, 0.0), 1e308, -1e308,
         MIN_NORMAL, 5e-324, -5e-324)
    ),
)
# divisors with both parts near the float maximum, where the plain
# division overflows an intermediate
_HUGE = st.builds(
    lambda sign, m, e: sign * math.ldexp(m, e),
    st.sampled_from((-1.0, 1.0)),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(1015, 1024),
)
# divisors whose larger part is subnormal, where the plain division rounds
# its scaled denominator in the subnormal range
_SUBNORMAL = st.one_of(
    st.builds(
        lambda sign, m, e: sign * math.ldexp(m, e),
        st.sampled_from((-1.0, 1.0)),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-1073, -1022),
    ),
    st.sampled_from((0.0, -0.0)),
)
_DIVISOR = st.one_of(
    st.tuples(_PART, _PART), st.tuples(_HUGE, _HUGE), st.tuples(_SUBNORMAL, _SUBNORMAL)
)
# numerators whose larger part is subnormal, where the plain division
# forms the numerator's combination in the subnormal range
_NUMERATOR = st.one_of(st.tuples(_PART, _PART), st.tuples(_SUBNORMAL, _SUBNORMAL))


def _exact(v: complex, w: complex) -> tuple[Fraction, Fraction]:
    a, b, c, d = map(Fraction, (v.real, v.imag, w.real, w.imag))
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


@ROUTES
@settings(max_examples=500, deadline=None)
@given(ab=_NUMERATOR, cd=_DIVISOR)
def test_division_agrees_with_the_exact_quotient(divide, ab, cd):
    v, w = complex(*ab), complex(*cd)
    assume(w)
    x, y = _exact(v, w)
    top = max(abs(x), abs(y))
    if top > _ABOVE_MAX:
        # past the largest float: not finite, for the guard to refuse
        q = divide(v, w)
        assert not (math.isfinite(q.real) and math.isfinite(q.imag))
    elif not top:
        assert divide(v, w) == 0
    elif top <= _HALF_TINY:
        # both exact parts round to zero
        with pytest.raises(StarUnderflowError, match="underflows to zero"):
            divide(v, w)
    elif x * x + y * y >= Fraction(MIN_NORMAL) ** 2 and top <= _BELOW_MAX:
        q = divide(v, w)
        err = (Fraction(q.real) - x) ** 2 + (Fraction(q.imag) - y) ** 2
        assert err <= (K * Fraction(EPS)) ** 2 * (x * x + y * y), (v, w, q)
    # a subnormal quotient is the subject of the open subnormal item


@ROUTES
@pytest.mark.parametrize(
    "v, w, want",
    [
        # the plain division's scaled denominator overflows, so the
        # quotient came out zero
        (complex(1e300, 0), complex(1e308, 1e308), complex(5e-09, -5e-09)),
        # inf / inf in the plain division: NaN
        (complex(1e308, 1e308), complex(1e308, 1e308), complex(1.0, 0.0)),
        # a numerator past half the float maximum: the plain one is inf
        (complex(1e308, 1e308), complex(1, 1), complex(1e308, 0.0)),
        # a subnormal quotient, representable since it is nonzero
        (complex(1, 0), complex(1e308, 1e308), complex(5e-309, -5e-309)),
    ],
)
def test_a_representable_quotient_is_no_longer_refused(divide, v, w, want):
    q = divide(v, w)
    assert q == want
    assert math.copysign(1.0, q.imag) == math.copysign(1.0, want.imag)


@ROUTES
def test_a_quotient_whose_exact_parts_round_to_zero_is_still_refused(divide):
    with pytest.raises(StarUnderflowError, match="underflows to zero"):
        divide(complex(1e-320, 0), complex(1e308, 1e308))


@ROUTES
def test_a_quotient_past_the_largest_float_stays_infinite(divide):
    q = divide(complex(1e308, 0), complex(1e-10, 0))
    assert q.real == math.inf


@ROUTES
def test_dividing_by_zero_is_refused(divide):
    with pytest.raises(StarDivisionError):
        divide(complex(1, 0), 0j)


@ROUTES
def test_a_subnormal_divisor_is_divided_correctly_rounded(divide):
    # the plain quotient is finite and nonzero, but its scaled denominator
    # rounds in the subnormal range, and its real part is 6% above the
    # exact one; the division on rescaled operands rounds both parts
    # correctly
    v, w = complex(0.0, 8.371095235526037e-65), complex(5e-324, 2e-323)
    assert (v / w).real == 4.235821345801405e+258
    x, y = _exact(v, w)
    q = divide(v, w)
    assert (q.real, q.imag) == (float(x), float(y))
    assert q.real == 3.986655384283675e+258


@ROUTES
def test_a_subnormal_numerator_is_divided_correctly_rounded(divide):
    # the plain quotient is finite and nonzero, but it forms the
    # numerator's combination in the subnormal range, and its real part is
    # 4.5% off the exact one; the division on rescaled operands is within
    # one rounding of it
    v = complex(1e-323, 5e-324)
    w = complex(-2.2185844075217563e-278, -9.475570601166854e-277)
    assert (v / w).real == -5.211242329389614e-48
    x, y = _exact(v, w)
    q = divide(v, w)
    assert q.real == -5.4552715591307207e-48
    assert q.imag == float(y)
    assert abs(Fraction(q.real) - x) <= EPS * abs(x)

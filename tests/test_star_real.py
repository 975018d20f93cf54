import math

import pytest
from hypothesis import given, strategies as st

from staralg import (
    CUBE,
    EXP,
    IDENTITY,
    GeneratorMismatchError,
    NegativeSqrtError,
    StarDivisionError,
    StarReal,
    arith,
    compare,
    from_preimage,
    series_sum,
    sqrt,
    square,
)

GENS = (IDENTITY, EXP, CUBE)


def test_arith_oracles_identity():
    y = from_preimage(IDENTITY, 2.0)
    z = from_preimage(IDENTITY, 3.0)
    assert arith("add", y, z).image == 5.0
    assert arith("sub", y, z).image == -1.0
    assert arith("mul", y, z).image == 6.0
    assert arith("div", y, z).image == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_arith_oracles_exp():
    # images e^2 and e^3; operations act on the exponents
    y = from_preimage(EXP, 2.0)
    z = from_preimage(EXP, 3.0)
    assert arith("add", y, z).image == pytest.approx(math.exp(5.0), rel=1e-14)
    assert arith("mul", y, z).image == pytest.approx(math.exp(6.0), rel=1e-14)
    # adding e^2 and e^3 as raw images would give ~27.47; the line's sum
    # is e^5 ~ 148.41, which is the whole point
    assert arith("add", y, z).image > y.image + z.image


def test_arith_oracles_cube_from_images():
    # start from image values 2 and 3: preimages are the cube roots
    y = StarReal(CUBE, 2.0)
    z = StarReal(CUBE, 3.0)
    expected = (2.0 ** (1.0 / 3.0) + 3.0 ** (1.0 / 3.0)) ** 3
    assert arith("add", y, z).image == pytest.approx(expected, rel=1e-13)


def test_division_by_line_zero():
    y = from_preimage(EXP, 2.0)
    z = from_preimage(EXP, 0.0)  # image 1.0, the line's zero
    assert z.image == 1.0
    with pytest.raises(StarDivisionError):
        arith("div", y, z)


def test_generator_mismatch_rejected():
    with pytest.raises(GeneratorMismatchError):
        arith("add", from_preimage(EXP, 1.0), from_preimage(CUBE, 1.0))


def test_compare_uses_preimages():
    lo = from_preimage(EXP, -4.0)
    hi = from_preimage(EXP, 0.5)
    assert compare(lo, hi) == -1
    assert compare(hi, lo) == 1
    assert compare(lo, from_preimage(EXP, -4.0)) == 0


def test_square_and_sqrt_invert():
    for g in GENS:
        b = from_preimage(g, 1.7)
        assert sqrt(square(b)).preimage == pytest.approx(1.7, rel=1e-12)
    # rounding debris clamps to zero; genuine negatives are rejected
    tiny = from_preimage(IDENTITY, -1e-13)
    assert sqrt(tiny).preimage == 0.0
    with pytest.raises(NegativeSqrtError):
        sqrt(from_preimage(IDENTITY, -1e-6))


def test_series_geometric_closed_form():
    for g in GENS:
        r = 0.5
        terms = (from_preimage(g, r**n) for n in range(200))
        res = series_sum(terms, tol=1e-12)
        assert res.converged
        assert res.reason is None
        assert res.sum.preimage == pytest.approx(2.0, abs=1e-10)


def test_series_constant_terms_hit_max_terms():
    terms = (from_preimage(IDENTITY, 1.0) for _ in range(10_000))
    res = series_sum(terms, max_terms=100)
    assert not res.converged
    assert res.reason == "max_terms"
    assert res.terms_used == 100
    assert res.sum.preimage == 100.0


def test_series_overflow_reported_on_exp_line():
    # powers of 2 push the partial sums past the exp working domain
    terms = (from_preimage(EXP, 2.0**n) for n in range(2000))
    res = series_sum(terms)
    assert not res.converged
    assert res.reason == "overflow"


def test_series_divergence_reported_on_identity_line():
    terms = (from_preimage(IDENTITY, 3.0**n) for n in range(200))
    res = series_sum(terms)
    assert not res.converged
    assert res.reason == "diverged"


def test_series_finite_stream_is_exact():
    res = series_sum([from_preimage(IDENTITY, v) for v in (1.0, 2.0, 3.5)])
    assert res.converged
    assert res.terms_used == 3
    assert res.sum.preimage == 6.5


def test_series_rejects_empty_and_bad_tol():
    with pytest.raises(ValueError):
        series_sum([])
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            series_sum([from_preimage(IDENTITY, 1.0)], tol=tol)


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50),
)
def test_add_commutes_on_every_line(p, q):
    for g in GENS:
        y, z = from_preimage(g, p), from_preimage(g, q)
        assert arith("add", y, z).image == arith("add", z, y).image


@given(st.floats(min_value=-30, max_value=30))
def test_additive_inverse_property(p):
    for g in GENS:
        y = from_preimage(g, p)
        neg = arith("sub", from_preimage(g, 0.0), y)
        back = arith("add", y, neg)
        assert abs(back.preimage) <= 1e-10 * max(1.0, abs(p))

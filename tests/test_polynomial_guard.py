"""Polynomials are guarded once per result, over all their coefficients.

A polynomial stores one tuple of coefficient preimages, and each result
of ``poly_add``, ``poly_scalar_mul``, ``poly_mul`` and ``poly_to_grid``
passes ``guard_points`` once, as ``c_mul`` and ``fn_mul`` guard theirs;
``poly_eval`` guards its value. Two things follow, both pinned here:

1. a refused coefficient is named by its index (`` at point i``);
2. a partial sum of ``poly_mul``'s convolution or a partial value of
   Horner's rule may leave a generator's working domain on the way, as
   long as the result does not. Before, each partial step passed the
   guard, so such inputs were refused.
"""

import pytest

from staralg import (
    GeneratorOverflowError,
    from_preimages,
    make_disk_domain,
    neumann_inverse,
    pair_of,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scalar_mul,
    poly_to_grid,
    polynomial_algebra,
)
from staralg.algebra import StarPolynomial

II = pair_of("identity", "identity")
EE = pair_of("exp", "exp")
EXP_DOMAIN = r"outside the working domain \[-700\.0, 700\.0\]"


def _real(pair, *preimages):
    """The polynomial with these real coefficient preimages."""
    return StarPolynomial(
        pair, tuple(from_preimages(pair, a, 0.0) for a in preimages)
    )


def _preimages(p):
    return [c.preimages for c in p.coefficients]


def test_refused_coefficient_is_named_by_its_index():
    p = _real(EE, 1.0, 2.0, 80.0)
    with pytest.raises(
        GeneratorOverflowError, match=rf"^exp: preimage 800\.0 {EXP_DOMAIN} at point 2$"
    ):
        poly_scalar_mul(from_preimages(EE, 10.0, 0.0), p)
    with pytest.raises(GeneratorOverflowError, match=r"preimage 900\.0 .* at point 1$"):
        poly_add(_real(EE, 0.0, 450.0), _real(EE, 0.0, 450.0))
    with pytest.raises(GeneratorOverflowError, match=r"preimage 900\.0 .* at point 2$"):
        poly_mul(_real(EE, 1.0, 30.0), _real(EE, 1.0, 30.0))


def test_convolution_partial_sum_outside_the_domain_is_not_refused():
    p = _real(EE, 20.0, -20.0, -25.0)
    q = _real(EE, -15.0, 15.0, -25.0)
    # the middle coefficient folds 20*-25 + -20*15 = -800, then adds
    # -25*-15 = 375; every product and every coefficient is in range
    assert _preimages(poly_mul(p, q)) == [
        (-300.0, 0.0), (600.0, 0.0), (-425.0, 0.0), (125.0, 0.0), (625.0, 0.0)
    ]


def test_horner_partial_value_outside_the_domain_is_not_refused():
    # 400 * 2 = 800 leaves exp's domain; 800 - 500 = 300 does not
    v = poly_eval(_real(EE, -500.0, 400.0), from_preimages(EE, 2.0, 0.0))
    assert v.preimages == (300.0, 0.0)


@pytest.mark.parametrize("beta", ["identity", "exp"])
@pytest.mark.parametrize("alpha", ["identity", "cube"])
def test_series_inverse_through_large_real_coefficients(alpha, beta):
    """1 - 1.4z: the coefficients of its inverse are real and reach 2.3e9,
    and only Horner partial values at the lattice's complex points leave
    exp's domain. The inverse is the same on every pair whose alpha
    takes such coefficients."""
    pair = pair_of(alpha, beta)
    A = polynomial_algebra(make_disk_domain(pair, 2, 8))
    rep = neumann_inverse(A, poly_add(A.unit, _real(pair, 0.0, -1.4)))
    assert (rep.converged, rep.terms_used) == (True, 65)
    assert rep.residual.preimage == 8.538323413450851e-11
    assert rep.residual_reversed.preimage == rep.residual.preimage
    assert _preimages(rep.inverse)[-1] == (2250060954.664133, 0.0)
    assert all(b == 0.0 for _, b in _preimages(rep.inverse))


def test_results_out_of_range_are_still_refused():
    # exp's alpha cannot hold the coefficients of 1/(1 - 1.4z) past 1.4**19
    A = polynomial_algebra(make_disk_domain(EE, 2, 8))
    x = poly_add(A.unit, _real(EE, 0.0, -1.4))
    with pytest.raises(
        GeneratorOverflowError,
        match=rf"^exp: preimage -836\.682554252847 {EXP_DOMAIN} at point 20$",
    ):
        neumann_inverse(A, x)
    # infinities and NaN fail the guard as well
    h = StarPolynomial(II, (from_preimages(II, 1e308, 1e308),))
    with pytest.raises(GeneratorOverflowError, match=r"preimage inf .* at point 0$"):
        poly_scalar_mul(from_preimages(II, 10.0, 0.0), h)
    with pytest.raises(GeneratorOverflowError, match=r"preimage nan .* at point 0$"):
        poly_mul(h, h)
    # at the lattice's point 1, w = 1/2: 1.7e308 + 1.7e308 w overflows
    with pytest.raises(GeneratorOverflowError, match=r"preimage inf .* at point 1$"):
        poly_to_grid(_real(II, 1.7e308, 1.7e308), make_disk_domain(II, 1, 4))


def test_no_coefficients_are_refused_as_the_constructor_refuses():
    # before, of_preimages built a polynomial of degree -1, on which
    # poly_eval and poly_to_grid died with IndexError
    for build in (lambda: StarPolynomial(II, ()), lambda: StarPolynomial.of_preimages(II, ())):
        with pytest.raises(ValueError, match="^a polynomial needs at least one coefficient$"):
            build()

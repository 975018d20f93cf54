import random

import pytest

from staralg import (
    EvaluationIdeal,
    GridFunction,
    HomomorphismHandle,
    MissingInvolutionError,
    StarComplex,
    from_preimages,
    c_add,
    c_div,
    c_norm,
    evaluation_functional,
    fn_add,
    fn_scalar_mul,
    grid_algebra,
    homomorphism_check,
    ideal_membership,
    kernel_image_closure_check,
    kernel_membership,
    make_disk_domain,
    one,
    pair_of,
    polynomial_algebra,
    preimage_close,
    quotient_map,
    quotient_norm,
    random_sample,
    scalar_algebra,
    star_homomorphism_check,
    unital_functional_check,
    zero,
)

IE = pair_of("identity", "exp")


@pytest.fixture
def dom(pair):
    return make_disk_domain(pair, 2, 8)


@pytest.fixture
def phi(dom):
    return evaluation_functional(dom, dom.points[3])


def fn_sub(f, g):
    minus_one = from_preimages(f.domain.pair, -1.0, 0.0)
    return fn_add(f, fn_scalar_mul(minus_one, g))


def test_functional_shape(dom, phi):
    assert phi.source.name == "grid"
    assert phi.target.name == "scalar"
    f = random_sample("grid-function", dom.pair, seed=1, domain=dom)
    assert phi.map(f) == f.values[3]


def test_functional_rejects_off_grid_points(dom):
    far = from_preimages(dom.pair, 10.0, 10.0)
    with pytest.raises(ValueError):
        evaluation_functional(dom, far)


def test_homomorphism_check_passes_and_flips_flags(dom, phi):
    assert not phi.linear_verified
    report = homomorphism_check(phi, trials=60, seed=2)
    assert report.passed, report.counterexample
    assert phi.linear_verified and phi.multiplicative_verified


def test_star_homomorphism_check(dom, phi):
    report = star_homomorphism_check(phi, trials=60, seed=3)
    assert report.passed, report.counterexample
    assert phi.star_verified


def test_star_check_needs_involutions(dom):
    P = polynomial_algebra(dom)
    to_scalar = HomomorphismHandle(
        source=P,
        target=scalar_algebra(dom.pair),
        map=lambda p: p.coefficients[0] if p.coefficients else None,
        name="constant term",
    )
    with pytest.raises(MissingInvolutionError):
        star_homomorphism_check(to_scalar, trials=5)


def test_unital_functional_check(dom, phi):
    report = unital_functional_check(phi, trials=60, seed=4)
    assert report.passed, report.counterexample
    assert phi.unital_verified


def test_kernel_image_closure(dom, phi):
    report = kernel_image_closure_check(phi, trials=60, seed=5)
    assert report.passed, report.counterexample
    assert report.suite == "kernel-image-closure"


def test_broken_map_fails_and_flags_stay_down(dom):
    honest = evaluation_functional(dom, dom.points[2])
    offset = one(dom.pair)
    honest.map, plain = (lambda f: c_add(f.values[2], offset)), honest.map
    report = homomorphism_check(honest, trials=40, seed=6)
    assert not report.passed
    assert report.counterexample["law"] in ("linear", "multiplicative")
    assert not honest.linear_verified and not honest.multiplicative_verified
    del plain


def test_map_that_raises_fails_the_check(dom):
    # the morphism checks share the axiom harness's trial runner: a law
    # that raises is a failed law with the error text, not an escape
    h = evaluation_functional(dom, dom.points[2])
    h.map = lambda f: c_div(f.values[2], zero(dom.pair))
    report = homomorphism_check(h, trials=5, seed=6)
    assert not report.passed
    assert report.counterexample["law"] == "linear"
    assert "additive zero" in report.counterexample["error"]
    assert not h.linear_verified and not h.multiplicative_verified


def test_kernel_matches_ideal_membership(dom, phi):
    # the kernel of evaluation at p is exactly the ideal vanishing at p
    ideal = EvaluationIdeal(dom, dom.points[3])
    z = from_preimages(dom.pair, 0.0, 0.0)
    rng = random.Random(7)
    for _ in range(40):
        f = random_sample(
            "grid-function", dom.pair, seed=rng.randrange(1 << 30), domain=dom
        )
        pinned = GridFunction(
            dom, tuple(z if i == 3 else v for i, v in enumerate(f.values))
        )
        assert kernel_membership(phi, pinned)
        assert ideal_membership(ideal, pinned)
        if abs(f.values[3].as_complex) > 1e-6:
            assert kernel_membership(phi, f) == ideal_membership(ideal, f) == False


def test_kernel_closure_requires_scalar_target():
    dom = make_disk_domain(IE, 1, 4)
    A = grid_algebra(dom)
    ident = HomomorphismHandle(source=A, target=A, map=lambda x: x, name="id")
    with pytest.raises(ValueError):
        kernel_image_closure_check(ident, trials=5)


def test_quotient_map_invariants(dom):
    ideal = EvaluationIdeal(dom, dom.points[5])
    f = random_sample("grid-function", dom.pair, seed=8, domain=dom)
    coset = quotient_map(f, ideal)
    assert coset.ideal is ideal
    assert coset.value == f.values[5]
    # representative: the constant function at the base-point value
    assert all(v == coset.value for v in coset.representative.values)
    assert preimage_close(
        coset.norm.preimage, quotient_norm(f, ideal).preimage, abs_tol=0.0
    )
    # f minus its representative lands in the ideal
    assert ideal_membership(ideal, fn_sub(f, coset.representative), tol=1e-9)


def test_quotient_norm_is_evaluation_modulus(dom):
    ideal = EvaluationIdeal(dom, dom.points[1])
    for seed in range(10):
        f = random_sample("grid-function", dom.pair, seed=seed, domain=dom)
        lhs = quotient_norm(f, ideal).preimage
        rhs = c_norm(f.values[1]).preimage
        assert preimage_close(lhs, rhs, abs_tol=0.0)


def test_shifting_by_an_ideal_member_fixes_the_coset():
    dom = make_disk_domain(IE, 2, 8)
    ideal = EvaluationIdeal(dom, dom.points[0])
    f = random_sample("grid-function", IE, seed=20, domain=dom)
    member = fn_sub(f, quotient_map(f, ideal).representative)
    assert ideal_membership(ideal, member)
    shifted = quotient_map(fn_add(f, member), ideal)
    assert shifted.value == quotient_map(f, ideal).value


def test_scalar_identity_functional():
    # the identity on the scalars is a unital star homomorphism
    A = scalar_algebra(IE)
    ident = HomomorphismHandle(source=A, target=A, map=lambda x: x, name="id")
    assert homomorphism_check(ident, trials=50, seed=9).passed
    assert star_homomorphism_check(ident, trials=50, seed=9).passed
    assert unital_functional_check(ident, trials=50, seed=9).passed
    assert ident.linear_verified and ident.star_verified and ident.unital_verified

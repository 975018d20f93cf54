import math
import random
from dataclasses import replace

import pytest

from staralg import (
    DomainMismatchError,
    EvaluationIdeal,
    GridFunction,
    MissingInvolutionError,
    StarComplex,
    approx_eq,
    c_conj,
    c_mul,
    c_norm,
    classify_element,
    coordinate_function,
    fn_add,
    fn_involution,
    fn_mul,
    fn_scalar_mul,
    fn_sub,
    from_preimages,
    grid_algebra,
    grid_constant,
    hermitian_parts,
    ideal_membership,
    make_disk_domain,
    one,
    pair_of,
    quotient_norm,
    random_point,
    scalar_algebra,
    sup_norm,
    zero,
)

IE = pair_of("identity", "exp")


def test_disk_domain_shapes(pair):
    assert len(make_disk_domain(pair, 1, 4)) == 5
    assert len(make_disk_domain(pair, 2, 8)) == 17
    dom = make_disk_domain(pair, 2, 8)
    # all points inside the radius-1/2 disk, origin included
    mods = [abs(p.as_complex) for p in dom.points]
    assert min(mods) == 0.0
    assert max(mods) <= 0.5 + 1e-12
    assert dom.index_of(from_preimages(pair, 0.0, 0.0)) == 0
    # matching is tolerant at 1e-9 on preimages
    assert dom.index_of(from_preimages(pair, -0.5, 0.0)) == dom.index_of(
        from_preimages(pair, -0.5, 1e-12)
    )
    with pytest.raises(ValueError):
        dom.index_of(from_preimages(pair, 0.123, 0.456))


def test_disk_domain_rejects_degenerate():
    with pytest.raises(ValueError):
        make_disk_domain(IE, 0, 8)
    with pytest.raises(ValueError):
        make_disk_domain(IE, 2, 2)


def test_pointwise_ops_and_sup_norm():
    dom = make_disk_domain(IE, 1, 4)
    f = coordinate_function(dom)
    g = grid_constant(dom, one(IE))
    h = fn_add(f, g)  # z + 1
    # sup |z + 1| over the lattice: the point z = 1/2 gives 3/2
    assert sup_norm(h).preimage == pytest.approx(1.5, rel=1e-13)
    prod = fn_mul(h, h)
    assert sup_norm(prod).preimage == pytest.approx(2.25, rel=1e-13)
    scaled = fn_scalar_mul(from_preimages(IE, 0.0, 2.0), f)  # 2i * z
    assert sup_norm(scaled).preimage == pytest.approx(1.0, rel=1e-13)
    starred = fn_involution(f)
    assert starred.values[2].preimages == pytest.approx(
        (f.values[2].preimages[0], -f.values[2].preimages[1]), abs=1e-12
    )


def test_domain_mismatch_rejected():
    f = coordinate_function(make_disk_domain(IE, 1, 4))
    g = coordinate_function(make_disk_domain(IE, 2, 8))
    with pytest.raises(DomainMismatchError):
        fn_add(f, g)


def test_sup_norm_is_a_beta_value():
    dom = make_disk_domain(pair_of("identity", "exp"), 1, 4)
    n = sup_norm(coordinate_function(dom))
    assert n.gen.name == "exp"
    assert n.preimage == pytest.approx(0.5, abs=1e-14)
    assert n.image == pytest.approx(math.exp(0.5), rel=1e-14)


def test_ideal_membership_and_quotient_norm():
    dom = make_disk_domain(IE, 2, 8)
    # f(z) = z - 1/2 vanishes at the grid point 1/2
    at = from_preimages(IE, 0.5, 0.0)
    f = fn_sub(coordinate_function(dom), grid_constant(dom, at))
    ideal = EvaluationIdeal(dom, at)
    assert ideal_membership(ideal, f)
    assert quotient_norm(f, ideal).preimage == pytest.approx(0.0, abs=1e-12)
    g = grid_constant(dom, from_preimages(IE, 0.25, 0.0))
    assert not ideal_membership(ideal, g)
    assert quotient_norm(g, ideal).preimage == pytest.approx(0.25, rel=1e-13)


def test_evaluation_ideal_requires_grid_point():
    dom = make_disk_domain(IE, 1, 4)
    with pytest.raises(ValueError):
        EvaluationIdeal(dom, from_preimages(IE, 0.3, 0.3))


def test_the_ideal_index_is_resolved_once_and_stays_out_of_repr_and_eq():
    dom = make_disk_domain(IE, 1, 4)
    ideal = EvaluationIdeal(dom, dom.points[2])
    assert ideal.index == 2
    assert repr(ideal) == f"EvaluationIdeal(domain={dom!r}, point={dom.points[2]!r})"
    assert ideal == EvaluationIdeal(dom, dom.points[2])
    assert ideal != EvaluationIdeal(dom, dom.points[3])
    # replace resolves the index of the new point, and validates it
    assert replace(ideal, point=dom.points[3]).index == 3
    with pytest.raises(ValueError, match="not on the grid"):
        replace(ideal, point=from_preimages(IE, 0.3, 0.3))


def test_a_carrier_record_shows_its_name_and_pair():
    # the record's functions stay out of its text
    assert repr(scalar_algebra(IE)) == "Algebra(scalar, pair=('identity', 'exp'))"
    dom = make_disk_domain(pair_of("exp", "exp"), 1, 4)
    assert repr(grid_algebra(dom)) == "Algebra(grid, pair=('exp', 'exp'))"


def test_classify_scalar_elements(pair):
    A = scalar_algebra(pair)
    herm = from_preimages(pair, 1.5, 0.0)
    cls = classify_element(A, herm)
    assert cls.hermitian and cls.normal and not cls.unitary
    # unit-modulus element: unitary and normal, not hermitian
    u = from_preimages(pair, math.cos(0.7), math.sin(0.7))
    cls = classify_element(A, u)
    assert cls.unitary and cls.normal and not cls.hermitian
    # every scalar is normal (the field commutes)
    anyv = from_preimages(pair, 1.1, -2.2)
    assert classify_element(A, anyv).normal


def test_classify_grid_elements():
    dom = make_disk_domain(IE, 1, 4)
    A = grid_algebra(dom)
    # real-axis-valued functions are hermitian
    f = GridFunction(
        dom, tuple(from_preimages(IE, float(k), 0.0) for k in range(len(dom)))
    )
    assert classify_element(A, f).hermitian
    # pointwise unit-modulus functions are unitary
    u = GridFunction(
        dom,
        tuple(
            from_preimages(IE, math.cos(0.3 * k), math.sin(0.3 * k))
            for k in range(len(dom))
        ),
    )
    cls = classify_element(A, u)
    assert cls.unitary and cls.normal


def test_classify_requires_involution():
    dom = make_disk_domain(IE, 1, 4)
    A = replace(grid_algebra(dom), involution=None)
    with pytest.raises(MissingInvolutionError):
        classify_element(A, A.unit)


def test_hermitian_parts_scalar_oracle(pair):
    A = scalar_algebra(pair)
    x = from_preimages(pair, 3.0, 4.0)
    u, v = hermitian_parts(A, x)
    assert u.preimages == pytest.approx((3.0, 0.0), abs=1e-12)
    assert v.preimages == pytest.approx((4.0, 0.0), abs=1e-12)
    assert classify_element(A, u).hermitian
    assert classify_element(A, v).hermitian
    # x = u + i v reconstructs
    i_v = c_mul(from_preimages(pair, 0.0, 1.0), v)
    assert approx_eq(A.add(u, i_v), x, rel=1e-12)


def test_hermitian_parts_grid(pair):
    dom = make_disk_domain(pair, 1, 4)
    A = grid_algebra(dom)
    rng = random.Random(11)
    f = A.sample(rng)
    u, v = hermitian_parts(A, f)
    assert classify_element(A, u).hermitian
    assert classify_element(A, v).hermitian
    iv = A.scalar_mul(from_preimages(pair, 0.0, 1.0), v)
    assert A.distance(A.add(u, iv), f) <= 1e-9


def test_carrier_samples_kinds(pair):
    # the scalar carrier draws one field point, as random_point draws it;
    # the grid carrier draws one value per grid point, all over the pair
    x = scalar_algebra(pair).sample(random.Random(1))
    assert isinstance(x, StarComplex) and x.pair == pair
    assert x == random_point(random.Random(1), pair)
    assert all(-3.0 <= t <= 3.0 for t in x.preimages)
    dom = make_disk_domain(pair, 2, 8)
    f = grid_algebra(dom).sample(random.Random(1))
    assert isinstance(f, GridFunction) and f.domain is dom
    assert len(f.values) == 17
    assert all(v.pair == pair for v in f.values)


def test_carrier_samples_are_seed_deterministic(pair):
    for A in (scalar_algebra(pair), grid_algebra(make_disk_domain(pair, 2, 8))):
        a = A.sample(random.Random(9))
        assert a == A.sample(random.Random(9))
        assert a != A.sample(random.Random(10))


def test_scalar_conj_is_the_scalar_involution(pair):
    A = scalar_algebra(pair)
    x = from_preimages(pair, 1.25, -0.5)
    assert approx_eq(A.involution(x), c_conj(x))
    assert c_norm(A.involution(x)).preimage == pytest.approx(
        c_norm(x).preimage, rel=1e-13
    )


def test_algebra_zero_and_unit(pair):
    A = scalar_algebra(pair)
    assert A.zero.preimages == (0.0, 0.0)
    assert A.unit.preimages == (1.0, 0.0)
    dom = make_disk_domain(pair, 1, 4)
    G = grid_algebra(dom)
    assert sup_norm(G.unit).preimage == pytest.approx(1.0, abs=1e-14)
    assert sup_norm(G.zero).preimage == 0.0
    assert approx_eq(G.zero.values[0], zero(pair))

import math
import random

import pytest
from hypothesis import given, strategies as st

from staralg import (
    GeneratorOverflowError,
    PairMismatchError,
    StarDivisionError,
    approx_eq,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_neg,
    c_norm,
    c_sub,
    constants,
    dual_mode_eval,
    eval_classical,
    from_classical,
    from_preimages,
    i_unit,
    one,
    pair_of,
    parse_expr,
    safe_random_tree,
    zero,
)


def test_field_op_oracles(pair):
    z = from_preimages(pair, 1.0, 2.0)
    w = from_preimages(pair, 3.0, 4.0)
    assert c_add(z, w).preimages == pytest.approx((4.0, 6.0), rel=1e-14)
    assert c_sub(z, w).preimages == pytest.approx((-2.0, -2.0), rel=1e-14)
    assert c_mul(z, w).preimages == pytest.approx((-5.0, 10.0), rel=1e-14)
    assert c_div(z, w).preimages == pytest.approx((11 / 25, 2 / 25), rel=1e-13)
    assert c_conj(w).preimages == pytest.approx((3.0, -4.0), rel=1e-14)
    assert c_neg(w).preimages == pytest.approx((-3.0, -4.0), rel=1e-14)


def test_norm_is_beta_value(pair):
    w = from_preimages(pair, 3.0, 4.0)
    n = c_norm(w)
    assert n.gen == pair.beta
    assert n.preimage == pytest.approx(5.0, rel=1e-14)
    assert n.image == pytest.approx(pair.beta.forward(5.0), rel=1e-14)


def test_constants(pair):
    c = constants(pair)
    assert c.zero.preimages == (0.0, 0.0)
    assert c.one.preimages == (1.0, 0.0)
    assert c.i_unit.preimages == (0.0, 1.0)
    # the imaginary unit squares to the negated one
    sq = c_mul(c.i_unit, c.i_unit)
    assert approx_eq(sq, c_neg(c.one))
    # images follow the generators
    assert c.zero.a.image == pair.alpha.forward(0.0)
    assert c.one.a.image == pair.alpha.forward(1.0)


def test_field_identities(pair):
    z = from_preimages(pair, -1.25, 0.75)
    assert approx_eq(c_add(z, zero(pair)), z)
    assert approx_eq(c_mul(z, one(pair)), z)
    assert approx_eq(c_mul(z, c_div(one(pair), z)), one(pair), rel=1e-12)
    # conj multiplies to the squared modulus on the real axis
    m = c_mul(z, c_conj(z))
    assert m.preimages[1] == pytest.approx(0.0, abs=1e-12)
    assert m.preimages[0] == pytest.approx(abs(z.as_complex) ** 2, rel=1e-12)


def test_division_by_zero(pair):
    with pytest.raises(StarDivisionError):
        c_div(one(pair), zero(pair))


def test_pair_mismatch_rejected():
    z = from_preimages(pair_of("identity", "exp"), 1.0, 2.0)
    w = from_preimages(pair_of("exp", "exp"), 1.0, 2.0)
    with pytest.raises(PairMismatchError):
        c_add(z, w)


def test_from_classical_round_trip(pair):
    w = complex(-0.75, 2.5)
    assert from_classical(pair, w).as_complex == pytest.approx(w, rel=1e-14)


def test_dual_mode_eval_agrees_on_fixed_exprs(pair):
    for src in (
        "((1,2)+(3,4))*(0,1)",
        "conj((1,2))/(0.5,-0.25)",
        "norm((3,4))+(1,0)",
        "-(2,1)*i+1",
    ):
        tree = parse_expr(src)
        direct = dual_mode_eval(tree, pair, "direct")
        pullback = dual_mode_eval(tree, pair, "pullback")
        assert approx_eq(direct, pullback, rel=1e-9), src


def test_dual_mode_eval_binds_z(pair):
    tree = parse_expr("z*conj(z)")
    at = from_preimages(pair, 0.3, -0.4)
    direct = dual_mode_eval(tree, pair, "direct", z=at)
    assert direct.preimages == pytest.approx((0.25, 0.0), abs=1e-12)
    pullback = dual_mode_eval(tree, pair, "pullback", z=at)
    assert approx_eq(direct, pullback)


def test_dual_mode_norm_as_subexpression(pair):
    # norm() of anything sits on the real axis and composes onward
    tree = parse_expr("norm((3,4))*i")
    direct = dual_mode_eval(tree, pair, "direct")
    assert direct.preimages == pytest.approx((0.0, 5.0), rel=1e-13)


def test_dual_mode_rejects_unknown_mode(pair):
    with pytest.raises(ValueError):
        dual_mode_eval(parse_expr("1"), pair, "sideways")


def test_error_carries_offending_subterm(pair):
    tree = parse_expr("(1,0)+(2,0)/((1,0)-(1,0))")
    with pytest.raises(StarDivisionError) as exc:
        dual_mode_eval(tree, pair, "direct")
    assert exc.value.subterm == "(2.0,0.0)/((1.0,0.0)-(1.0,0.0))"


def test_random_trees_agree_across_modes(pair):
    rng = random.Random(99)
    for _ in range(150):
        tree = safe_random_tree(rng, max_depth=6)
        direct = dual_mode_eval(tree, pair, "direct")
        pullback = dual_mode_eval(tree, pair, "pullback")
        assert approx_eq(direct, pullback, rel=1e-9)


def test_identity_pair_matches_classical_exactly():
    pair = pair_of("identity", "identity")
    rng = random.Random(31337)
    for _ in range(200):
        tree = safe_random_tree(rng, max_depth=5)
        direct = dual_mode_eval(tree, pair, "direct").as_complex
        classical = eval_classical(tree)
        assert abs(direct - classical) <= 1e-12 * max(1.0, abs(classical))


def _extreme(sign, mantissa, exponent):
    return sign * mantissa * 10.0**exponent


_EXTREME = st.builds(
    _extreme,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=-300, max_value=300),
)


@given(_EXTREME, _EXTREME, _EXTREME, _EXTREME)
def test_c_div_matches_complex_division_at_extreme_magnitudes(a, b, c, d):
    pair = pair_of("identity", "identity")
    z, w = complex(a, b), complex(c, d)
    want = z / w
    if not (math.isfinite(want.real) and math.isfinite(want.imag)):
        with pytest.raises(GeneratorOverflowError):
            c_div(from_classical(pair, z), from_classical(pair, w))
        return
    got = c_div(from_classical(pair, z), from_classical(pair, w)).as_complex
    assert got == want

import dataclasses
import math
import sys

import pytest
from hypothesis import given, strategies as st

from staralg import (
    CUBE,
    EXP,
    IDENTITY,
    Generator,
    GeneratorDomainError,
    GeneratorOverflowError,
    GeneratorPair,
    apply_forward,
    apply_inverse,
    builtin_generator,
    builtin_names,
    from_preimages,
    guard,
    pair_of,
)


def test_builtin_lookup():
    assert builtin_generator("identity") is IDENTITY
    assert builtin_generator("exp") is EXP
    assert builtin_generator("cube") is CUBE
    assert builtin_names() == ("cube", "exp", "identity")
    with pytest.raises(ValueError):
        builtin_generator("sinh")


def test_forward_oracles():
    assert apply_forward(IDENTITY, 2.5) == 2.5
    assert apply_forward(EXP, 2.0) == math.exp(2.0)
    assert apply_forward(CUBE, 2.0) == 8.0
    assert apply_forward(CUBE, -2.0) == -8.0


def test_inverse_oracles():
    assert apply_inverse(IDENTITY, -3.25) == -3.25
    assert apply_inverse(EXP, math.e) == pytest.approx(1.0, rel=1e-15)
    assert apply_inverse(CUBE, 8.0) == pytest.approx(2.0, rel=1e-15)
    assert apply_inverse(CUBE, -27.0) == pytest.approx(-3.0, rel=1e-15)


def test_exp_clamp_is_two_sided():
    # the working domain keeps images finite and strictly positive
    assert apply_forward(EXP, 700.0) > 0
    assert apply_forward(EXP, -700.0) > 0
    with pytest.raises(GeneratorOverflowError):
        apply_forward(EXP, 700.5)
    with pytest.raises(GeneratorOverflowError):
        apply_forward(EXP, -700.5)


def test_identity_and_cube_overflow_on_huge_preimages():
    with pytest.raises(GeneratorOverflowError):
        apply_forward(CUBE, 1e150)
    with pytest.raises(GeneratorOverflowError):
        apply_forward(IDENTITY, math.inf)


def test_exp_domain_error_outside_image():
    with pytest.raises(GeneratorDomainError):
        apply_inverse(EXP, 0.0)
    with pytest.raises(GeneratorDomainError):
        apply_inverse(EXP, -1.0)


def test_pair_of():
    pair = pair_of("identity", "exp")
    assert pair.names == ("identity", "exp")
    with pytest.raises(ValueError):
        pair_of("identity", "nope")


def test_the_pair_guard_is_no_field():
    pair = GeneratorPair(IDENTITY, EXP)
    assert pair == pair_of("identity", "exp")
    assert hash(pair) == hash(pair_of("identity", "exp"))
    assert repr(pair) == "GeneratorPair(identity, exp)"
    assert [f.name for f in dataclasses.fields(pair)] == ["alpha", "beta"]
    assert pair.radius == 700.0
    assert pair.check(complex(-1e300, 700.0)) == complex(-1e300, 700.0)


def test_a_replaced_pair_guards_with_its_own_generators():
    pair = dataclasses.replace(pair_of("identity", "exp"), beta=CUBE)
    assert pair.radius == CUBE.t_max
    # exp refused 800, cube does not
    assert pair.check(800j) == 800j
    past = math.nextafter(CUBE.t_max, math.inf)
    with pytest.raises(GeneratorOverflowError) as want:
        guard(CUBE, past)
    with pytest.raises(GeneratorOverflowError) as got:
        pair.check(complex(0.0, past))
    assert str(got.value) == str(want.value)


@given(st.floats(min_value=-600.0, max_value=600.0))
def test_round_trip_inverse_of_forward(t):
    for g in (IDENTITY, EXP, CUBE):
        back = apply_inverse(g, apply_forward(g, t))
        assert abs(back - t) <= 1e-12 * max(1.0, abs(t))


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_strictly_increasing(t):
    eps = max(1e-6, abs(t) * 1e-6)
    for g in (IDENTITY, EXP, CUBE):
        assert apply_forward(g, t + eps) > apply_forward(g, t)


def test_preimage_intervals():
    assert (EXP.t_min, EXP.t_max) == (-700.0, 700.0)
    assert (CUBE.t_min, CUBE.t_max) == (-5.643803094122361e102, 5.643803094122361e102)
    big = sys.float_info.max
    assert (IDENTITY.t_min, IDENTITY.t_max) == (-big, big)
    # the cube interval is sharp: one float further, the cube overflows
    past = math.nextafter(CUBE.t_max, math.inf)
    assert math.isinf(past * past * past)


@pytest.mark.parametrize("g", [CUBE, EXP], ids=lambda g: g.name)
def test_guard_at_interval_ends(g):
    pair = pair_of(g.name, g.name)
    for end, outward in ((g.t_max, math.inf), (g.t_min, -math.inf)):
        assert g.in_range(apply_forward(g, end))
        assert from_preimages(pair, end, end).preimages == (end, end)
        past = math.nextafter(end, outward)
        with pytest.raises(GeneratorOverflowError):
            apply_forward(g, past)
        with pytest.raises(GeneratorOverflowError):
            from_preimages(pair, past, 0.0)
        with pytest.raises(GeneratorOverflowError):
            from_preimages(pair, 0.0, past)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_identity_refuses_non_finite_preimages(t):
    pair = pair_of("identity", "identity")
    with pytest.raises(GeneratorOverflowError):
        apply_forward(IDENTITY, t)
    with pytest.raises(GeneratorOverflowError):
        from_preimages(pair, t, 0.0)
    with pytest.raises(GeneratorOverflowError):
        from_preimages(pair, 0.0, t)


def test_generator_with_unrepresentable_interval_end_is_rejected():
    # e**-800 underflows to 0, outside the image interval (0, inf)
    with pytest.raises(ValueError):
        Generator("exp", math.exp, math.log, lo=0.0, t_min=-800.0, t_max=700.0)
    # e**710 overflows
    with pytest.raises(ValueError):
        Generator("exp", math.exp, math.log, lo=0.0, t_min=-700.0, t_max=710.0)
    # the default interval is every finite float, and 2 * DBL_MAX is not finite
    with pytest.raises(ValueError):
        Generator("double", lambda t: 2.0 * t, lambda y: 0.5 * y)

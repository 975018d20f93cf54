"""The residual path: the carriers' native ``sub`` and ``distance``.

The distance of the scalar and grid carriers must read exactly what
``c_norm(x + (-1)y)`` and ``sup_norm(f + (-1)g)`` read, and a record whose
measure was replaced (as in ``broken_norm``) must measure through it.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import staralg.algebra as algebra
from staralg import (
    DomainMismatchError,
    GeneratorOverflowError,
    GridFunction,
    PairMismatchError,
    broken_mul,
    broken_norm,
    from_preimages,
    grid_algebra,
    make_disk_domain,
    pair_of,
    scalar_algebra,
)

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]
PAIRS = [pair_of(a, b) for a, b in PAIR_NAMES]
IDS = [f"{a}-{b}" for a, b in PAIR_NAMES]
GRID_SIZE = 17  # the 2 x 8 lattice: the origin and two circles of 8


def _composed(A, x, y) -> float:
    """The distance as the carrier's own operations and its classical
    norm define it; the norm is looked up when called, so a counted one
    is seen."""
    norm = algebra.sup_norm if isinstance(x, GridFunction) else algebra.c_norm
    return norm(A.add(x, A.neg(y))).preimage


# Both parts within +-240 keep x, -y, x - y and the modulus of x - y
# inside exp's [-700, 700], so neither reading refuses a draw.
_part = st.floats(min_value=-240.0, max_value=240.0)
_point = st.builds(complex, _part, _part)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=150, deadline=None)
@given(x=_point, y=_point)
def test_scalar_distance_is_the_composed_one_bit_for_bit(pair, x, y):
    A = scalar_algebra(pair)
    u = from_preimages(pair, x.real, x.imag)
    v = from_preimages(pair, y.real, y.imag)
    assert A.distance(u, v).hex() == _composed(A, u, v).hex()


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(_point, min_size=GRID_SIZE, max_size=GRID_SIZE),
    ys=st.lists(_point, min_size=GRID_SIZE, max_size=GRID_SIZE),
)
def test_grid_distance_is_the_composed_one_bit_for_bit(pair, xs, ys):
    dom = make_disk_domain(pair, 2, 8)
    A = grid_algebra(dom)
    f = GridFunction.of_preimages(dom, tuple(xs))
    g = GridFunction.of_preimages(dom, tuple(ys))
    assert A.distance(f, g).hex() == _composed(A, f, g).hex()


def _carriers(pair):
    dom = make_disk_domain(pair, 2, 8)
    return [scalar_algebra(pair), grid_algebra(dom)]


def _preimages(x) -> tuple[complex, ...]:
    return (x.value,) if hasattr(x, "value") else x.preimages


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_sub_is_add_of_the_negation_up_to_signed_zeros(pair):
    rng = random.Random(11)
    for A in _carriers(pair):
        for _ in range(200):
            x, y = A.sample(rng), A.sample(rng)
            # complex == treats 0.0 and -0.0 as equal
            assert _preimages(A.sub(x, y)) == _preimages(A.add(x, A.neg(y)))


def _counting(fn, calls: list):
    def counted(*args):
        calls.append(fn)
        return fn(*args)

    return counted


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_replaced_norm_measures_through_itself(pair):
    rng = random.Random(3)
    foreign = _carriers(pair_of("exp", "identity"))
    for A, F in zip(_carriers(pair), foreign):
        x, y = A.sample(rng), A.sample(rng)
        assert broken_norm(A).distance(x, y) == 1.0
        # the difference is still taken, so a refused one is still refused
        with pytest.raises(PairMismatchError):
            broken_norm(A).distance(x, F.sample(rng))


@pytest.fixture
def counted_ops(monkeypatch):
    """Count c_norm, c_add, sup_norm and fn_add where the carrier
    constructors read them, as a tracer installed before them would."""
    calls: list = []
    for name in ("c_norm", "c_add", "sup_norm", "fn_add"):
        monkeypatch.setattr(
            algebra, name, _counting(getattr(algebra, name), calls)
        )
    return calls


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_distance_calls_neither_the_norm_nor_add(pair, counted_ops):
    rng = random.Random(7)
    dom = make_disk_domain(pair, 2, 8)
    for A in (scalar_algebra(pair), grid_algebra(dom), broken_mul(grid_algebra(dom))):
        x, y = A.sample(rng), A.sample(rng)
        A.distance(x, y)
        assert counted_ops == []
        # the counters are live: the composed reading goes through them
        _composed(A, x, y)
        assert len(counted_ops) == 2
        counted_ops.clear()


def test_the_difference_is_no_longer_guarded_only_its_norm():
    # x - y has alpha preimage 1200, outside exp's [-700, 700]
    for names, refused in ((("exp", "exp"), True), (("exp", "identity"), False)):
        pair = pair_of(*names)
        A = scalar_algebra(pair)
        x, y = from_preimages(pair, 600.0, 0.0), from_preimages(pair, -600.0, 0.0)
        with pytest.raises(GeneratorOverflowError, match="exp: preimage 1200.0"):
            A.sub(x, y)
        if refused:  # by beta's guard on the norm
            with pytest.raises(GeneratorOverflowError, match="exp: preimage 1200.0"):
                A.distance(x, y)
        else:
            assert A.distance(x, y) == 1200.0


def test_distance_refuses_operands_over_another_pair_or_grid():
    ie, ee = pair_of("identity", "exp"), pair_of("exp", "exp")
    with pytest.raises(PairMismatchError):
        scalar_algebra(ie).distance(
            from_preimages(ie, 0.0, 0.0), from_preimages(ee, 0.0, 0.0)
        )
    A = grid_algebra(make_disk_domain(ie, 2, 8))
    other = grid_algebra(make_disk_domain(ie, 1, 8))
    with pytest.raises(DomainMismatchError):
        A.distance(A.zero, other.zero)
    assert math.isfinite(A.distance(A.zero, A.unit))


def _raised(call) -> type | None:
    try:
        call()
    except DomainMismatchError as e:
        return type(e)
    return None


def test_foreign_operands_are_refused_as_the_composed_reading_refuses_them():
    ie, ee = pair_of("identity", "exp"), pair_of("exp", "exp")
    rng = random.Random(1)
    for A, B in zip(_carriers(ie), _carriers(ee)):
        mine, theirs = A.sample(rng), B.sample(rng)
        for x, y in ((mine, theirs), (theirs, mine), (theirs, theirs)):
            want = _raised(lambda: A.add(x, A.neg(y)))
            assert want is not None
            assert _raised(lambda: A.sub(x, y)) is want
            assert _raised(lambda: A.distance(x, y)) is want

"""One residual where the product commutes.

``inversion._residuals`` measures x times the candidate once, and reports
it for both orders, when the carrier's product is ``c_mul`` or ``fn_mul``
(``algebra._commutes``, by identity). That rests on Python's complex
product commuting bit for bit, which the first two tests pin. The parity
tests keep the two-residual check as the reference and require the same
reports from all three inverters; the counting tests require one distance
per check where the rule applies and two everywhere else.
"""

import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import staralg.algebra as algebra
import staralg.inversion as inversion
from staralg import (
    GridFunction,
    StarComplex,
    StarError,
    broken_mul,
    c_mul,
    continuity_bound_check,
    fn_mul,
    from_preimages,
    grid_algebra,
    make_disk_domain,
    neumann_inverse,
    pair_of,
    perturbative_inverse,
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


def _bits(x) -> bytes:
    """The exact bits of a point's or a function's preimages, so that
    0.0 and -0.0 differ."""
    zs = (x.value,) if isinstance(x, StarComplex) else x.preimages
    parts = [p for z in zs for p in (z.real, z.imag)]
    return struct.pack(f"<{len(parts)}d", *parts)


def _outcome(mul, x, y):
    """The product's bits, or the refusal it raised."""
    try:
        return _bits(mul(x, y))
    except StarError as e:
        return type(e), str(e)


def _points(pair, n):
    """n preimages with both parts anywhere in [-radius, radius],
    subnormals and both zeros included."""
    part = st.floats(min_value=-pair.radius, max_value=pair.radius)
    return st.lists(st.builds(complex, part, part), min_size=n, max_size=n)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_c_mul_commutes_bit_for_bit(pair, data):
    w, v = data.draw(_points(pair, 2))
    assert (w * v).real.hex() == (v * w).real.hex()
    assert (w * v).imag.hex() == (v * w).imag.hex()
    x = from_preimages(pair, w.real, w.imag)
    y = from_preimages(pair, v.real, v.imag)
    assert _outcome(c_mul, x, y) == _outcome(c_mul, y, x)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fn_mul_commutes_bit_for_bit(pair, data):
    dom = make_disk_domain(pair, 2, 8)
    f = GridFunction.of_preimages(dom, tuple(data.draw(_points(pair, GRID_SIZE))))
    g = GridFunction.of_preimages(dom, tuple(data.draw(_points(pair, GRID_SIZE))))
    assert _outcome(fn_mul, f, g) == _outcome(fn_mul, g, f)


# ---------------------------------------------------------------------------
# parity with the two-residual check


def _reference_residuals(A, x, candidate):
    """Both one-sided residuals, each measured, as before the rule."""
    right = A.distance(A.mul(x, candidate), A.unit)
    left = A.distance(A.mul(candidate, x), A.unit)
    return right, left


def _under_reference(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(inversion, "_residuals", _reference_residuals)
        return call()


def _report(rep) -> tuple:
    return (
        _bits(rep.inverse),
        rep.converged,
        rep.terms_used,
        rep.residual.preimage.hex(),
        rep.residual_reversed.preimage.hex(),
    )


def _bound(b) -> tuple:
    return (
        b.lhs.preimage.hex(),
        b.rhs.preimage.hex(),
        b.condition_met,
        b.contraction.hex(),
    )


def _element(A, rng, lo, hi):
    """A scalar or grid element whose preimages have moduli drawn from
    [lo, hi], at random angles."""
    def draw():
        r, t = rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))

    if isinstance(A.unit, StarComplex):
        w = draw()
        return from_preimages(A.pair, w.real, w.imag)
    dom = A.unit.domain
    return GridFunction.of_preimages(dom, tuple(draw() for _ in range(len(dom))))


def _scalar_and_grid(pair):
    return [scalar_algebra(pair), grid_algebra(make_disk_domain(pair, 2, 8))]


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_inverters_report_what_the_two_residual_check_reports(pair, monkeypatch):
    rng = random.Random(19)
    for A in _scalar_and_grid(pair):
        for _ in range(4):
            x0 = A.sub(A.unit, _element(A, rng, 0.0, 0.4))
            # a nearby x: the contraction stays below 1/2
            x = A.add(x0, _element(A, rng, 0.0, 0.03))
            far = A.sub(A.unit, _element(A, rng, 0.5, 0.9))
            x0_inv = neumann_inverse(A, x0).inverse
            # capped far from the unit, the residuals stay well above zero
            capped = neumann_inverse(A, far, max_terms=3)
            assert not capped.converged and capped.residual.preimage > 0.1
            runs = [
                lambda: neumann_inverse(A, x0),
                lambda: neumann_inverse(A, far, max_terms=3),
                lambda: perturbative_inverse(A, x, x0, x0_inv),
                lambda: perturbative_inverse(A, x, x0, x0_inv, max_terms=2),
            ]
            for run in runs:
                got, want = run(), _under_reference(monkeypatch, run)
                assert _report(got) == _report(want)
            got = continuity_bound_check(A, x, x0, x0_inv)
            want = _under_reference(
                monkeypatch, lambda: continuity_bound_check(A, x, x0, x0_inv)
            )
            assert _bound(got) == _bound(want)


# ---------------------------------------------------------------------------
# how many distances a check takes


def _counting(fn, calls: list):
    def counted(*args):
        calls.append(fn)
        return fn(*args)

    return counted


def _counted_distance(A, calls: list):
    """A with each distance counted; ``mul`` is untouched."""
    return replace(A, distance=_counting(A.distance, calls))


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_check_takes_one_distance_where_the_product_commutes(pair):
    rng = random.Random(5)
    dom = make_disk_domain(pair, 2, 8)
    S, G = scalar_algebra(pair), grid_algebra(dom)
    cases = [
        (S, 1),
        (G, 1),
        (broken_mul(S), 2),
        (broken_mul(G), 2),
        (replace(S, mul=lambda x, y: c_mul(x, y)), 2),
        (replace(G, mul=lambda f, g: fn_mul(f, g)), 2),
    ]
    for A, per_check in cases:
        calls: list = []
        B = _counted_distance(A, calls)
        x, c = A.sample(rng), A.sample(rng)
        assert inversion._residuals(B, x, c) == _reference_residuals(A, x, c)
        assert len(calls) == per_check, A.name


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_series_takes_one_distance_a_term_on_scalars_and_grids(pair):
    rng = random.Random(8)
    for A in _scalar_and_grid(pair):
        calls: list = []
        B = _counted_distance(A, calls)
        x = A.sub(A.unit, _element(A, rng, 0.0, 0.4))
        rep = neumann_inverse(B, x)
        assert rep.converged and len(calls) == rep.terms_used
        calls.clear()
        rep = neumann_inverse(broken_mul(B), x, max_terms=5)
        assert len(calls) == 2 * rep.terms_used == 10


@pytest.fixture
def counted_products(monkeypatch):
    """Count c_mul and fn_mul where the carrier constructors read them, as
    a tracer installed before them would; the rule still holds, since it
    reads the same names."""
    calls: list = []
    for name in ("c_mul", "fn_mul"):
        monkeypatch.setattr(algebra, name, _counting(getattr(algebra, name), calls))
    return calls


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_check_takes_one_product_under_rebound_names(pair, counted_products):
    rng = random.Random(2)
    for A in _scalar_and_grid(pair):
        assert algebra._commutes(A)
        x, c = A.sample(rng), A.sample(rng)
        counted_products.clear()
        right, left = inversion._residuals(A, x, c)
        assert len(counted_products) == 1
        assert right == left and not math.isnan(right)

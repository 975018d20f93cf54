"""The carriers' float norm reading: ``measure``.

``A.measure(x)`` must read exactly what ``A.norm(x).preimage`` reads, bit
for bit, and refuse exactly what the norm refuses. The scalar and grid
carriers read it without building a beta-line value, so the checks call
no ``c_norm``, ``sup_norm`` or ``from_preimage``. A record whose norm was
replaced (``broken_norm``, ``replace(A, norm=...)``) must measure through
that norm instead.
"""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import staralg
from staralg import (
    GridFunction,
    StarComplex,
    StarError,
    broken_norm,
    grid_algebra,
    make_disk_domain,
    pair_of,
    run_axiom_suite,
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

# small parts, parts near and beyond exp's [-700, 700] and the float
# maximum, whose moduli overflow, and the non-finite parts
_part = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(690.0, 710.0),
    st.floats(-710.0, -690.0),
    st.sampled_from([0.0, -0.0, 700.0, -700.0, math.nextafter(700.0, 800.0)]),
    st.sampled_from([1e308, -1e308, sys.float_info.max, 5e-324]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_point = st.builds(complex, _part, _part)


def _reading(read, x):
    """The hex of the float read, or the error's class and message."""
    try:
        return ("value", read(x).hex())
    except (StarError, ArithmeticError) as e:
        return ("error", type(e), str(e))


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=200, deadline=None)
@given(w=_point)
def test_the_scalar_reading_is_the_norm_bit_for_bit(pair, w):
    A = scalar_algebra(pair)
    # the point is built unguarded, as a norm may be handed one
    z = StarComplex(pair, w)
    assert _reading(A.measure, z) == _reading(lambda x: A.norm(x).preimage, z)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(ws=st.lists(_point, min_size=GRID_SIZE, max_size=GRID_SIZE))
def test_the_grid_reading_is_the_norm_bit_for_bit(pair, ws):
    dom = make_disk_domain(pair, 2, 8)
    A = grid_algebra(dom)
    f = GridFunction(dom, tuple(StarComplex(pair, w) for w in ws))
    assert _reading(A.measure, f) == _reading(lambda x: A.norm(x).preimage, f)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_the_fused_functions_are_taken_once_per_record(pair):
    dom = make_disk_domain(pair, 2, 8)
    for A in (scalar_algebra(pair), grid_algebra(dom)):
        assert A.measure is A.fused_norm[1]
        assert A.distance is A.fused_distance[1]
        B = replace(A, norm=lambda x: A.norm(x))
        assert B.measure is not A.fused_norm[1]
        assert B.distance is not A.fused_distance[1]
    # a record without fused forms measures through its norm
    G = grid_algebra(dom)
    B = replace(G, fused_norm=None, fused_distance=None)
    assert B.measure is not G.fused_norm[1]
    assert B.distance is not G.fused_distance[1]
    rng = random.Random(3)
    f, g = G.sample(rng), G.sample(rng)
    assert (B.measure(f), B.distance(f, g)) == (G.measure(f), G.distance(f, g))


# ---------------------------------------------------------------------------
# a replaced norm


def _counting(fn, calls: list):
    def counted(*args):
        calls.append(fn)
        return fn(*args)

    return counted


def _carriers(pair):
    """The carriers with a fused reading."""
    dom = make_disk_domain(pair, 2, 8)
    return [scalar_algebra(pair), grid_algebra(dom)]


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_broken_norm_is_measured_through_and_rejected(pair):
    for A in _carriers(pair):
        B = broken_norm(A)
        assert B.measure(A.zero) == 1.0
        rep = run_axiom_suite("norm", B, trials=3, seed=1)
        assert not rep.passed
        assert rep.counterexample["law"] == "zero-norm"
        assert run_axiom_suite("norm", A, trials=3, seed=1).passed


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_replaced_norm_sees_every_measurement(pair):
    for A in _carriers(pair):
        norm = A.norm
        # the fused reading, counted: how many measurements a norm suite
        # takes (it takes no distance)
        m_calls: list = []
        counted = replace(A, fused_norm=(norm, _counting(A.fused_norm[1], m_calls)))
        want = run_axiom_suite("norm", counted, trials=5, seed=2)
        assert m_calls
        # a replaced norm takes every one of them
        n_calls: list = []
        B = replace(A, norm=_counting(norm, n_calls))
        assert run_axiom_suite("norm", B, trials=5, seed=2) == want
        assert n_calls == [norm] * len(m_calls)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_a_reading_fused_from_another_norm_is_not_taken(pair):
    for A in _carriers(pair):
        x = A.sample(random.Random(4))
        calls: list = []
        other = (lambda v: A.norm(v), _counting(A.fused_norm[1], calls))
        for B in (replace(A, fused_norm=other), replace(A, fused_norm=None)):
            assert B.measure is not A.fused_norm[1]
            assert B.measure(x).hex() == A.measure(x).hex()
        assert calls == []


# ---------------------------------------------------------------------------
# what the checks call


@pytest.fixture
def counted_readings(monkeypatch):
    """Count c_norm, sup_norm and from_preimage wherever a staralg module
    binds them, as the bench tracer does; carriers built afterwards keep
    the counted functions."""
    calls: list = []
    for name in ("c_norm", "sup_norm", "from_preimage"):
        original = getattr(staralg, name)
        wrapped = _counting(original, calls)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname.split(".")[0] != "staralg":
                continue
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    return calls


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_the_suites_build_no_norm_value(pair, counted_readings):
    dom = make_disk_domain(pair, 2, 8)
    for A in (scalar_algebra(pair), grid_algebra(dom)):
        for suite in ("c-star", "norm"):
            assert run_axiom_suite(suite, A, trials=20, seed=3).passed
        assert counted_readings == []
        # the counters are live: the norm itself goes through them
        A.norm(A.unit)
        assert len(counted_readings) == 2
        counted_readings.clear()

"""The carriers' float norm reading: ``measure``.

``A.measure(x)`` must read exactly what ``c_norm(x).preimage`` and
``sup_norm(f).preimage`` read, bit for bit, and refuse exactly what those
norms refuse. The scalar and grid carriers read it without building a
beta-line value, so the checks call no ``c_norm``, ``sup_norm`` or
``from_preimage``. A record whose measure was replaced (``broken_norm``,
``replace(A, measure=...)``) is measured through the replacement, and
``A.norm`` shows it on the beta line.
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
    c_norm,
    grid_algebra,
    make_disk_domain,
    pair_of,
    run_axiom_suite,
    scalar_algebra,
    sup_norm,
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
    assert _reading(A.measure, z) == _reading(lambda x: c_norm(x).preimage, z)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(ws=st.lists(_point, min_size=GRID_SIZE, max_size=GRID_SIZE))
def test_the_grid_reading_is_the_norm_bit_for_bit(pair, ws):
    dom = make_disk_domain(pair, 2, 8)
    A = grid_algebra(dom)
    f = GridFunction(dom, tuple(StarComplex(pair, w) for w in ws))
    assert _reading(A.measure, f) == _reading(lambda x: sup_norm(x).preimage, f)


# ---------------------------------------------------------------------------
# a replaced measure


def _counting(fn, calls: list):
    def counted(*args):
        calls.append(fn)
        return fn(*args)

    return counted


def _carriers(pair):
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
        x = A.sample(random.Random(4))
        calls: list = []
        B = replace(A, measure=_counting(A.measure, calls))
        assert run_axiom_suite("norm", B, trials=5, seed=2) == run_axiom_suite(
            "norm", A, trials=5, seed=2
        )
        assert calls
        # the beta-line norm shows the replaced measure
        calls.clear()
        assert B.norm(x).preimage == A.measure(x)
        assert calls == [A.measure]


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
        # the counters are live: the norms themselves go through them
        norm = staralg.c_norm if A.name == "scalar" else staralg.sup_norm
        norm(A.unit)
        assert len(counted_readings) == 2
        counted_readings.clear()

"""The grid layer: the indexed point lookup against the all-pairs check and
linear scan it replaced, the one guard over a function's preimages, and
single-point reads that leave the rest of a function unbuilt."""

import gc
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from staralg import (
    DomainMismatchError,
    EvaluationIdeal,
    Generator,
    GeneratorOverflowError,
    GeneratorPair,
    GridDomain,
    GridFunction,
    StarComplex,
    StarError,
    StarUnderflowError,
    c_mul,
    coordinate_function,
    evaluation_functional,
    fn_add,
    fn_involution,
    fn_mul,
    fn_scalar_mul,
    from_preimages,
    grid_algebra,
    grid_constant,
    guard,
    ideal_membership,
    make_disk_domain,
    one,
    pair_of,
    quotient_map,
    quotient_norm,
    zero,
)

II = pair_of("identity", "identity")
TOL = 1e-9
CELL = 2.0**-28  # the lookup cell's side


# --- reference: the quadratic check and the linear scan ---------------------


def reference_check(points):
    """GridDomain's validation as an all-pairs loop: None or the message."""
    if not points:
        return "a grid needs at least one point"
    has_origin = False
    for p in points:
        m = math.hypot(*p.preimages)
        if not m <= 0.5 + 1e-12:  # a NaN modulus is outside too
            return (f"grid point with preimage modulus {m!r} is outside"
                    " the radius-1/2 disk")
        if m <= TOL:
            has_origin = True
    if not has_origin:
        return "the grid must contain the additive zero"
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i].as_complex - points[j].as_complex) <= TOL:
                return f"grid points {i} and {j} coincide"
    return None


def reference_index_of(points, z):
    for i, p in enumerate(points):
        if abs(p.as_complex - z.as_complex) <= TOL:
            return i
    return None


# offsets around the tolerance and the cell side, on either side of each
_STEPS = (
    0.0,
    0.5 * TOL,
    math.nextafter(TOL, 0.0),
    TOL,
    math.nextafter(TOL, 1.0),
    1.5 * TOL,
    2.0 * TOL,
    math.nextafter(CELL, 0.0),
    CELL,
    3.0 * TOL,
)
_DIRECTIONS = (1, -1, 1j, -1j, complex(0.6, 0.8), complex(-0.8, 0.6))
_offsets = st.builds(
    lambda s, d: s * d, st.sampled_from(_STEPS), st.sampled_from(_DIRECTIONS)
)


@st.composite
def _centre(draw):
    """Anywhere in the disk, or on a cell corner or a cell's midlines, so
    that neighbours straddle the lines where lookups change cells."""
    if draw(st.booleans()):
        k = st.integers(-int(0.6 / CELL), int(0.6 / CELL))
        return complex(draw(k) * CELL / 2, draw(k) * CELL / 2)
    r = draw(st.floats(0.0, 0.49))
    th = draw(st.floats(0.0, 2.0 * math.pi))
    return complex(r * math.cos(th), r * math.sin(th))


@st.composite
def point_sets(draw):
    """Clusters of up to three points, each a few tolerances apart, plus
    (usually) the origin, in a drawn order."""
    zs = [0j] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(_centre())
        zs += [c + draw(_offsets) for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(zs))


def _points(zs):
    return tuple(from_preimages(II, w.real, w.imag) for w in zs)


@settings(max_examples=400, deadline=None)
@given(point_sets(), st.lists(_offsets, min_size=1, max_size=4))
def test_hashed_domain_matches_the_all_pairs_reference(zs, offsets):
    points = _points(zs)
    want = reference_check(points)
    if want is not None:
        with pytest.raises(ValueError) as e:
            GridDomain(II, points)
        assert str(e.value) == want
        return
    dom = GridDomain(II, points)
    for p in points:
        for d in offsets:
            z = StarComplex(II, p.value + d)
            i = reference_index_of(points, z)
            if i is None:
                with pytest.raises(ValueError, match="is not on the grid"):
                    dom.index_of(z)
            else:
                assert dom.index_of(z) == i


def test_three_mutually_close_points_report_the_first_pair():
    c = complex(0.1, 0.2)
    zs = [c + 0.4 * TOL, 0.25 + 0j, c, 0j, c + 0.8 * TOL]
    points = _points(zs)
    assert reference_check(points) == "grid points 0 and 2 coincide"
    with pytest.raises(ValueError, match="^grid points 0 and 2 coincide$"):
        GridDomain(II, points)


def test_index_of_picks_the_lowest_of_several_matches():
    # two points 1.5e-9 apart are distinct, and a point between them
    # lies within 1e-9 of both; the lower index wins, as in a scan
    c = complex(3 * CELL, 0.1)
    for zs in ([0j, c + 1.5 * TOL, c], [0j, c, c + 1.5 * TOL]):
        points = _points(zs)
        dom = GridDomain(II, points)
        mid = from_preimages(II, c.real + 0.75 * TOL, c.imag)
        assert dom.index_of(mid) == reference_index_of(points, mid) == 1


def test_pair_within_the_tolerance_across_a_cell_boundary():
    for edge in (5 * CELL, 5.5 * CELL):  # a cell boundary and a midline
        for a, b in ((math.nextafter(edge, 0.0), edge + 0.99 * TOL),
                     (edge - 0.49 * TOL, edge + 0.5 * TOL),
                     (edge - 0.99 * TOL, math.nextafter(edge, 1.0))):
            points = _points([0j, complex(a, 0.1), complex(b, 0.1)])
            assert abs(points[1].as_complex - points[2].as_complex) <= TOL
            with pytest.raises(ValueError, match="grid points 1 and 2 coincide"):
                GridDomain(II, points)
            points = _points([0j, complex(0.1, a), complex(0.1, b)])
            with pytest.raises(ValueError, match="grid points 1 and 2 coincide"):
                GridDomain(II, points)


def test_index_of_refuses_far_and_non_finite_points():
    dom = make_disk_domain(II, 2, 8)
    for w in (complex(1e300, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="is not on the grid"):
            dom.index_of(StarComplex(II, w))


def test_grid_point_with_nan_preimage_is_refused():
    points = (from_preimages(II, 0.0, 0.0), StarComplex(II, complex(math.nan, 0.1)))
    with pytest.raises(ValueError, match="outside the radius-1/2 disk"):
        GridDomain(II, points)


def test_disk_domain_agrees_with_the_reference():
    dom = make_disk_domain(II, 16, 48)
    assert reference_check(dom.points) is None
    for k in (0, 1, 400, len(dom) - 1):
        assert dom.index_of(dom.points[k]) == k


# --- the index at its edges ---------------------------------------------------


def _assert_matches_reference(zs, lookups):
    """GridDomain on the points zs refuses as reference_check does, and
    index_of agrees with reference_index_of at every lookup."""
    points = tuple(StarComplex(II, w) for w in zs)
    want = reference_check(points)
    if want is not None:
        with pytest.raises(ValueError) as e:
            GridDomain(II, points)
        assert str(e.value) == want
        return
    dom = GridDomain(II, points)
    for w in lookups:
        z = StarComplex(II, w)
        i = reference_index_of(points, z)
        if i is None:
            with pytest.raises(ValueError, match="is not on the grid"):
                dom.index_of(z)
        else:
            assert dom.index_of(z) == i


_K = int(0.45 / CELL)  # cell indices whose cells lie inside the disk
# lookups on the unit square's edges: at +1 a block reaches cell 2**28,
# and at -1 cells -2**28 and -(2**28 + 1)
_SQUARE_EDGES = (1, -1, 1j, -1j, 1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j,
                 complex(-1, 0.3), complex(0.3, -1))


@st.composite
def edge_point_sets(draw):
    """The origin plus groups of points where the cell index is at its
    edges: up to 3 x 3 valid points 1.1e-9 apart in one cell, points on
    both sides of an axis, and points far outside the disk or NaN."""
    zs = [0j]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("cell", "axis", "far")))
        if kind == "cell":
            corner = complex(draw(st.integers(-_K, _K)) * CELL,
                             draw(st.integers(-_K, _K)) * CELL)
            nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            zs += [corner + complex(0.2e-9 + 1.1e-9 * x, 0.2e-9 + 1.1e-9 * y)
                   for x in range(nx) for y in range(ny)]
        elif kind == "axis":
            t = draw(st.floats(-0.49, 0.49))
            a, b = draw(st.sampled_from(_STEPS)), draw(st.sampled_from(_STEPS))
            pair = (complex(a, t), complex(-b, t))
            zs += pair if draw(st.booleans()) else [w.imag + 1j * w.real for w in pair]
        else:
            zs.append(draw(st.sampled_from((
                complex(1e308, 1e308), complex(1.5e308, 1.5e308),
                complex(math.nan, 0.1), complex(0.1, math.nan),
            ))))
    return draw(st.permutations(zs))


# nine valid points in one cell with a negative corner
_FULL_CELL = [complex(-7 * CELL, -3 * CELL) + complex(0.2e-9 + 1.1e-9 * x,
                                                      0.2e-9 + 1.1e-9 * y)
              for x in range(3) for y in range(3)]


@settings(max_examples=300, deadline=None)
@given(edge_point_sets(), st.lists(_offsets, min_size=1, max_size=3))
@example([0j] + _FULL_CELL, [0.0, 0.6 * TOL, -0.6j * TOL])
def test_indexed_domain_matches_the_reference_at_its_edges(zs, offsets):
    lookups = [w + d for w in zs for d in offsets] + list(_SQUARE_EDGES)
    _assert_matches_reference(zs, lookups)


def test_a_lattice_point_is_found_across_zero():
    # the lattice point at angle 3*pi/2 has real part -9.2e-17, in the
    # cell left of 0, and the lookup at exactly (0, -0.5) reaches it
    for radial, angular in ((4, 4), (64, 64)):
        dom = make_disk_domain(II, radial, angular)
        z = StarComplex(II, complex(0.0, -0.5))
        k = reference_index_of(dom.points, z)
        assert dom.preimages[k].real < 0.0
        assert dom.index_of(z) == k
        for w in _SQUARE_EDGES:
            with pytest.raises(ValueError, match="is not on the grid"):
                dom.index_of(StarComplex(II, w))


def test_points_far_outside_the_disk_are_refused_with_their_modulus():
    for w, m in ((complex(1e308, 1e308), "1.4142135623730951e+308"),
                 (complex(1.5e308, 1.5e308), "inf")):
        with pytest.raises(ValueError) as e:
            GridDomain(II, (zero(II), StarComplex(II, w)))
        assert str(e.value) == (f"grid point with preimage modulus {m} is"
                                " outside the radius-1/2 disk")


def test_a_narrow_generator_refuses_the_lattice():
    narrow = Generator("narrow", lambda t: t, lambda y: y, t_min=-0.25, t_max=0.25)
    with pytest.raises(GeneratorOverflowError) as e:
        make_disk_domain(GeneratorPair(narrow, narrow), 2, 8)
    assert str(e.value) == (
        "narrow: preimage 0.5 outside the working domain [-0.25, 0.25]"
    )


def test_a_domain_keeps_a_small_index():
    # A 2049-point domain holds, per point: a StarComplex (48 bytes with
    # its GC header), its complex (32), a slot in ``points`` and one in
    # ``preimages`` (8 each), and one index entry. An entry is an int
    # below 2**71 (a cell key below 2**59, shifted by 12 bits for the
    # point's index): three 30-bit digits, 36 bytes, plus its slot in the
    # index, 8 more. 80 bytes an entry leaves room for a fourth digit and
    # the tuple's header, and 48 + 32 + 16 + 80 = 176 bytes a point is
    # 352 KiB; 400 KiB leaves room for object sizes on other Pythons. A
    # dict of cells took about 252 bytes a point.
    make_disk_domain(II, 1, 4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dom = make_disk_domain(II, 32, 64)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dom) == 2049
    assert retained <= 400 * 1024
    index = dom._index
    assert len(index) == len(dom)
    size = sys.getsizeof(index) + sum(map(sys.getsizeof, index))
    assert size <= 80 * len(dom)


# --- the guard over a function's preimages -----------------------------------


def _ops(pair):
    """Each pointwise op, applied so that the result keeps f's bad value."""
    return {
        "add": lambda f: fn_add(f, grid_constant(f.domain, zero(pair))),
        "mul": lambda f: fn_mul(f, grid_constant(f.domain, one(pair))),
        "scalar_mul": lambda f: fn_scalar_mul(one(pair), f),
        "involution": fn_involution,
    }


@pytest.mark.parametrize("name", ["exp", "cube"])
@pytest.mark.parametrize("bad", ["overflow", "nan"])
def test_every_pointwise_op_guards_every_index(name, bad):
    pair = pair_of(name, name)
    dom = make_disk_domain(pair, 2, 8)
    g = pair.alpha
    t = math.nan if bad == "nan" else math.nextafter(g.t_max, math.inf)
    with pytest.raises(GeneratorOverflowError) as e:
        guard(g, t)
    expected = str(e.value)
    for k in (0, len(dom) // 2, len(dom) - 1):
        values = list(coordinate_function(dom).values)
        # the public constructor takes field points as they are
        values[k] = StarComplex(pair, complex(t, 0.1))
        f = GridFunction(dom, tuple(values))
        for op_name, op in _ops(pair).items():
            with pytest.raises(GeneratorOverflowError) as e:
                op(f)
            assert str(e.value) == f"{expected} at point {k}", op_name
            assert str(e.value).startswith(f"{name}: ")


def test_results_past_the_interval_are_refused():
    pair = pair_of("identity", "exp")
    dom = make_disk_domain(pair, 2, 8)
    f = grid_constant(dom, from_preimages(pair, 0.0, 400.0))
    with pytest.raises(GeneratorOverflowError, match=r"^exp: .* at point 0$"):
        fn_add(f, f)
    with pytest.raises(GeneratorOverflowError, match=r"^exp: .* at point 0$"):
        fn_scalar_mul(from_preimages(pair, 2.0, 0.0), f)


UNDERFLOW = "the product of nonzero points underflows to zero"


def test_an_underflowing_grid_product_is_refused_at_its_point():
    dom = make_disk_domain(II, 1, 4)
    tiny = from_preimages(II, 1e-200, 0.0)
    f = grid_constant(dom, tiny)
    for product in (
        lambda: fn_mul(f, f),
        lambda: grid_algebra(dom).mul(f, f),
        lambda: fn_scalar_mul(tiny, f),
    ):
        with pytest.raises(StarUnderflowError) as e:
            product()
        assert str(e.value) == f"{UNDERFLOW} at point 0"
    # the lowest refused point is named, past zeros that are not refused
    g = GridFunction.of_preimages(dom, (0j, 1.0, 1e-200, 1e-200, 1.0))
    with pytest.raises(StarUnderflowError, match=f"^{UNDERFLOW} at point 2$"):
        fn_mul(g, f)
    # a zero operand still gives zero
    z = coordinate_function(dom)
    assert fn_mul(z, f).preimages[0] == 0j
    assert fn_mul(z, f).preimages[1:] == tuple(w * 1e-200 for w in dom.preimages[1:])
    assert fn_mul(grid_constant(dom, zero(II)), f).preimages == (0j,) * len(dom)
    assert fn_scalar_mul(zero(II), f).preimages == (0j,) * len(dom)


def test_an_underflow_is_refused_before_the_guard():
    # as in c_mul: point 0 overflows exp's interval, point 2 underflows
    pair = pair_of("exp", "exp")
    dom = make_disk_domain(pair, 1, 4)
    f = GridFunction.of_preimages(dom, (30.0, 1.0, 1e-200, 1.0, 1.0))
    with pytest.raises(StarUnderflowError, match=f"^{UNDERFLOW} at point 2$"):
        fn_mul(f, f)
    # without the underflow, the guard refuses point 0
    g = GridFunction.of_preimages(dom, (30.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(GeneratorOverflowError, match="at point 0$"):
        fn_mul(f, g)


def _pointwise_outcome(zs, ws):
    """The grid product as c_mul at each point reads it: the values, or
    the refusal of the first point that underflows, else of the first that
    leaves the interval, named as the grid names it."""
    outcomes = []
    for w, v in zip(zs, ws):
        try:
            outcomes.append(c_mul(StarComplex(II, w), StarComplex(II, v)).value)
        except StarError as e:
            outcomes.append(e)
    for kind in (StarUnderflowError, GeneratorOverflowError):
        for i, o in enumerate(outcomes):
            if isinstance(o, kind):
                return kind, f"{o} at point {i}"
    return tuple(outcomes)


_mul_part = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e-160, 1.0, 1e200])
_mul_point = st.builds(complex, _mul_part, _mul_part)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_grid_product_refuses_what_c_mul_refuses(data):
    dom = make_disk_domain(II, 1, 4)
    zs, ws = (
        tuple(data.draw(st.lists(_mul_point, min_size=5, max_size=5)))
        for _ in range(2)
    )
    f, g = GridFunction.of_preimages(dom, zs), GridFunction.of_preimages(dom, ws)
    try:
        got = fn_mul(f, g).preimages
    except StarError as e:
        got = type(e), str(e)
    assert got == _pointwise_outcome(zs, ws)


def test_of_preimages_checks_length_and_guards():
    dom = make_disk_domain(II, 1, 4)
    with pytest.raises(ValueError, match="3 values for 5 points"):
        GridFunction.of_preimages(dom, (0j, 0j, 0j))
    with pytest.raises(GeneratorOverflowError, match="at point 4$"):
        GridFunction.of_preimages(dom, (0j, 0j, 0j, 0j, complex(0.0, math.inf)))
    f = GridFunction.of_preimages(dom, dom.preimages)
    assert f == coordinate_function(dom)
    assert f.values == dom.points


def test_public_constructor_checks_the_pair():
    dom = make_disk_domain(II, 1, 4)
    other = pair_of("identity", "exp")
    with pytest.raises(DomainMismatchError):
        GridFunction(dom, (from_preimages(other, 0.0, 0.0),) * len(dom))
    with pytest.raises(DomainMismatchError):
        grid_constant(dom, one(other))


# --- single-point reads --------------------------------------------------------


def test_single_point_reads_do_not_build_the_values(monkeypatch):
    pair = pair_of("identity", "exp")
    dom = make_disk_domain(pair, 2, 8)
    f = fn_add(coordinate_function(dom), grid_constant(dom, one(pair)))
    w = dom.points[5].value + 1
    want = from_preimages(pair, w.real, w.imag)
    ideal = EvaluationIdeal(dom, dom.points[5])

    def refuse(self):
        raise AssertionError("the whole value tuple was built")

    monkeypatch.setattr(GridFunction, "values", property(refuse))
    assert f.at(5) == want
    assert f.value_at(dom.points[5]) == want
    assert evaluation_functional(dom, dom.points[5]).map(f) == want
    assert quotient_map(f, ideal).value == want
    assert quotient_norm(f, ideal).preimage == math.hypot(*want.preimages)
    assert not ideal_membership(ideal, f)

"""Concrete carriers: the scalar field and finite-grid function algebras,
with evaluation ideals and element classification.

An Algebra is a plain record of operations over one generator pair. The
axiom harness, the series inverters, and the morphism checks only ever
go through this record, so anything with the same shape (including the
deliberately broken mutants the harness ships) plugs in unchanged.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import (
    DomainMismatchError,
    MissingInvolutionError,
    MissingUnitError,
    StarUnderflowError,
)
from .expr import _product
from .generators import GeneratorPair, guard, guard_points
from .star_complex import (
    StarComplex,
    _DRAW_LOW,
    _DRAW_WIDTH,
    _same_pair,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_norm,
    c_sub,
    from_preimages,
    one,
    random_point,
    zero,
)
from .star_real import StarReal, from_preimage

__all__ = [
    "Algebra",
    "scalar_algebra",
    "GridDomain",
    "make_disk_domain",
    "GridFunction",
    "grid_constant",
    "coordinate_function",
    "fn_add",
    "fn_sub",
    "fn_scalar_mul",
    "fn_mul",
    "fn_involution",
    "sup_norm",
    "grid_algebra",
    "EvaluationIdeal",
    "ideal_membership",
    "quotient_norm",
    "ElementClass",
    "classify_element",
    "hermitian_parts",
]


@dataclass(frozen=True)
class Algebra:
    """A carrier with the operations the checks and series engines need.

    ``unit`` and ``involution`` are None when the carrier lacks them.
    ``sample`` draws a generic element from the carrier's own measure;
    ``describe`` renders an element as JSON-friendly preimages for
    counterexamples.

    ``sub`` is the carrier's native difference; like ``add(x, neg(y))``
    it refuses a ``y`` over another pair than the carrier's.
    ``measure(x)`` is the norm of x as a preimage-scale float that passed
    beta's guard, and ``distance(x, y)`` is the measure of ``sub(x, y)``;
    ``norm(x)`` shows the measure on the beta line.
    """

    name: str
    pair: GeneratorPair
    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    scalar_mul: Callable[[StarComplex, Any], Any]
    mul: Callable[[Any, Any], Any]
    measure: Callable[[Any], float]
    distance: Callable[[Any, Any], float]
    zero: Any
    unit: Any | None
    involution: Callable[[Any], Any] | None
    sample: Callable[[random.Random], Any]
    describe: Callable[[Any], Any]

    def norm(self, x: Any) -> StarReal:
        """The norm of x on the beta line."""
        return from_preimage(self.pair.beta, self.measure(x))

    def neg(self, x: Any) -> Any:
        return self.scalar_mul(from_preimages(self.pair, -1.0, 0.0), x)

    def star(self, x: Any) -> Any:
        if self.involution is None:
            raise MissingInvolutionError(f"{self.name}: no involution")
        return self.involution(x)

    def __repr__(self) -> str:
        return f"Algebra({self.name}, pair={self.pair.names})"


def _same(x: GridDomain, y: GridDomain, what: str) -> None:
    """DomainMismatchError(what) unless x and y are the same grid."""
    if x is not y and x != y:
        raise DomainMismatchError(what)


def _draw(rng: random.Random, n: int) -> tuple[complex, ...]:
    """n complex preimages, both parts uniform in the draw interval,
    drawn in the order random_point draws them, with ``uniform`` written
    out as random_point writes it."""
    r, lo, w = rng.random, _DRAW_LOW, _DRAW_WIDTH
    return tuple(complex(lo + w * r(), lo + w * r()) for _ in range(n))


# ---------------------------------------------------------------------------
# the scalar field as a one-dimensional carrier


def _modulus(z: StarComplex) -> float:
    """c_norm(z).preimage, without building the beta-line value."""
    return guard(z.pair.beta, math.hypot(z.value.real, z.value.imag))


def scalar_algebra(pair: GeneratorPair) -> Algebra:
    """The field itself: multiplication doubles as scalar action."""

    def sample(rng: random.Random) -> StarComplex:
        return random_point(rng, pair)

    def sub(z: StarComplex, w: StarComplex) -> StarComplex:
        _same_pair(pair, w.pair)
        return c_sub(z, w)

    def distance(z: StarComplex, w: StarComplex) -> float:
        """c_norm(sub(z, w)).preimage with only the norm guarded."""
        _same_pair(pair, w.pair)
        _same_pair(z.pair, w.pair)
        d = z.value - w.value
        return guard(pair.beta, math.hypot(d.real, d.imag))

    return Algebra(
        name="scalar",
        pair=pair,
        add=c_add,
        sub=sub,
        scalar_mul=c_mul,
        mul=c_mul,
        measure=_modulus,
        distance=distance,
        zero=zero(pair),
        unit=one(pair),
        involution=c_conj,
        sample=sample,
        describe=lambda v: list(v.preimages),
    )


# ---------------------------------------------------------------------------
# finite grids over the closed disk of preimage radius 1/2

# construction noise allowance for the disk-radius and distinctness checks
_GRID_SLACK = 1e-12
_POINT_MATCH_TOL = 1e-9
# Lookup cells have side 2**-28, the smallest power of two of at least
# twice _POINT_MATCH_TOL. Scaling by a power of two is exact, so a point
# within the tolerance of w lies in the 2 x 2 block of cells nearest w.
_CELL_SCALE = 2.0**28
# Cell (cx, cy) is keyed by the one int cx * 2**30 + cy. Construction keys
# only points inside the disk, and index_of only blocks of points inside
# the unit square, so |cx| and |cy| are at most 2**28 + 1, below 2**29:
# the key is unique, and keys order cells by cx, then cy.
_KEY_SCALE = 2**30


def _block(w: complex) -> tuple[int, int, int, int]:
    """The key of w's cell, then the keys of the other three cells of the
    2 x 2 block nearest w."""
    fx, fy = w.real * _CELL_SCALE, w.imag * _CELL_SCALE
    cx, cy = math.floor(fx), math.floor(fy)
    ox = cx - 1 if fx - cx < 0.5 else cx + 1
    oy = cy - 1 if fy - cy < 0.5 else cy + 1
    cx *= _KEY_SCALE
    ox *= _KEY_SCALE
    return (cx + cy, ox + cy, cx + oy, ox + oy)


@dataclass(frozen=True)
class GridDomain:
    """A finite set of distinct field points inside the radius-1/2 disk.

    Always contains the additive zero. ``preimages`` holds the points'
    complex preimages. Each point lies in one cell of side 2**-28 (about
    3.7e-9), and one sorted tuple of ints, each a cell's key with the
    point's index in its low bits, indexes them: the distinctness check
    and ``index_of`` look only at the 2 x 2 cells nearest a point, so
    building a domain is linear plus one sort, and ``index_of`` is four
    bisections. Functions on the grid are stored as preimage tuples
    aligned with ``points``.
    """

    pair: GeneratorPair
    points: tuple[StarComplex, ...]
    preimages: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    # sorted (cell key << len(points).bit_length()) | index, one per point:
    # the index fills the low bits, so a cell's entries are adjacent and
    # ascend by index, negative keys included
    _index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("a grid needs at least one point")
        pair = self.pair
        has_origin = False
        for p in self.points:
            _same_pair(p.pair, pair)
            m = math.hypot(p.value.real, p.value.imag)
            # written so that a NaN modulus is refused too
            if not m <= 0.5 + _GRID_SLACK:
                raise ValueError(
                    f"grid point with preimage modulus {m!r} is outside"
                    " the radius-1/2 disk"
                )
            if m <= _POINT_MATCH_TOL:
                has_origin = True
        if not has_origin:
            raise ValueError("the grid must contain the additive zero")
        zs = tuple(p.value for p in self.points)
        cells: dict[int, list[int]] = {}
        close = []  # every (i, j) with i < j within the tolerance
        for j, w in enumerate(zs):
            a, b, c, d = block = _block(w)
            if a in cells or b in cells or c in cells or d in cells:
                close += [
                    (i, j)
                    for cell in block
                    for i in cells.get(cell, ())
                    if abs(zs[i] - w) <= _POINT_MATCH_TOL
                ]
            cells.setdefault(a, []).append(j)
        if close:
            i, j = min(close)
            raise ValueError(f"grid points {i} and {j} coincide")
        shift = len(zs).bit_length()
        index = sorted(key << shift | j for key, js in cells.items() for j in js)
        object.__setattr__(self, "preimages", zs)
        object.__setattr__(self, "_index", tuple(index))

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, z: StarComplex) -> int:
        """Index of the grid point matching z within 1e-9 on preimages;
        the lowest such index when several match."""
        _same_pair(z.pair, self.pair)
        w = z.value
        # every grid point lies in the unit square, so anything outside
        # it (NaN and infinities included) is off the grid; the test also
        # keeps the cell arithmetic finite and the cell keys unique
        if abs(w.real) <= 1.0 and abs(w.imag) <= 1.0:
            zs = self.preimages
            index = self._index
            n = len(zs)
            shift = n.bit_length()
            found = n
            for key in _block(w):
                base = key << shift
                k = bisect_left(index, base)
                # a cell's entries ascend by index, so its first hit is
                # its lowest
                while k < n and index[k] >> shift == key:
                    i = index[k] - base
                    if abs(zs[i] - w) <= _POINT_MATCH_TOL:
                        found = min(found, i)
                        break
                    k += 1
            if found < n:
                return found
        raise ValueError(
            f"point with preimages {z.preimages} is not on the grid"
        )


def make_disk_domain(
    pair: GeneratorPair, radial_steps: int, angular_steps: int
) -> GridDomain:
    """Polar lattice on the radius-1/2 disk: the origin plus
    ``radial_steps`` circles of ``angular_steps`` points each.

    Radii are k/(2*radial_steps) for k = 1..radial_steps; angles are
    2*pi*j/angular_steps. Degenerate lattices (no circle, or fewer than
    3 points per circle) are rejected.
    """
    if radial_steps < 1:
        raise ValueError("radial_steps must be at least 1")
    if angular_steps < 3:
        raise ValueError("angular_steps must be at least 3")
    pts = [from_preimages(pair, 0.0, 0.0)]
    for k in range(1, radial_steps + 1):
        r = k / (2.0 * radial_steps)
        for j in range(angular_steps):
            th = 2.0 * math.pi * j / angular_steps
            pts.append(from_preimages(pair, r * math.cos(th), r * math.sin(th)))
    return GridDomain(pair, tuple(pts))


def _check_length(dom: GridDomain, n: int) -> None:
    if n != len(dom.points):
        raise ValueError(f"{n} values for {len(dom.points)} points")


@dataclass(frozen=True, init=False)
class GridFunction:
    """A field-valued function on a grid, stored as one tuple of complex
    preimages aligned with the domain's points.

    Every value lives over the domain's pair, so the pair is checked once
    per function, and a result of the pointwise operations passes one
    guard over the whole tuple (``generators.guard_points``).
    ``GridFunction(dom, values)`` takes field points; ``.values`` builds
    them back when read, and ``at(i)`` builds only the i-th.
    """

    domain: GridDomain
    preimages: tuple[complex, ...]

    def __init__(self, domain: GridDomain, values: tuple[StarComplex, ...]):
        _check_length(domain, len(values))
        for v in values:
            _same_pair(v.pair, domain.pair)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "preimages", tuple(v.value for v in values))

    @classmethod
    def of_preimages(
        cls, domain: GridDomain, zs: tuple[complex, ...]
    ) -> GridFunction:
        """The function with preimages zs, after one guard over them all."""
        _check_length(domain, len(zs))
        f = object.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "preimages", guard_points(domain.pair, zs))
        return f

    @property
    def values(self) -> tuple[StarComplex, ...]:
        pair = self.domain.pair
        return tuple(StarComplex(pair, w) for w in self.preimages)

    def at(self, i: int) -> StarComplex:
        """The value at the i-th grid point."""
        return StarComplex(self.domain.pair, self.preimages[i])

    def value_at(self, z: StarComplex) -> StarComplex:
        return self.at(self.domain.index_of(z))


def grid_constant(dom: GridDomain, c: StarComplex) -> GridFunction:
    _same_pair(c.pair, dom.pair)
    return GridFunction.of_preimages(dom, (c.value,) * len(dom))


def coordinate_function(dom: GridDomain) -> GridFunction:
    """The function z -> z."""
    return GridFunction.of_preimages(dom, dom.preimages)


def _pointwise(
    op: Callable[..., complex], f: GridFunction, *gs: GridFunction
) -> GridFunction:
    """op applied point by point to the preimages of f and gs, which must
    live over f's grid; one guard over the result."""
    for g in gs:
        _same(f.domain, g.domain, "grid functions live over different grids")
    return GridFunction.of_preimages(
        f.domain, tuple(map(op, f.preimages, *(g.preimages for g in gs)))
    )


def fn_add(f: GridFunction, g: GridFunction) -> GridFunction:
    return _pointwise(operator.add, f, g)


def fn_sub(f: GridFunction, g: GridFunction) -> GridFunction:
    return _pointwise(operator.sub, f, g)


def _refuse_zero_products(
    qs: tuple[complex, ...], vs: tuple[complex, ...], ws: tuple[complex, ...]
) -> None:
    """Called with products qs of vs and ws point by point, some zero: the
    field's one product rule (``expr._product``) on the operands of each
    zero of qs, in point order, naming the point as ``guard_points``
    does. ``index`` walks from zero to zero, so no point is looped over in
    Python."""
    i = -1
    while True:
        try:
            i = qs.index(0j, i + 1)
        except ValueError:  # no zero after i
            return
        try:
            _product(vs[i], ws[i])
        except StarUnderflowError as e:
            raise StarUnderflowError(f"{e} at point {i}") from None


def fn_scalar_mul(lam: StarComplex, f: GridFunction) -> GridFunction:
    """lam times f point by point; a product of nonzero values that rounds
    to zero is refused before the guard, as in ``c_mul``."""
    _same_pair(lam.pair, f.domain.pair)
    c, zs = lam.value, f.preimages
    qs = tuple(map(c.__mul__, zs))
    if not all(qs):
        _refuse_zero_products(qs, (c,) * len(zs), zs)
    return GridFunction.of_preimages(f.domain, qs)


def fn_mul(f: GridFunction, g: GridFunction) -> GridFunction:
    """f times g point by point; a product of nonzero values that rounds
    to zero is refused before the guard, as in ``c_mul``."""
    _same(f.domain, g.domain, "grid functions live over different grids")
    vs, ws = f.preimages, g.preimages
    qs = tuple(map(operator.mul, vs, ws))
    if not all(qs):
        _refuse_zero_products(qs, vs, ws)
    return GridFunction.of_preimages(f.domain, qs)


def fn_involution(f: GridFunction) -> GridFunction:
    """Pointwise conjugation."""
    return _pointwise(complex.conjugate, f)


def _commutes(A: Algebra) -> bool:
    """Does A's product commute bit for bit? Yes for the classical complex
    product on preimages, alone (``c_mul``) or pointwise on a grid
    (``fn_mul``), decided by identity, so a record whose ``mul`` was
    replaced does not inherit it."""
    return A.mul is c_mul or A.mul is fn_mul


def _max_modulus(zs: Iterable[complex]) -> float:
    return max(math.hypot(w.real, w.imag) for w in zs)


def sup_norm(f: GridFunction) -> StarReal:
    """Largest pointwise modulus, as a beta-line value.

    The max runs on preimage moduli and only the result is guarded.
    """
    return from_preimage(f.domain.pair.beta, _max_modulus(f.preimages))


def _sup_modulus(f: GridFunction) -> float:
    """sup_norm(f).preimage, without building the beta-line value."""
    return guard(f.domain.pair.beta, _max_modulus(f.preimages))


def grid_algebra(dom: GridDomain) -> Algebra:
    """Functions on a finite grid with pointwise operations and sup norm."""
    pair = dom.pair

    def sample(rng: random.Random) -> GridFunction:
        return GridFunction.of_preimages(dom, _draw(rng, len(dom)))

    def sub(f: GridFunction, g: GridFunction) -> GridFunction:
        _same_pair(pair, g.domain.pair)
        return fn_sub(f, g)

    def distance(f: GridFunction, g: GridFunction) -> float:
        """sup_norm(sub(f, g)).preimage with only the norm guarded."""
        _same_pair(pair, g.domain.pair)
        _same(f.domain, g.domain, "grid functions live over different grids")
        return guard(
            pair.beta, _max_modulus(map(operator.sub, f.preimages, g.preimages))
        )

    return Algebra(
        name="grid",
        pair=pair,
        add=fn_add,
        sub=sub,
        scalar_mul=fn_scalar_mul,
        mul=fn_mul,
        measure=_sup_modulus,
        distance=distance,
        zero=grid_constant(dom, zero(pair)),
        unit=grid_constant(dom, one(pair)),
        involution=fn_involution,
        sample=sample,
        describe=lambda f: [[w.real, w.imag] for w in f.preimages],
    )


# ---------------------------------------------------------------------------
# evaluation ideals and the quotient


@dataclass(frozen=True)
class EvaluationIdeal:
    """Functions vanishing at one grid point: a maximal two-sided ideal."""

    domain: GridDomain
    point: StarComplex
    index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # resolving the index also validates the point
        object.__setattr__(self, "index", self.domain.index_of(self.point))


def ideal_membership(I: EvaluationIdeal, f: GridFunction, tol: float = 1e-9) -> bool:
    """Does f vanish at the ideal's base point (within tol on preimages)?"""
    _same(f.domain, I.domain, "function and ideal live over different grids")
    w = f.preimages[I.index]
    return math.hypot(w.real, w.imag) <= tol


def quotient_norm(f: GridFunction, I: EvaluationIdeal) -> StarReal:
    """Distance from f to the ideal: the modulus of f at the base point.

    Every coset contains the constant function with f's value there, and
    no representative can get closer, so the infimum is attained.
    """
    _same(f.domain, I.domain, "function and ideal live over different grids")
    return c_norm(f.at(I.index))


# ---------------------------------------------------------------------------
# element classification


@dataclass(frozen=True)
class ElementClass:
    hermitian: bool
    normal: bool
    unitary: bool


def classify_element(A: Algebra, x: Any) -> ElementClass:
    """Flags for x against its star: fixed, commuting, and inverse, each
    within 1e-9 in the carrier's distance.

    Requires an involution; the unitary flag additionally requires a
    unit (MissingUnitError otherwise, since the question has no meaning).
    """
    if A.involution is None:
        raise MissingInvolutionError(f"{A.name}: classification needs an involution")
    tol = 1e-9
    xs = A.involution(x)
    hermitian = A.distance(x, xs) <= tol
    left = A.mul(x, xs)
    right = A.mul(xs, x)
    normal = A.distance(left, right) <= tol
    if A.unit is None:
        raise MissingUnitError(f"{A.name}: the unitary flag needs a unit")
    unitary = (
        A.distance(left, A.unit) <= tol and A.distance(right, A.unit) <= tol
    )
    return ElementClass(hermitian, normal, unitary)


def hermitian_parts(A: Algebra, x: Any) -> tuple[Any, Any]:
    """Split x = u + i*v with u, v hermitian (the two averaged combinations
    of x and its star). Exact for any involutive carrier over the field."""
    if A.involution is None:
        raise MissingInvolutionError(f"{A.name}: decomposition needs an involution")
    xs = A.involution(x)
    half = from_preimages(A.pair, 0.5, 0.0)
    # 1/(2i) has preimages (0, -1/2)
    inv_two_i = c_div(one(A.pair), from_preimages(A.pair, 0.0, 2.0))
    u = A.scalar_mul(half, A.add(x, xs))
    v = A.scalar_mul(inv_two_i, A.sub(x, xs))
    return u, v

"""Concrete carriers: the scalar field, finite-grid function algebras,
polynomials, evaluation ideals, and element classification.

An Algebra is a plain record of operations over one generator pair. The
axiom harness, the series inverters, and the morphism checks only ever
go through this record, so anything with the same shape (including the
deliberately broken mutants the harness ships) plugs in unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (
    DomainMismatchError,
    MissingInvolutionError,
    MissingUnitError,
)
from .generators import GeneratorPair
from .report import AxiomReport
from .star_complex import (
    StarComplex,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_norm,
    from_classical,
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
    "fn_pointwise",
    "fn_add",
    "fn_scalar_mul",
    "fn_mul",
    "fn_involution",
    "sup_norm",
    "grid_algebra",
    "StarPolynomial",
    "make_polynomial",
    "poly_add",
    "poly_scalar_mul",
    "poly_mul",
    "poly_eval",
    "poly_to_grid",
    "polynomial_algebra",
    "EvaluationIdeal",
    "ideal_membership",
    "quotient_norm",
    "ElementClass",
    "classify_element",
    "hermitian_parts",
    "SubsetSpec",
    "subalgebra_closure_check",
    "norm_ball_subset",
    "polynomial_subset",
    "ideal_subset",
]


@dataclass(frozen=True)
class Algebra:
    """A carrier with the operations the checks and series engines need.

    ``unit`` and ``involution`` are None when the carrier lacks them.
    ``sample`` draws a generic element from the carrier's own measure;
    ``describe`` renders an element as JSON-friendly preimages for
    counterexamples.
    """

    name: str
    pair: GeneratorPair
    add: Callable[[Any, Any], Any]
    scalar_mul: Callable[[StarComplex, Any], Any]
    mul: Callable[[Any, Any], Any]
    norm: Callable[[Any], StarReal]
    zero: Any
    unit: Any | None
    involution: Callable[[Any], Any] | None
    sample: Callable[[random.Random], Any]
    describe: Callable[[Any], Any]

    def neg(self, x: Any) -> Any:
        return self.scalar_mul(from_preimages(self.pair, -1.0, 0.0), x)

    def sub(self, x: Any, y: Any) -> Any:
        return self.add(x, self.neg(y))

    def star(self, x: Any) -> Any:
        if self.involution is None:
            raise MissingInvolutionError(f"{self.name}: no involution")
        return self.involution(x)

    def distance(self, x: Any, y: Any) -> float:
        """Norm of the difference, as a preimage-scale float."""
        return self.norm(self.sub(x, y)).preimage

    def __repr__(self) -> str:
        return f"Algebra({self.name}, pair={self.pair.names})"


# ---------------------------------------------------------------------------
# the scalar field as a one-dimensional carrier


def scalar_algebra(pair: GeneratorPair, sample_bound: float = 3.0) -> Algebra:
    """The field itself: multiplication doubles as scalar action."""

    def sample(rng: random.Random) -> StarComplex:
        return random_point(rng, pair, sample_bound)

    return Algebra(
        name="scalar",
        pair=pair,
        add=c_add,
        scalar_mul=c_mul,
        mul=c_mul,
        norm=c_norm,
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


@dataclass(frozen=True)
class GridDomain:
    """A finite set of distinct field points inside the radius-1/2 disk.

    Always contains the additive zero. Functions on the grid are stored
    as value tuples aligned with ``points``.
    """

    pair: GeneratorPair
    points: tuple[StarComplex, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a grid needs at least one point")
        has_origin = False
        mods = []
        for p in self.points:
            if p.pair != self.pair:
                raise DomainMismatchError("grid point over a different pair")
            m = math.hypot(*p.preimages)
            mods.append(m)
            if m > 0.5 + _GRID_SLACK:
                raise ValueError(
                    f"grid point with preimage modulus {m!r} is outside"
                    " the radius-1/2 disk"
                )
            if m <= _POINT_MATCH_TOL:
                has_origin = True
        if not has_origin:
            raise ValueError("the grid must contain the additive zero")
        n = len(self.points)
        for i in range(n):
            zi = self.points[i].as_complex
            for j in range(i + 1, n):
                if abs(zi - self.points[j].as_complex) <= _POINT_MATCH_TOL:
                    raise ValueError(f"grid points {i} and {j} coincide")

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, z: StarComplex) -> int:
        """Index of the grid point matching z within 1e-9 on preimages."""
        zc = z.as_complex
        for i, p in enumerate(self.points):
            if abs(p.as_complex - zc) <= _POINT_MATCH_TOL:
                return i
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


@dataclass(frozen=True)
class GridFunction:
    """A field-valued function on a grid, one value per grid point."""

    domain: GridDomain
    values: tuple[StarComplex, ...]

    def __post_init__(self):
        if len(self.values) != len(self.domain.points):
            raise ValueError(
                f"{len(self.values)} values for {len(self.domain.points)} points"
            )
        for v in self.values:
            if v.pair != self.domain.pair:
                raise DomainMismatchError("value over a different pair")

    def value_at(self, z: StarComplex) -> StarComplex:
        return self.values[self.domain.index_of(z)]


def _same_domain(f: GridFunction, g: GridFunction) -> None:
    if f.domain is not g.domain and f.domain != g.domain:
        raise DomainMismatchError("grid functions live over different grids")


def grid_constant(dom: GridDomain, c: StarComplex) -> GridFunction:
    return GridFunction(dom, tuple(c for _ in dom.points))


def coordinate_function(dom: GridDomain) -> GridFunction:
    """The function z -> z."""
    return GridFunction(dom, dom.points)


def fn_add(f: GridFunction, g: GridFunction) -> GridFunction:
    _same_domain(f, g)
    return GridFunction(
        f.domain, tuple(c_add(u, v) for u, v in zip(f.values, g.values))
    )


def fn_scalar_mul(lam: StarComplex, f: GridFunction) -> GridFunction:
    return GridFunction(f.domain, tuple(c_mul(lam, v) for v in f.values))


def fn_mul(f: GridFunction, g: GridFunction) -> GridFunction:
    _same_domain(f, g)
    return GridFunction(
        f.domain, tuple(c_mul(u, v) for u, v in zip(f.values, g.values))
    )


def fn_involution(f: GridFunction) -> GridFunction:
    """Pointwise conjugation."""
    return GridFunction(f.domain, tuple(c_conj(v) for v in f.values))


def fn_pointwise(kind: str, *operands: Any) -> GridFunction:
    """Dispatch for the pointwise grid operations.

    kind "add" and "mul" take two functions, "scalar_mul" takes a scalar
    and a function, "involution" takes one function.
    """
    if kind == "add":
        return fn_add(*operands)
    if kind == "scalar_mul":
        return fn_scalar_mul(*operands)
    if kind == "mul":
        return fn_mul(*operands)
    if kind == "involution":
        return fn_involution(*operands)
    raise ValueError(f"unknown pointwise kind {kind!r}")


def sup_norm(f: GridFunction) -> StarReal:
    """Largest pointwise modulus, as a beta-line value.

    The max runs on preimage moduli and only the result is guarded.
    """
    m = max(math.hypot(*v.preimages) for v in f.values)
    return from_preimage(f.domain.pair.beta, m)


def grid_algebra(dom: GridDomain, sample_bound: float = 3.0) -> Algebra:
    """Functions on a finite grid with pointwise operations and sup norm."""
    pair = dom.pair

    def sample(rng: random.Random) -> GridFunction:
        return GridFunction(
            dom, tuple(random_point(rng, pair, sample_bound) for _ in dom.points)
        )

    return Algebra(
        name="grid",
        pair=pair,
        add=fn_add,
        scalar_mul=fn_scalar_mul,
        mul=fn_mul,
        norm=sup_norm,
        zero=grid_constant(dom, zero(pair)),
        unit=grid_constant(dom, one(pair)),
        involution=fn_involution,
        sample=sample,
        describe=lambda f: [list(v.preimages) for v in f.values],
    )


# ---------------------------------------------------------------------------
# polynomials over the field


@dataclass(frozen=True)
class StarPolynomial:
    """Coefficients in increasing degree; at least the constant term."""

    pair: GeneratorPair
    coefficients: tuple[StarComplex, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a polynomial needs at least one coefficient")
        for c in self.coefficients:
            if c.pair != self.pair:
                raise DomainMismatchError("coefficient over a different pair")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def make_polynomial(
    pair: GeneratorPair,
    coefficients: tuple[StarComplex, ...] | list[StarComplex],
    trim_tol: float = 1e-12,
) -> StarPolynomial:
    """Build a polynomial, trimming trailing near-zero coefficients."""
    coeffs = list(coefficients)
    while len(coeffs) > 1 and math.hypot(*coeffs[-1].preimages) <= trim_tol:
        coeffs.pop()
    return StarPolynomial(pair, tuple(coeffs))


def poly_add(p: StarPolynomial, q: StarPolynomial) -> StarPolynomial:
    if p.pair != q.pair:
        raise DomainMismatchError("polynomials over different pairs")
    z0 = zero(p.pair)
    n = max(len(p.coefficients), len(q.coefficients))
    a = list(p.coefficients) + [z0] * (n - len(p.coefficients))
    b = list(q.coefficients) + [z0] * (n - len(q.coefficients))
    return StarPolynomial(p.pair, tuple(c_add(u, v) for u, v in zip(a, b)))


def poly_scalar_mul(lam: StarComplex, p: StarPolynomial) -> StarPolynomial:
    return StarPolynomial(p.pair, tuple(c_mul(lam, c) for c in p.coefficients))


def poly_mul(p: StarPolynomial, q: StarPolynomial) -> StarPolynomial:
    """Coefficient convolution, folded with the field operations."""
    if p.pair != q.pair:
        raise DomainMismatchError("polynomials over different pairs")
    z0 = zero(p.pair)
    out = [z0] * (len(p.coefficients) + len(q.coefficients) - 1)
    for i, ci in enumerate(p.coefficients):
        for j, cj in enumerate(q.coefficients):
            out[i + j] = c_add(out[i + j], c_mul(ci, cj))
    return StarPolynomial(p.pair, tuple(out))


def poly_eval(p: StarPolynomial, z: StarComplex) -> StarComplex:
    """Horner evaluation with the field operations."""
    if z.pair != p.pair:
        raise DomainMismatchError("point over a different pair")
    acc = p.coefficients[-1]
    for c in reversed(p.coefficients[:-1]):
        acc = c_add(c_mul(acc, z), c)
    return acc


def poly_to_grid(p: StarPolynomial, dom: GridDomain) -> GridFunction:
    """Restrict a polynomial to a grid."""
    if dom.pair != p.pair:
        raise DomainMismatchError("grid over a different pair")
    return GridFunction(dom, tuple(poly_eval(p, z) for z in dom.points))


def polynomial_algebra(
    dom: GridDomain, max_sample_degree: int = 3, sample_bound: float = 1.0
) -> Algebra:
    """Polynomials with the sup norm of their restriction to a grid.

    Sampled degrees and coefficient bounds stay small so that triple
    products taken inside law checks neither vanish on the grid without
    being zero nor push coefficient preimages past the exp generator's
    working domain.
    """
    pair = dom.pair

    def sample(rng: random.Random) -> StarPolynomial:
        deg = rng.randint(0, max_sample_degree)
        return StarPolynomial(
            pair, tuple(random_point(rng, pair, sample_bound) for _ in range(deg + 1))
        )

    return Algebra(
        name="polynomial",
        pair=pair,
        add=poly_add,
        scalar_mul=poly_scalar_mul,
        mul=poly_mul,
        norm=lambda p: sup_norm(poly_to_grid(p, dom)),
        zero=StarPolynomial(pair, (zero(pair),)),
        unit=StarPolynomial(pair, (one(pair),)),
        involution=None,
        sample=sample,
        describe=lambda p: [list(c.preimages) for c in p.coefficients],
    )


# ---------------------------------------------------------------------------
# evaluation ideals and the quotient


@dataclass(frozen=True)
class EvaluationIdeal:
    """Functions vanishing at one grid point: a maximal two-sided ideal."""

    domain: GridDomain
    point: StarComplex

    def __post_init__(self):
        # resolving the index also validates the point
        object.__setattr__(self, "_index", self.domain.index_of(self.point))

    @property
    def index(self) -> int:
        return self._index  # type: ignore[attr-defined]


def ideal_membership(I: EvaluationIdeal, f: GridFunction, tol: float = 1e-9) -> bool:
    """Does f vanish at the ideal's base point (within tol on preimages)?"""
    if f.domain is not I.domain and f.domain != I.domain:
        raise DomainMismatchError("function and ideal live over different grids")
    return math.hypot(*f.values[I.index].preimages) <= tol


def quotient_norm(f: GridFunction, I: EvaluationIdeal) -> StarReal:
    """Distance from f to the ideal: the modulus of f at the base point.

    Every coset contains the constant function with f's value there, and
    no representative can get closer, so the infimum is attained.
    """
    if f.domain is not I.domain and f.domain != I.domain:
        raise DomainMismatchError("function and ideal live over different grids")
    return c_norm(f.values[I.index])


# ---------------------------------------------------------------------------
# element classification


@dataclass(frozen=True)
class ElementClass:
    hermitian: bool
    normal: bool
    unitary: bool


def classify_element(A: Algebra, x: Any, tol: float = 1e-9) -> ElementClass:
    """Flags for x against its star: fixed, commuting, and inverse.

    Requires an involution; the unitary flag additionally requires a
    unit (MissingUnitError otherwise, since the question has no meaning).
    """
    if A.involution is None:
        raise MissingInvolutionError(f"{A.name}: classification needs an involution")
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


# ---------------------------------------------------------------------------
# subset closure checking


@dataclass(frozen=True)
class SubsetSpec:
    """A subset of a carrier, given extensionally.

    ``contains(x, tol)`` is the membership predicate. ``sample_member``
    must produce members directly: rejection sampling cannot hit
    measure-zero subsets such as an ideal. ``star_closed`` asks the
    closure check to also audit the involution.
    """

    name: str
    contains: Callable[[Any, float], bool]
    sample_member: Callable[[random.Random], Any]
    star_closed: bool = False


def subalgebra_closure_check(
    A: Algebra,
    subset: SubsetSpec,
    trials: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
) -> AxiomReport:
    """Audit that a subset is closed under the carrier's operations.

    Checks the sampler's own consistency, the zero, and closure under
    addition, scalar action, multiplication, and (when requested) the
    involution. Violations are structural: the report carries the first
    counterexample and passed=False.
    """
    rng = random.Random(seed)
    counterexample: dict[str, Any] | None = None
    passed = True
    notes = [f"subset: {subset.name}"]

    def fail(law: str, **payload: Any) -> None:
        nonlocal passed, counterexample
        passed = False
        if counterexample is None:
            counterexample = {"law": law, **payload}

    if not subset.contains(A.zero, tol):
        fail("zero-membership")

    for _ in range(trials):
        x = subset.sample_member(rng)
        y = subset.sample_member(rng)
        lam = random_point(rng, A.pair)
        if not subset.contains(x, tol):
            fail("sampler-consistency", x=A.describe(x))
            break
        if not subset.contains(A.add(x, y), tol):
            fail("closed-under-addition", x=A.describe(x), y=A.describe(y))
        if not subset.contains(A.scalar_mul(lam, x), tol):
            fail(
                "closed-under-scalar",
                x=A.describe(x),
                scalar=list(lam.preimages),
            )
        if not subset.contains(A.mul(x, y), tol):
            fail("closed-under-multiplication", x=A.describe(x), y=A.describe(y))
        if subset.star_closed:
            if A.involution is None:
                raise MissingInvolutionError(
                    f"{A.name}: subset claims star closure but the carrier"
                    " has no involution"
                )
            if not subset.contains(A.involution(x), tol):
                fail("closed-under-star", x=A.describe(x))
        if not passed:
            break

    return AxiomReport(
        suite="subalgebra-closure",
        pair=A.pair.names,
        trials=trials,
        tolerance=tol,
        passed=passed,
        worst_residual=0.0,
        counterexample=counterexample,
        notes=tuple(notes),
    )


def norm_ball_subset(dom: GridDomain, radius: float = 1.0) -> SubsetSpec:
    """Functions with sup norm at most ``radius``. Not closed under
    addition; useful as a deliberate closure-check failure."""

    def contains(f: GridFunction, tol: float) -> bool:
        return sup_norm(f).preimage <= radius + tol

    def sample_member(rng: random.Random) -> GridFunction:
        target = rng.uniform(0.5 * radius, radius)
        vals = [
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in dom.points
        ]
        peak = max(abs(v) for v in vals)
        if peak == 0.0:
            vals[0] = complex(target, 0.0)
            peak = target
        scale = target / peak
        return GridFunction(
            dom, tuple(from_classical(dom.pair, v * scale) for v in vals)
        )

    return SubsetSpec(
        name=f"sup-norm ball of radius {radius:g}",
        contains=contains,
        sample_member=sample_member,
        star_closed=True,
    )


def polynomial_subset(
    dom: GridDomain,
    max_degree: int = 2,
    fit_degree: int = 4,
    fit_tol: float = 1e-7,
) -> SubsetSpec:
    """Grid restrictions of polynomials of degree at most ``fit_degree``.

    Membership is decided by a least-squares polynomial fit on the grid
    points: members leave residuals at rounding scale, generic functions
    on 10+ points do not. Sampled members have degree at most
    ``max_degree`` so that products stay within the fit degree.
    """
    pts = np.array([p.as_complex for p in dom.points])
    vander = np.vander(pts, N=fit_degree + 1, increasing=True)
    if len(dom.points) <= fit_degree + 1:
        raise ValueError("grid too small to separate polynomials from the rest")

    def contains(f: GridFunction, tol: float) -> bool:
        vals = np.array([v.as_complex for v in f.values])
        coef, *_ = np.linalg.lstsq(vander, vals, rcond=None)
        residual = float(np.max(np.abs(vander @ coef - vals)))
        return residual <= max(fit_tol, tol)

    def sample_member(rng: random.Random) -> GridFunction:
        deg = rng.randint(0, max_degree)
        p = StarPolynomial(
            dom.pair, tuple(random_point(rng, dom.pair, 2.0) for _ in range(deg + 1))
        )
        return poly_to_grid(p, dom)

    return SubsetSpec(
        name=f"polynomials of degree <= {fit_degree} on the grid",
        contains=contains,
        sample_member=sample_member,
        star_closed=False,
    )


def ideal_subset(I: EvaluationIdeal) -> SubsetSpec:
    """Functions vanishing at the ideal's base point."""

    def contains(f: GridFunction, tol: float) -> bool:
        return ideal_membership(I, f, tol)

    def sample_member(rng: random.Random) -> GridFunction:
        raw = [
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            for _ in I.domain.points
        ]
        base = raw[I.index]
        # shifting by the base-point value lands exactly in the ideal
        return GridFunction(
            I.domain, tuple(from_classical(I.domain.pair, v - base) for v in raw)
        )

    return SubsetSpec(
        name="functions vanishing at the base point",
        contains=contains,
        sample_member=sample_member,
        star_closed=True,
    )

"""Series inversion in a unital normed carrier.

Inverses come from the geometric series: near the unit directly, near an
already-inverted element by a preconditioned series. Convergence is
monitored through the two one-sided residuals (how far x times the
partial sum is from the unit, both ways), not through term sizes, so the
reported residual is the thing that actually matters. Where the product
commutes bit for bit (scalars and grids), the reversed residual is the
same number, measured once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .algebra import Algebra, _commutes
from .errors import BadInverseError, MissingUnitError, NotApplicableError
from .star_real import StarReal, from_preimage

__all__ = [
    "InversionReport",
    "ContinuityBound",
    "neumann_inverse",
    "perturbative_inverse",
    "continuity_bound_check",
]


@dataclass(frozen=True)
class InversionReport:
    """Outcome of a series inversion.

    ``residual`` is the norm of (x times inverse minus unit);
    ``residual_reversed`` the other order, which is the same number, and
    measured once, where the product commutes bit for bit.
    ``terms_used`` counts the partial-sum terms folded in, the leading
    unit included.
    """

    inverse: Any
    converged: bool
    terms_used: int
    residual: StarReal
    residual_reversed: StarReal

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "converged": self.converged,
            "terms_used": self.terms_used,
            "residual_preimage": max(
                self.residual.preimage, self.residual_reversed.preimage
            ),
        }


def _residuals(A: Algebra, x: Any, candidate: Any) -> tuple[float, float]:
    """Distances of x times candidate, both ways, from the unit. Where
    the product commutes bit for bit, candidate times x is the same
    element, so the one distance is returned for both."""
    right = A.distance(A.mul(x, candidate), A.unit)
    if _commutes(A):
        return right, right
    left = A.distance(A.mul(candidate, x), A.unit)
    return right, left


def _geometric_series(
    A: Algebra, x: Any, ratio: Any, right: Any, tol: float, max_terms: int
) -> InversionReport:
    """Fold unit + ratio + ratio^2 + ... and monitor the candidate, the
    partial sum times ``right`` (the partial sum itself when ``right`` is
    None), against x. Stops once both residuals are within ``tol`` or
    ``max_terms`` partial sums have been taken."""
    beta = A.pair.beta
    total = term = A.unit
    used = 1
    while True:
        candidate = total if right is None else A.mul(total, right)
        r, l = _residuals(A, x, candidate)
        converged = max(r, l) <= tol
        if converged or used >= max_terms:
            return InversionReport(
                candidate, converged, used,
                from_preimage(beta, r), from_preimage(beta, l),
            )
        term = A.mul(term, ratio)
        total = A.add(total, term)
        used += 1


def neumann_inverse(
    A: Algebra, x: Any, tol: float = 1e-10, max_terms: int = 10_000
) -> InversionReport:
    """Invert x by the geometric series around the unit.

    Applies only inside the open unit ball around the unit: the norm of
    (unit - x) must be below 1, else NotApplicableError. The series is
    summed until both residuals drop to ``tol`` or ``max_terms`` partial
    sums have been taken.
    """
    if A.unit is None:
        raise MissingUnitError(f"{A.name}: inversion needs a unit")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    w = A.sub(A.unit, x)
    gap = A.measure(w)
    if gap >= 1.0:
        raise NotApplicableError(
            f"norm of (unit - x) is {gap!r}, not inside the unit ball"
        )
    return _geometric_series(A, x, w, None, tol, max_terms)


def perturbative_inverse(
    A: Algebra,
    x: Any,
    x0: Any,
    x0_inv: Any,
    tol: float = 1e-10,
    max_terms: int = 10_000,
) -> InversionReport:
    """Invert x from a known inverse of a nearby x0.

    ``x0_inv`` must invert x0 within ``tol`` (BadInverseError otherwise).
    Applies only when norm(x - x0) is below 1/norm(x0_inv); the series
    for (unit - x0_inv (x0 - x))^{-1} is folded and right-multiplied by
    x0_inv. Residuals are monitored against x itself.
    """
    if A.unit is None:
        raise MissingUnitError(f"{A.name}: inversion needs a unit")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    miss = max(_residuals(A, x0, x0_inv))
    if miss > tol:
        raise BadInverseError(f"supplied inverse misses by {miss!r}")
    m = A.measure(x0_inv)
    d = A.distance(x, x0)
    if m * d >= 1.0:
        raise NotApplicableError(
            f"norm(x - x0) = {d!r} is not below 1/norm(x0_inv) = {1.0 / m!r}"
        )
    u = A.mul(x0_inv, A.sub(x0, x))
    return _geometric_series(A, x, u, x0_inv, tol, max_terms)


@dataclass(frozen=True)
class ContinuityBound:
    """Inversion continuity data near x0.

    ``lhs`` is the distance between the computed inverse of x and
    ``x0_inv``; ``rhs`` is the asserted bound, twice norm(x0_inv)^2
    times norm(x - x0). The factor 2 makes the bound valid whenever the
    contraction (norm(x0_inv) * norm(x - x0)) is at most 1/2; the
    single-factor variant only holds in the limit and is not asserted.
    """

    lhs: StarReal
    rhs: StarReal
    condition_met: bool
    contraction: float


def continuity_bound_check(A: Algebra, x: Any, x0: Any, x0_inv: Any) -> ContinuityBound:
    """Check the factor-2 inversion continuity bound near x0, inverting x
    with ``perturbative_inverse`` at its default tolerance and term cap.

    Requires the contraction (norm(x0_inv) times norm(x - x0)) to be at
    most 1/2; beyond that the bound has no content and
    NotApplicableError is raised.
    """
    m = A.measure(x0_inv)
    d = A.distance(x, x0)
    c = m * d
    if c > 0.5 + 1e-12:
        raise NotApplicableError(
            f"contraction {c!r} exceeds 1/2; the bound does not apply"
        )
    rep = perturbative_inverse(A, x, x0, x0_inv)
    lhs = from_preimage(A.pair.beta, A.distance(rep.inverse, x0_inv))
    rhs = from_preimage(A.pair.beta, 2.0 * m * m * d)
    met = lhs.preimage <= rhs.preimage + 1e-12
    return ContinuityBound(lhs, rhs, met, c)

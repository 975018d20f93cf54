"""Maps between carriers: evaluation functionals, homomorphism audits,
kernels, and the quotient by an evaluation ideal.

The checks return the same report type as the axiom harness, so the CLI
and the scripts render them identically. A handle remembers which of
its properties have been verified; nothing is assumed up front.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .algebra import (
    Algebra,
    EvaluationIdeal,
    GridDomain,
    GridFunction,
    grid_algebra,
    grid_constant,
    quotient_norm,
    scalar_algebra,
)
from .axiom_harness import _rel_dist, _run_trials
from .errors import MissingInvolutionError, MissingUnitError
from .report import AxiomReport
from .star_complex import StarComplex, c_norm, from_preimages, random_point
from .star_real import StarReal

__all__ = [
    "HomomorphismHandle",
    "evaluation_functional",
    "homomorphism_check",
    "star_homomorphism_check",
    "kernel_membership",
    "kernel_image_closure_check",
    "unital_functional_check",
    "Coset",
    "quotient_map",
]


@dataclass
class HomomorphismHandle:
    """A map between two carriers, with verification flags.

    The flags start False and are flipped by the corresponding checks;
    they are bookkeeping, not promises.
    """

    source: Algebra
    target: Algebra
    map: Callable[[Any], Any]
    name: str = "map"
    linear_verified: bool = False
    multiplicative_verified: bool = False
    star_verified: bool = False
    unital_verified: bool = False
    notes: list[str] = field(default_factory=list)


def evaluation_functional(dom: GridDomain, at: StarComplex) -> HomomorphismHandle:
    """The functional f -> f(at) from grid functions to scalars.

    ``at`` must be one of the grid's points (ValueError otherwise).
    """
    idx = dom.index_of(at)
    src = grid_algebra(dom)
    tgt = scalar_algebra(dom.pair)
    return HomomorphismHandle(
        source=src,
        target=tgt,
        map=lambda f: f.values[idx],
        name=f"evaluation at grid point {idx}",
    )


def homomorphism_check(
    h: HomomorphismHandle, trials: int = 500, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Audit linearity and multiplicativity of the map on random inputs.

    Flips the handle's flags when the corresponding laws pass.
    """
    src, tgt, phi = h.source, h.target, h.map

    def law_linear(rng):
        x, y = src.sample(rng), src.sample(rng)
        lam = random_point(rng, src.pair)
        lhs = phi(src.add(x, src.scalar_mul(lam, y)))
        rhs = tgt.add(phi(x), tgt.scalar_mul(lam, phi(y)))
        return _rel_dist(tgt, lhs, rhs), {
            "x": src.describe(x),
            "y": src.describe(y),
            "scalar": list(lam.preimages),
        }

    def law_multiplicative(rng):
        x, y = src.sample(rng), src.sample(rng)
        lhs = phi(src.mul(x, y))
        rhs = tgt.mul(phi(x), phi(y))
        return _rel_dist(tgt, lhs, rhs), {
            "x": src.describe(x),
            "y": src.describe(y),
        }

    report = _run_trials(
        [("linear", law_linear), ("multiplicative", law_multiplicative)],
        suite="homomorphism",
        pair=src.pair,
        trials=trials,
        tol=tol,
        seed=seed,
    )
    if report.passed:
        h.linear_verified = True
        h.multiplicative_verified = True
    return report


def star_homomorphism_check(
    h: HomomorphismHandle, trials: int = 500, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Audit that the map intertwines the two involutions."""
    src, tgt, phi = h.source, h.target, h.map
    if src.involution is None or tgt.involution is None:
        raise MissingInvolutionError(
            "star check needs involutions on both carriers"
        )

    def law_star(rng):
        x = src.sample(rng)
        lhs = phi(src.involution(x))
        rhs = tgt.involution(phi(x))
        return _rel_dist(tgt, lhs, rhs), {"x": src.describe(x)}

    report = _run_trials(
        [("star-intertwines", law_star)],
        suite="star-homomorphism", pair=src.pair, trials=trials, tol=tol,
        seed=seed,
    )
    if report.passed:
        h.star_verified = True
    return report


def kernel_membership(h: HomomorphismHandle, x: Any, tol: float = 1e-9) -> bool:
    """Does x map to (numerical) zero?"""
    return h.target.norm(h.map(x)).preimage <= tol


def _default_kernel_sampler(h: HomomorphismHandle):
    """Kernel elements as x minus (phi x) times the unit.

    Needs a unital source and a scalar-valued map that fixes the unit
    (an evaluation functional does); then phi of the combination cancels
    exactly.
    """
    src, phi = h.source, h.map
    if src.unit is None:
        raise MissingUnitError("kernel sampling needs a unital source")
    if h.target.name != "scalar":
        raise ValueError(
            "no default kernel sampler for a non-scalar target; pass one"
        )

    def sample(rng: random.Random):
        x = src.sample(rng)
        return src.sub(x, src.scalar_mul(phi(x), src.unit))

    return sample


def kernel_image_closure_check(
    h: HomomorphismHandle,
    trials: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
    kernel_sampler: Callable[[random.Random], Any] | None = None,
) -> AxiomReport:
    """Audit the structural consequences of being a homomorphism.

    The kernel must be a two-sided ideal (closed under addition, scalar
    action, and absorption from both sides) and, when both carriers are
    involutive and the map intertwines the stars, self-adjoint. The
    image must be closed under the target operations (checked through
    pushforwards). Residuals for kernel laws are the norms of mapped
    elements that should vanish.
    """
    src, tgt, phi = h.source, h.target, h.map
    sample_k = kernel_sampler if kernel_sampler is not None else _default_kernel_sampler(h)
    starred = src.involution is not None and tgt.involution is not None
    notes = () if starred else ("kernel star-closure skipped: no involution",)

    def norm_of_mapped(k) -> float:
        return tgt.norm(phi(k)).preimage

    def law_kernel_sampler(rng):
        k = sample_k(rng)
        return norm_of_mapped(k), {"k": src.describe(k)}

    def law_kernel_add(rng):
        k1, k2 = sample_k(rng), sample_k(rng)
        return norm_of_mapped(src.add(k1, k2)), {
            "k1": src.describe(k1),
            "k2": src.describe(k2),
        }

    def law_kernel_scalar(rng):
        k = sample_k(rng)
        lam = random_point(rng, src.pair)
        return norm_of_mapped(src.scalar_mul(lam, k)), {
            "k": src.describe(k),
            "scalar": list(lam.preimages),
        }

    def law_kernel_absorbs(rng):
        k = sample_k(rng)
        x = src.sample(rng)
        r = max(
            norm_of_mapped(src.mul(x, k)), norm_of_mapped(src.mul(k, x))
        )
        return r, {"k": src.describe(k), "x": src.describe(x)}

    def law_kernel_star(rng):
        k = sample_k(rng)
        return norm_of_mapped(src.involution(k)), {"k": src.describe(k)}

    def law_image_add(rng):
        x, y = src.sample(rng), src.sample(rng)
        lhs = tgt.add(phi(x), phi(y))
        rhs = phi(src.add(x, y))
        return _rel_dist(tgt, lhs, rhs), {
            "x": src.describe(x),
            "y": src.describe(y),
        }

    def law_image_mul(rng):
        x, y = src.sample(rng), src.sample(rng)
        lhs = tgt.mul(phi(x), phi(y))
        rhs = phi(src.mul(x, y))
        return _rel_dist(tgt, lhs, rhs), {
            "x": src.describe(x),
            "y": src.describe(y),
        }

    def law_image_star(rng):
        x = src.sample(rng)
        lhs = tgt.involution(phi(x))
        rhs = phi(src.involution(x))
        return _rel_dist(tgt, lhs, rhs), {"x": src.describe(x)}

    laws = [
        ("kernel-sampler", law_kernel_sampler),
        ("kernel-add", law_kernel_add),
        ("kernel-scalar", law_kernel_scalar),
        ("kernel-absorbs", law_kernel_absorbs),
        ("image-add", law_image_add),
        ("image-mul", law_image_mul),
    ]
    if starred:
        laws.insert(4, ("kernel-star", law_kernel_star))
        laws.append(("image-star", law_image_star))

    return _run_trials(
        laws, suite="kernel-image-closure", pair=src.pair,
        trials=trials, tol=tol, seed=seed, notes=notes,
    )


def unital_functional_check(
    h: HomomorphismHandle, trials: int = 500, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Audit a scalar-valued functional's unital behavior.

    Three laws: the unit maps to the scalar one; elements within the
    unit's inversion ball (hence invertible) have functional values
    bounded away from zero; the functional never increases the norm
    (contraction), so values of norm-below-one elements stay below one.
    """
    src, tgt, phi = h.source, h.target, h.map
    if src.unit is None:
        raise MissingUnitError("unital check needs a unital source")
    if tgt.name != "scalar":
        raise ValueError("unital check expects a scalar-valued functional")
    one_t = tgt.unit

    def law_unit_maps_to_one(rng):
        return _rel_dist(tgt, phi(src.unit), one_t), {"element": "unit"}

    def scaled_sample(rng, target_norm: float):
        x = src.sample(rng)
        n = src.norm(x).preimage
        if n <= 1e-12:
            return src.zero
        lam = from_preimages(src.pair, target_norm / n, 0.0)
        return src.scalar_mul(lam, x)

    def law_invertible_nonvanishing(rng):
        # unit plus a perturbation of norm at most 0.9: invertible, so
        # the functional value must stay away from zero
        w = scaled_sample(rng, rng.uniform(0.0, 0.9))
        x = src.add(src.unit, w)
        value = c_norm(phi(x)).preimage
        if value <= 1e-9:
            return 1.0, {"x": src.describe(x), "value": value}
        return 0.0, None

    def law_contraction(rng):
        x = scaled_sample(rng, rng.uniform(0.0, 2.0))
        nx = src.norm(x).preimage
        nv = c_norm(phi(x)).preimage
        return max(0.0, nv - nx) / max(1.0, nx), {"x": src.describe(x)}

    report = _run_trials(
        [
            ("unit-maps-to-one", law_unit_maps_to_one),
            ("invertible-nonvanishing", law_invertible_nonvanishing),
            ("contraction", law_contraction),
        ],
        suite="unital-functional",
        pair=src.pair,
        trials=trials,
        tol=tol,
        seed=seed,
    )
    if report.passed:
        h.unital_verified = True
    return report


# ---------------------------------------------------------------------------
# quotient by an evaluation ideal


@dataclass(frozen=True)
class Coset:
    """A coset of an evaluation ideal.

    On a grid, the value at the base point is a complete invariant; the
    canonical representative is the constant function with that value
    (it lies in the coset and attains the quotient norm).
    """

    ideal: EvaluationIdeal
    value: StarComplex
    representative: GridFunction
    norm: StarReal


def quotient_map(x: GridFunction, I: EvaluationIdeal) -> Coset:
    """Project a grid function onto the quotient by an evaluation ideal."""
    qn = quotient_norm(x, I)  # also validates the domains agree
    v = x.values[I.index]
    return Coset(
        ideal=I,
        value=v,
        representative=grid_constant(I.domain, v),
        norm=qn,
    )

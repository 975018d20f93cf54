"""Maps between carriers: evaluation functionals, homomorphism audits,
kernels, and the quotient by an evaluation ideal.

The checks run their laws through the axiom harness's trial runner, so
they return the same report type and the CLI and the scripts render
them identically. A law returns its residual and the source elements it
drew, and the runner renders those of the first counterexample only. A
law that two checks share (multiplicativity, and intertwining the
involutions) is written once, over the handle. A check returns its
report and leaves the handle as it was.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
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
from .axiom_harness import _is_scalar_carrier, _rel_dist, _run_trials, _scaled
from .errors import MissingInvolutionError, MissingUnitError
from .report import AxiomReport
from .star_complex import StarComplex, from_preimages, random_point
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
    """A map between two carriers, with a descriptive name."""

    source: Algebra
    target: Algebra
    map: Callable[[Any], Any]
    name: str = "map"


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
        map=lambda f: f.at(idx),
        name=f"evaluation at grid point {idx}",
    )


# laws shared by more than one check: each draws from rng and returns
# (residual, operands) for the handle's map, the operands drawn from the
# source


def _law_multiplicative(h: HomomorphismHandle, rng: random.Random):
    src, tgt, phi = h.source, h.target, h.map
    x, y = src.sample(rng), src.sample(rng)
    lhs = phi(src.mul(x, y))
    rhs = tgt.mul(phi(x), phi(y))
    return _rel_dist(tgt, lhs, rhs), {"x": x, "y": y}


def _law_star_intertwines(h: HomomorphismHandle, rng: random.Random):
    src, tgt, phi = h.source, h.target, h.map
    x = src.sample(rng)
    lhs = phi(src.involution(x))
    rhs = tgt.involution(phi(x))
    return _rel_dist(tgt, lhs, rhs), {"x": x}


def homomorphism_check(
    h: HomomorphismHandle, trials: int = 500, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Audit linearity and multiplicativity of the map on random inputs."""
    src, tgt, phi = h.source, h.target, h.map

    def law_linear(rng):
        x, y = src.sample(rng), src.sample(rng)
        lam = random_point(rng, src.pair)
        lhs = phi(src.add(x, src.scalar_mul(lam, y)))
        rhs = tgt.add(phi(x), tgt.scalar_mul(lam, phi(y)))
        return _rel_dist(tgt, lhs, rhs), {"x": x, "y": y, "scalar": lam}

    laws = [("linear", law_linear), ("multiplicative", partial(_law_multiplicative, h))]
    return _run_trials(laws, "homomorphism", src, trials, tol, seed)


def star_homomorphism_check(
    h: HomomorphismHandle, trials: int = 500, tol: float = 1e-9, seed: int = 0
) -> AxiomReport:
    """Audit that the map intertwines the two involutions."""
    if h.source.involution is None or h.target.involution is None:
        raise MissingInvolutionError(
            "star check needs involutions on both carriers"
        )
    laws = [("star-intertwines", partial(_law_star_intertwines, h))]
    return _run_trials(laws, "star-homomorphism", h.source, trials, tol, seed)


def kernel_membership(h: HomomorphismHandle, x: Any) -> bool:
    """Does x map to (numerical) zero, within 1e-9 in the target's norm?"""
    return h.target.measure(h.map(x)) <= 1e-9


def _kernel_sampler(h: HomomorphismHandle):
    """Kernel elements as x minus (phi x) times the unit.

    Needs a unital source and a scalar-valued map that fixes the unit
    (an evaluation functional does); then phi of the combination cancels
    exactly.
    """
    src, phi = h.source, h.map
    if src.unit is None:
        raise MissingUnitError("kernel sampling needs a unital source")
    if not _is_scalar_carrier(h.target):
        raise ValueError("no kernel sampler for a non-scalar target")

    def sample(rng: random.Random):
        x = src.sample(rng)
        return src.sub(x, src.scalar_mul(phi(x), src.unit))

    return sample


def kernel_image_closure_check(
    h: HomomorphismHandle,
    trials: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
) -> AxiomReport:
    """Audit the structural consequences of being a homomorphism.

    The kernel must be a two-sided ideal (closed under addition, scalar
    action, and absorption from both sides) and, when both carriers are
    involutive and the map intertwines the stars, self-adjoint. The
    image must be closed under the target operations (checked through
    pushforwards; image-mul and image-star are the laws that
    homomorphism_check and star_homomorphism_check run). Residuals for
    kernel laws are the norms of mapped elements that should vanish;
    kernel elements come from ``_kernel_sampler``.
    """
    src, tgt, phi = h.source, h.target, h.map
    sample_k = _kernel_sampler(h)
    starred = src.involution is not None and tgt.involution is not None
    notes = () if starred else ("kernel star-closure skipped: no involution",)

    def norm_of_mapped(k) -> float:
        return tgt.measure(phi(k))

    def law_kernel_sampler(rng):
        k = sample_k(rng)
        return norm_of_mapped(k), {"k": k}

    def law_kernel_add(rng):
        k1, k2 = sample_k(rng), sample_k(rng)
        return norm_of_mapped(src.add(k1, k2)), {"k1": k1, "k2": k2}

    def law_kernel_scalar(rng):
        k = sample_k(rng)
        lam = random_point(rng, src.pair)
        return norm_of_mapped(src.scalar_mul(lam, k)), {"k": k, "scalar": lam}

    def law_kernel_absorbs(rng):
        k, x = sample_k(rng), src.sample(rng)
        r = max(norm_of_mapped(src.mul(x, k)), norm_of_mapped(src.mul(k, x)))
        return r, {"k": k, "x": x}

    def law_kernel_star(rng):
        k = sample_k(rng)
        return norm_of_mapped(src.involution(k)), {"k": k}

    def law_image_add(rng):
        x, y = src.sample(rng), src.sample(rng)
        lhs = tgt.add(phi(x), phi(y))
        rhs = phi(src.add(x, y))
        return _rel_dist(tgt, lhs, rhs), {"x": x, "y": y}

    laws = [
        ("kernel-sampler", law_kernel_sampler),
        ("kernel-add", law_kernel_add),
        ("kernel-scalar", law_kernel_scalar),
        ("kernel-absorbs", law_kernel_absorbs),
        ("image-add", law_image_add),
        ("image-mul", partial(_law_multiplicative, h)),
    ]
    if starred:
        laws.insert(4, ("kernel-star", law_kernel_star))
        laws.append(("image-star", partial(_law_star_intertwines, h)))

    return _run_trials(
        laws, "kernel-image-closure", src, trials, tol, seed, notes
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
    if not _is_scalar_carrier(tgt):
        raise ValueError("unital check expects a scalar-valued functional")

    def law_unit_maps_to_one(rng):
        return _rel_dist(tgt, phi(src.unit), tgt.unit), {"element": "unit"}

    def scaled_sample(rng, target_norm: float):
        x = src.sample(rng)
        n = src.measure(x)
        if n <= 1e-12:
            return src.zero
        lam = from_preimages(src.pair, target_norm / n, 0.0)
        return src.scalar_mul(lam, x)

    def law_invertible_nonvanishing(rng):
        # unit plus a perturbation of norm at most 0.9: invertible, so
        # the functional value must stay away from zero
        w = scaled_sample(rng, rng.uniform(0.0, 0.9))
        x = src.add(src.unit, w)
        value = tgt.measure(phi(x))
        return (1.0 if value <= 1e-9 else 0.0), {"x": x, "value": value}

    def law_contraction(rng):
        x = scaled_sample(rng, rng.uniform(0.0, 2.0))
        nx = src.measure(x)
        nv = tgt.measure(phi(x))
        return _scaled(max(0.0, nv - nx), nx), {"x": x}

    laws = [
        ("unit-maps-to-one", law_unit_maps_to_one),
        ("invertible-nonvanishing", law_invertible_nonvanishing),
        ("contraction", law_contraction),
    ]
    return _run_trials(laws, "unital-functional", src, trials, tol, seed)


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
    v = x.at(I.index)
    return Coset(
        ideal=I,
        value=v,
        representative=grid_constant(I.domain, v),
        norm=qn,
    )

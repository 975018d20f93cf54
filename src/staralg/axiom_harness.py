"""Randomized law checking for carriers over a generator pair.

``_run_trials`` is the one trial runner, for the six suites (field,
vector-space, norm, normed-algebra, involution, c-star) and the checks
in morphisms. Each law is evaluated on fresh random tuples every trial
and returns its residual and the operands it drew; the report carries
the worst normalized residual and the first counterexample, whose
operands alone the runner renders (preimages only). The suites are one table of named laws; only what
depends on the carrier is decided when a suite is assembled. Residuals
are scaled by max(1, operand magnitude) in ``_scaled``, so the
tolerance reads as absolute near zero and relative at scale.

The module also ships deliberately broken carrier mutants (wrong zero,
constant norm, scaled multiplication, dropped conjugation) used to show
the suites actually reject what they should.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable

from .algebra import Algebra
from .errors import (
    MissingInvolutionError,
    MissingUnitError,
    StarError,
    UnsupportedSuiteError,
)
from .report import AxiomReport
from .star_complex import (
    StarComplex,
    c_add,
    c_conj,
    c_div,
    c_mul,
    from_preimages,
    one,
    random_point,
)
from .star_real import one_of

__all__ = [
    "SUITES",
    "run_axiom_suite",
    "broken_zero",
    "broken_norm",
    "broken_mul",
    "broken_involution",
]

# violations that have no meaningful magnitude still need to trip the
# tolerance comparison; anything >= this is an unambiguous failure
_VIOLATION = 1.0

# elements taking part in division or definiteness checks stay at least
# this far from zero; 1/0.01 = 100 is representable under every built-in
# generator, unlike 1/1e-6 under exp. A law gives up (does not apply)
# after this many draws below the floor.
_NONZERO_FLOOR = 0.01
_NONZERO_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# sampling helpers


def _sample_away_from_zero(A: Algebra, rng: random.Random):
    for _ in range(_NONZERO_ATTEMPTS):
        x = A.sample(rng)
        if A.measure(x) >= _NONZERO_FLOOR:
            return x
    return None


# ---------------------------------------------------------------------------
# residual helpers

LawFn = Callable[[Algebra, random.Random, float], "tuple[float, dict] | None"]


def _is_scalar_carrier(A: Algebra) -> bool:
    """Is A the field itself? Told by its elements, so mutants count."""
    return isinstance(A.zero, StarComplex)


def _scaled(gap: float, *magnitudes: float) -> float:
    """The one scaling rule: absolute near zero, relative at scale."""
    return gap / max(1.0, *magnitudes)


def _rel_dist(A: Algebra, u: Any, v: Any) -> float:
    return _scaled(A.distance(u, v), A.measure(u), A.measure(v))


def _num_gap(n1: float, n2: float) -> float:
    return _scaled(abs(n1 - n2), abs(n1), abs(n2))


# ---------------------------------------------------------------------------
# individual laws
#
# each law draws what it needs from rng and returns (residual, operands),
# the operands by name, or None when the law does not apply to the drawn
# tuple; _run_trials renders the operands of the first counterexample


def _law_add_commutes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    return _rel_dist(A, A.add(x, y), A.add(y, x)), {"x": x, "y": y}


def _law_add_associates(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.add(A.add(x, y), z)
    rhs = A.add(x, A.add(y, z))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y, "z": z}


def _law_zero_identity(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.add(x, A.zero), x), {"x": x}


def _law_add_inverse(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.add(x, A.neg(x)), A.zero), {"x": x}


def _law_scalar_distributes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lam = random_point(rng, A.pair)
    lhs = A.scalar_mul(lam, A.add(x, y))
    rhs = A.add(A.scalar_mul(lam, x), A.scalar_mul(lam, y))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y, "scalar": lam}


def _law_scalar_sum_distributes(A, rng, tol):
    x = A.sample(rng)
    lam, mu = random_point(rng, A.pair), random_point(rng, A.pair)
    lhs = A.scalar_mul(c_add(lam, mu), x)
    rhs = A.add(A.scalar_mul(lam, x), A.scalar_mul(mu, x))
    return _rel_dist(A, lhs, rhs), {"x": x, "scalars": [lam, mu]}


def _law_scalar_action_composes(A, rng, tol):
    x = A.sample(rng)
    lam, mu = random_point(rng, A.pair), random_point(rng, A.pair)
    lhs = A.scalar_mul(c_mul(lam, mu), x)
    rhs = A.scalar_mul(lam, A.scalar_mul(mu, x))
    return _rel_dist(A, lhs, rhs), {"x": x, "scalars": [lam, mu]}


def _law_unit_scalar(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.scalar_mul(one(A.pair), x), x), {"x": x}


def _law_scalar_inverse(A, rng, tol):
    # only demanded of draws with norm at least _NONZERO_FLOOR, whose
    # inverses are representable under every built-in generator; the law
    # does not apply when no such draw turns up
    x = _sample_away_from_zero(A, rng)
    if x is None:
        return None
    inv = c_div(one(A.pair), x)
    return _rel_dist(A, c_mul(x, inv), one(A.pair)), {"x": x}


def _law_mul_commutes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    return _rel_dist(A, A.mul(x, y), A.mul(y, x)), {"x": x, "y": y}


def _law_mul_associates(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(A.mul(x, y), z)
    rhs = A.mul(x, A.mul(y, z))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y, "z": z}


def _law_mul_identity(A, rng, tol):
    x = A.sample(rng)
    r = max(
        _rel_dist(A, A.mul(x, A.unit), x),
        _rel_dist(A, A.mul(A.unit, x), x),
    )
    return r, {"x": x}


def _law_left_distributes(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(A.add(x, y), z)
    rhs = A.add(A.mul(x, z), A.mul(y, z))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y, "z": z}


def _law_right_distributes(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(z, A.add(x, y))
    rhs = A.add(A.mul(z, x), A.mul(z, y))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y, "z": z}


def _law_scalar_slides(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lam = random_point(rng, A.pair)
    mid = A.scalar_mul(lam, A.mul(x, y))
    r = max(
        _rel_dist(A, mid, A.mul(A.scalar_mul(lam, x), y)),
        _rel_dist(A, mid, A.mul(x, A.scalar_mul(lam, y))),
    )
    return r, {"x": x, "y": y, "scalar": lam}


def _law_zero_norm(A, rng, tol):
    return A.measure(A.zero), {"element": "zero"}


def _law_definiteness(A, rng, tol):
    x = _sample_away_from_zero(A, rng)
    if x is None:
        return None
    return (_VIOLATION if A.measure(x) <= tol else 0.0), {"x": x}


def _law_homogeneity(A, rng, tol):
    x = A.sample(rng)
    lam = random_point(rng, A.pair)
    n1 = A.measure(A.scalar_mul(lam, x))
    n2 = abs(lam.as_complex) * A.measure(x)
    return _num_gap(n1, n2), {"x": x, "scalar": lam}


def _law_triangle(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    n_sum = A.measure(A.add(x, y))
    bound = A.measure(x) + A.measure(y)
    return _scaled(max(0.0, n_sum - bound), bound), {"x": x, "y": y}


def _law_submultiplicative(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    n_prod = A.measure(A.mul(x, y))
    bound = A.measure(x) * A.measure(y)
    return _scaled(max(0.0, n_prod - bound), bound), {"x": x, "y": y}


def _law_star_additive(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lhs = A.involution(A.add(x, y))
    rhs = A.add(A.involution(x), A.involution(y))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y}


def _law_star_conjugate_linear(A, rng, tol):
    x = A.sample(rng)
    lam = random_point(rng, A.pair)
    lhs = A.involution(A.scalar_mul(lam, x))
    rhs = A.scalar_mul(c_conj(lam), A.involution(x))
    return _rel_dist(A, lhs, rhs), {"x": x, "scalar": lam}


def _law_star_antimultiplicative(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lhs = A.involution(A.mul(x, y))
    rhs = A.mul(A.involution(y), A.involution(x))
    return _rel_dist(A, lhs, rhs), {"x": x, "y": y}


def _law_star_involutive(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.involution(A.involution(x)), x), {"x": x}


def _law_star_isometric(A, rng, tol):
    x = A.sample(rng)
    n1 = A.measure(A.involution(x))
    return _num_gap(n1, A.measure(x)), {"x": x}


def _law_cstar_identity(A, rng, tol):
    x = A.sample(rng)
    n1 = A.measure(A.mul(A.involution(x), x))
    nx = A.measure(x)
    return _num_gap(n1, nx * nx), {"x": x}


def _law_unit_norm(A, rng, tol):
    return _num_gap(A.measure(A.unit), 1.0), {"element": "unit"}


# ---------------------------------------------------------------------------
# suite assembly

_STAR_LAWS = [
    ("star-additive", _law_star_additive),
    ("star-conjugate-linear", _law_star_conjugate_linear),
    ("star-antimultiplicative", _law_star_antimultiplicative),
    ("star-involutive", _law_star_involutive),
    ("star-isometric", _law_star_isometric),
]

# every suite's laws, in the order they run; what depends on the carrier
# is added by _suite_laws
_SUITE_TABLE: dict[str, list[tuple[str, LawFn]]] = {
    "field": [
        ("add-commutes", _law_add_commutes),
        ("add-associates", _law_add_associates),
        ("zero-identity", _law_zero_identity),
        ("add-inverse", _law_add_inverse),
        ("mul-commutes", _law_mul_commutes),
        ("mul-associates", _law_mul_associates),
        ("mul-identity", _law_mul_identity),
        ("mul-inverse", _law_scalar_inverse),
        ("distributes", _law_left_distributes),
    ],
    "vector-space": [
        ("add-commutes", _law_add_commutes),
        ("add-associates", _law_add_associates),
        ("zero-identity", _law_zero_identity),
        ("add-inverse", _law_add_inverse),
        ("scalar-distributes", _law_scalar_distributes),
        ("scalar-sum-distributes", _law_scalar_sum_distributes),
        ("scalar-action-composes", _law_scalar_action_composes),
        ("unit-scalar", _law_unit_scalar),
    ],
    "norm": [
        ("zero-norm", _law_zero_norm),
        ("definiteness", _law_definiteness),
        ("homogeneity", _law_homogeneity),
        ("triangle", _law_triangle),
    ],
    "normed-algebra": [
        ("mul-associates", _law_mul_associates),
        ("left-distributes", _law_left_distributes),
        ("right-distributes", _law_right_distributes),
        ("scalar-slides", _law_scalar_slides),
        ("submultiplicative", _law_submultiplicative),
    ],
    "involution": _STAR_LAWS,
    "c-star": _STAR_LAWS + [
        ("cstar-identity", _law_cstar_identity),
        ("submultiplicative", _law_submultiplicative),
    ],
}

SUITES = tuple(_SUITE_TABLE)


def _suite_laws(
    suite: str, A: Algebra
) -> tuple[list[tuple[str, LawFn]], list[str]]:
    if suite not in _SUITE_TABLE:
        raise UnsupportedSuiteError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
        )
    if suite == "field" and not _is_scalar_carrier(A):
        raise UnsupportedSuiteError(
            "the field suite only applies to the scalar carrier"
        )
    if suite in ("involution", "c-star") and A.involution is None:
        raise UnsupportedSuiteError(
            f"the {suite} suite needs an involution; {A.name} has none"
        )
    laws, notes = list(_SUITE_TABLE[suite]), []
    if suite == "vector-space":
        if _is_scalar_carrier(A):
            laws.append(("scalar-multiplicative-inverse", _law_scalar_inverse))
        else:
            notes.append(
                "scalar-multiplicative-inverse law skipped: elements of"
                f" the {A.name} carrier are not invertible in general"
            )
    if suite == "normed-algebra":
        if A.unit is not None:
            laws.append(("unit-laws", _law_mul_identity))
        else:
            notes.append("unit laws skipped: carrier has no unit")
    if suite == "c-star" and A.unit is not None:
        laws.append(("unit-norm", _law_unit_norm))
    return laws, notes


def _render(A: Algebra, operand: Any) -> Any:
    """One operand of a counterexample as JSON-friendly data."""
    if isinstance(operand, (str, float)):
        return operand
    if isinstance(operand, list):
        return [_render(A, v) for v in operand]
    if isinstance(operand, StarComplex) and not _is_scalar_carrier(A):
        return list(operand.preimages)
    return A.describe(operand)


def _run_trials(
    laws: list[tuple[str, Callable[[random.Random], "tuple[float, dict] | None"]]],
    suite: str,
    A: Algebra,
    trials: int,
    tol: float,
    seed: int,
    notes: tuple[str, ...] = (),
) -> AxiomReport:
    """Evaluate every law on ``trials`` draws from one seeded rng.

    A law returns (residual, operands), or None when it does not apply;
    the operands are elements of ``A``, field scalars, lists of scalars
    or str/float markers, by name. No early exit: the report has the
    worst residual and the first counterexample, whose operands alone
    are rendered. A law that raises StarError fails the run, with the
    error text as its counterexample."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not tol >= 0.0:
        raise ValueError("tol must be a number at least 0")
    rng = random.Random(seed)
    worst = 0.0
    counterexample: dict[str, Any] | None = None
    errored = False
    for t in range(trials):
        for name, law in laws:
            try:
                out = law(rng)
            except StarError as e:
                errored = True
                if counterexample is None:
                    counterexample = {"law": name, "trial": t, "error": str(e)}
                continue
            if out is None:
                continue
            residual, operands = out
            if residual > worst:
                worst = residual
            if residual > tol and counterexample is None:
                counterexample = {"law": name, "trial": t, "residual": residual}
                for key, operand in operands.items():
                    counterexample[key] = _render(A, operand)
    return AxiomReport(
        suite=suite,
        pair=A.pair.names,
        trials=trials,
        tolerance=tol,
        passed=(worst <= tol) and not errored,
        worst_residual=worst,
        counterexample=counterexample,
        notes=notes,
    )


def run_axiom_suite(
    suite: str,
    A: Algebra,
    trials: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
) -> AxiomReport:
    """Run one law suite against a carrier; see ``_run_trials``."""
    laws, notes = _suite_laws(suite, A)
    bound = [(name, lambda rng, law=law: law(A, rng, tol)) for name, law in laws]
    return _run_trials(bound, suite, A, trials, tol, seed, tuple(notes))


# ---------------------------------------------------------------------------
# deliberately broken carriers


def broken_zero(A: Algebra) -> Algebra:
    """Replace the zero with the unit: additive laws must fail."""
    if A.unit is None:
        raise MissingUnitError(f"{A.name}: this mutant borrows the unit")
    return replace(A, name=A.name + "+broken-zero", zero=A.unit)


def broken_norm(A: Algebra) -> Algebra:
    """Constant norm: the zero-norm law must fail."""
    one = one_of(A.pair.beta).preimage

    def measure(x: Any) -> float:
        return one

    # the distance takes the difference, so a refused one is still refused
    return replace(
        A, name=A.name + "+broken-norm", measure=measure,
        distance=lambda x, y: measure(A.sub(x, y)),
    )


def broken_mul(A: Algebra) -> Algebra:
    """Multiplication scaled by 2: unit and submultiplicative laws fail."""
    two = from_preimages(A.pair, 2.0, 0.0)
    orig_mul = A.mul
    orig_smul = A.scalar_mul
    return replace(
        A,
        name=A.name + "+broken-mul",
        mul=lambda x, y: orig_smul(two, orig_mul(x, y)),
    )


def broken_involution(A: Algebra) -> Algebra:
    """Identity involution: conjugate linearity must fail."""
    if A.involution is None:
        raise MissingInvolutionError(f"{A.name}: nothing to break")
    return replace(A, name=A.name + "+broken-involution", involution=lambda x: x)

"""Randomized law checking for carriers over a generator pair.

Six suites: field, vector-space, norm, normed-algebra, involution,
c-star. Each law is evaluated on fresh random tuples every trial; the
report carries the worst normalized residual and the first
counterexample (preimages only). Residuals are scaled by
max(1, operand magnitude), so the tolerance reads as absolute near zero
and relative at scale.

The module also ships deliberately broken carrier mutants (wrong zero,
constant norm, scaled multiplication, dropped conjugation) used to show
the suites actually reject what they should.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable

from .algebra import Algebra, GridFunction, StarPolynomial, make_disk_domain
from .errors import (
    MissingInvolutionError,
    MissingUnitError,
    StarError,
    UnsupportedSuiteError,
)
from .generators import GeneratorPair
from .report import AxiomReport, emit_report, report_to_dict
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
from .star_real import from_preimage, one_of

__all__ = [
    "SUITES",
    "run_axiom_suite",
    "random_sample",
    "emit_report",
    "report_to_dict",
    "broken_zero",
    "broken_norm",
    "broken_mul",
    "broken_involution",
]

SUITES = (
    "field",
    "vector-space",
    "norm",
    "normed-algebra",
    "involution",
    "c-star",
)

# violations that have no meaningful magnitude still need to trip the
# tolerance comparison; anything >= this is an unambiguous failure
_VIOLATION = 1.0

# elements taking part in division or definiteness checks stay at least
# this far from zero; 1/0.01 = 100 is representable under every built-in
# generator, unlike 1/1e-6 under exp
_NONZERO_FLOOR = 0.01

# the documented guard: inverses are only demanded above this modulus
_INVERSE_GUARD = 1e-6


# ---------------------------------------------------------------------------
# sampling helpers


def _rand_scalar(
    rng: random.Random,
    pair: GeneratorPair,
    bound: float = 3.0,
    floor: float = 0.0,
) -> StarComplex:
    while True:
        lam = random_point(rng, pair, bound)
        if floor <= 0.0 or abs(lam.as_complex) >= floor:
            return lam


def _sample_away_from_zero(
    A: Algebra, rng: random.Random, floor: float, attempts: int = 64
):
    for _ in range(attempts):
        x = A.sample(rng)
        if A.norm(x).preimage >= floor:
            return x
    return None


def random_sample(
    kind: str,
    pair: GeneratorPair,
    bound: float = 3.0,
    seed: int = 0,
    domain=None,
    degree: int = 3,
):
    """One deterministic random element of the requested kind.

    Kinds: star-real (alpha line), star-complex, grid-function (over
    ``domain`` or a default 2x8 disk lattice), polynomial (coefficients
    up to ``degree``). Preimage components are uniform in [-bound,
    bound]; bounds above 600 would leave the exp generator's working
    domain and are rejected.
    """
    if not (0.0 < bound <= 600.0):
        raise ValueError("bound must be in (0, 600] to stay representable")
    rng = random.Random(seed)
    if kind == "star-real":
        return from_preimage(pair.alpha, rng.uniform(-bound, bound))
    if kind == "star-complex":
        return random_point(rng, pair, bound)
    if kind == "grid-function":
        dom = domain if domain is not None else make_disk_domain(pair, 2, 8)
        return GridFunction(
            dom, tuple(random_point(rng, pair, bound) for _ in dom.points)
        )
    if kind == "polynomial":
        return StarPolynomial(
            pair, tuple(random_point(rng, pair, bound) for _ in range(degree + 1))
        )
    raise ValueError(f"unknown sample kind {kind!r}")


# ---------------------------------------------------------------------------
# residual helpers

LawFn = Callable[[Algebra, random.Random, float], "tuple[float, dict] | None"]


def _rel_dist(A: Algebra, u: Any, v: Any) -> float:
    d = A.distance(u, v)
    scale = max(1.0, A.norm(u).preimage, A.norm(v).preimage)
    return d / scale


def _num_gap(n1: float, n2: float) -> float:
    return abs(n1 - n2) / max(1.0, abs(n1), abs(n2))


def _desc(A: Algebra, **named: Any) -> dict:
    return {k: A.describe(v) for k, v in named.items()}


def _scalar_desc(lam: StarComplex) -> list[float]:
    return list(lam.preimages)


# ---------------------------------------------------------------------------
# individual laws
#
# each law draws what it needs from rng and returns (residual, payload),
# or None when the law does not apply to the drawn tuple


def _law_add_commutes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    return _rel_dist(A, A.add(x, y), A.add(y, x)), _desc(A, x=x, y=y)


def _law_add_associates(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.add(A.add(x, y), z)
    rhs = A.add(x, A.add(y, z))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y, z=z)


def _law_zero_identity(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.add(x, A.zero), x), _desc(A, x=x)


def _law_add_inverse(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.add(x, A.neg(x)), A.zero), _desc(A, x=x)


def _law_scalar_distributes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lam = _rand_scalar(rng, A.pair)
    lhs = A.scalar_mul(lam, A.add(x, y))
    rhs = A.add(A.scalar_mul(lam, x), A.scalar_mul(lam, y))
    return _rel_dist(A, lhs, rhs), {**_desc(A, x=x, y=y), "scalar": _scalar_desc(lam)}


def _law_scalar_sum_distributes(A, rng, tol):
    x = A.sample(rng)
    lam, mu = _rand_scalar(rng, A.pair), _rand_scalar(rng, A.pair)
    lhs = A.scalar_mul(c_add(lam, mu), x)
    rhs = A.add(A.scalar_mul(lam, x), A.scalar_mul(mu, x))
    return _rel_dist(A, lhs, rhs), {
        **_desc(A, x=x),
        "scalars": [_scalar_desc(lam), _scalar_desc(mu)],
    }


def _law_scalar_action_composes(A, rng, tol):
    x = A.sample(rng)
    lam, mu = _rand_scalar(rng, A.pair), _rand_scalar(rng, A.pair)
    lhs = A.scalar_mul(c_mul(lam, mu), x)
    rhs = A.scalar_mul(lam, A.scalar_mul(mu, x))
    return _rel_dist(A, lhs, rhs), {
        **_desc(A, x=x),
        "scalars": [_scalar_desc(lam), _scalar_desc(mu)],
    }


def _law_unit_scalar(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.scalar_mul(one(A.pair), x), x), _desc(A, x=x)


def _law_scalar_inverse(A, rng, tol):
    # only demanded above the modulus guard; the sampler floor keeps the
    # inverse representable under every built-in generator
    x = _sample_away_from_zero(A, rng, _NONZERO_FLOOR)
    if x is None or abs(x.as_complex) < _INVERSE_GUARD:
        return None
    inv = c_div(one(A.pair), x)
    return _rel_dist(A, c_mul(x, inv), one(A.pair)), _desc(A, x=x)


def _law_mul_commutes(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    return _rel_dist(A, A.mul(x, y), A.mul(y, x)), _desc(A, x=x, y=y)


def _law_mul_associates(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(A.mul(x, y), z)
    rhs = A.mul(x, A.mul(y, z))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y, z=z)


def _law_mul_identity(A, rng, tol):
    x = A.sample(rng)
    r = max(
        _rel_dist(A, A.mul(x, A.unit), x),
        _rel_dist(A, A.mul(A.unit, x), x),
    )
    return r, _desc(A, x=x)


def _law_left_distributes(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(A.add(x, y), z)
    rhs = A.add(A.mul(x, z), A.mul(y, z))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y, z=z)


def _law_right_distributes(A, rng, tol):
    x, y, z = A.sample(rng), A.sample(rng), A.sample(rng)
    lhs = A.mul(z, A.add(x, y))
    rhs = A.add(A.mul(z, x), A.mul(z, y))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y, z=z)


def _law_scalar_slides(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lam = _rand_scalar(rng, A.pair)
    mid = A.scalar_mul(lam, A.mul(x, y))
    r = max(
        _rel_dist(A, mid, A.mul(A.scalar_mul(lam, x), y)),
        _rel_dist(A, mid, A.mul(x, A.scalar_mul(lam, y))),
    )
    return r, {**_desc(A, x=x, y=y), "scalar": _scalar_desc(lam)}


def _law_zero_norm(A, rng, tol):
    return A.norm(A.zero).preimage, {"element": "zero"}


def _law_definiteness(A, rng, tol):
    x = _sample_away_from_zero(A, rng, _NONZERO_FLOOR)
    if x is None:
        return None
    if A.norm(x).preimage <= tol:
        return _VIOLATION, _desc(A, x=x)
    return 0.0, None


def _law_homogeneity(A, rng, tol):
    x = A.sample(rng)
    lam = _rand_scalar(rng, A.pair)
    n1 = A.norm(A.scalar_mul(lam, x)).preimage
    n2 = abs(lam.as_complex) * A.norm(x).preimage
    return _num_gap(n1, n2), {**_desc(A, x=x), "scalar": _scalar_desc(lam)}


def _law_triangle(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    n_sum = A.norm(A.add(x, y)).preimage
    bound = A.norm(x).preimage + A.norm(y).preimage
    return max(0.0, n_sum - bound) / max(1.0, bound), _desc(A, x=x, y=y)


def _law_submultiplicative(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    n_prod = A.norm(A.mul(x, y)).preimage
    bound = A.norm(x).preimage * A.norm(y).preimage
    return max(0.0, n_prod - bound) / max(1.0, bound), _desc(A, x=x, y=y)


def _law_star_additive(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lhs = A.involution(A.add(x, y))
    rhs = A.add(A.involution(x), A.involution(y))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y)


def _law_star_conjugate_linear(A, rng, tol):
    x = A.sample(rng)
    lam = _rand_scalar(rng, A.pair)
    lhs = A.involution(A.scalar_mul(lam, x))
    rhs = A.scalar_mul(c_conj(lam), A.involution(x))
    return _rel_dist(A, lhs, rhs), {**_desc(A, x=x), "scalar": _scalar_desc(lam)}


def _law_star_antimultiplicative(A, rng, tol):
    x, y = A.sample(rng), A.sample(rng)
    lhs = A.involution(A.mul(x, y))
    rhs = A.mul(A.involution(y), A.involution(x))
    return _rel_dist(A, lhs, rhs), _desc(A, x=x, y=y)


def _law_star_involutive(A, rng, tol):
    x = A.sample(rng)
    return _rel_dist(A, A.involution(A.involution(x)), x), _desc(A, x=x)


def _law_star_isometric(A, rng, tol):
    x = A.sample(rng)
    return (
        _num_gap(A.norm(A.involution(x)).preimage, A.norm(x).preimage),
        _desc(A, x=x),
    )


def _law_cstar_identity(A, rng, tol):
    x = A.sample(rng)
    n1 = A.norm(A.mul(A.involution(x), x)).preimage
    nx = A.norm(x).preimage
    return _num_gap(n1, nx * nx), _desc(A, x=x)


def _law_unit_norm(A, rng, tol):
    return _num_gap(A.norm(A.unit).preimage, 1.0), {"element": "unit"}


# ---------------------------------------------------------------------------
# suite assembly


def _suite_laws(
    suite: str, A: Algebra
) -> tuple[list[tuple[str, LawFn]], list[str]]:
    notes: list[str] = []

    common_vector = [
        ("add-commutes", _law_add_commutes),
        ("add-associates", _law_add_associates),
        ("zero-identity", _law_zero_identity),
        ("add-inverse", _law_add_inverse),
        ("scalar-distributes", _law_scalar_distributes),
        ("scalar-sum-distributes", _law_scalar_sum_distributes),
        ("scalar-action-composes", _law_scalar_action_composes),
        ("unit-scalar", _law_unit_scalar),
    ]
    star_laws = [
        ("star-additive", _law_star_additive),
        ("star-conjugate-linear", _law_star_conjugate_linear),
        ("star-antimultiplicative", _law_star_antimultiplicative),
        ("star-involutive", _law_star_involutive),
    ]

    if suite == "field":
        if A.name != "scalar":
            raise UnsupportedSuiteError(
                "the field suite only applies to the scalar carrier"
            )
        return (
            [
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
            notes,
        )

    if suite == "vector-space":
        laws = list(common_vector)
        if A.name == "scalar":
            laws.append(("scalar-multiplicative-inverse", _law_scalar_inverse))
        else:
            notes.append(
                "scalar-multiplicative-inverse law skipped: elements of"
                f" the {A.name} carrier are not invertible in general"
            )
        return laws, notes

    if suite == "norm":
        return (
            [
                ("zero-norm", _law_zero_norm),
                ("definiteness", _law_definiteness),
                ("homogeneity", _law_homogeneity),
                ("triangle", _law_triangle),
            ],
            notes,
        )

    if suite == "normed-algebra":
        laws = [
            ("mul-associates", _law_mul_associates),
            ("left-distributes", _law_left_distributes),
            ("right-distributes", _law_right_distributes),
            ("scalar-slides", _law_scalar_slides),
            ("submultiplicative", _law_submultiplicative),
        ]
        if A.unit is not None:
            laws.append(("unit-laws", _law_mul_identity))
        else:
            notes.append("unit laws skipped: carrier has no unit")
        return laws, notes

    if suite == "involution":
        if A.involution is None:
            raise UnsupportedSuiteError(
                f"the involution suite needs an involution; {A.name} has none"
            )
        return star_laws + [("star-isometric", _law_star_isometric)], notes

    if suite == "c-star":
        if A.involution is None:
            raise UnsupportedSuiteError(
                f"the c-star suite needs an involution; {A.name} has none"
            )
        laws = star_laws + [
            ("star-isometric", _law_star_isometric),
            ("cstar-identity", _law_cstar_identity),
            ("submultiplicative", _law_submultiplicative),
        ]
        if A.unit is not None:
            laws.append(("unit-norm", _law_unit_norm))
        return laws, notes

    raise UnsupportedSuiteError(
        f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
    )


def _run_trials(
    laws: list[tuple[str, Callable[[random.Random], "tuple[float, dict] | None"]]],
    suite: str,
    pair: GeneratorPair,
    trials: int,
    tol: float,
    seed: int,
    notes: tuple[str, ...] = (),
) -> AxiomReport:
    """Evaluate every law on ``trials`` draws from one seeded rng.

    A law returns (residual, payload), or None when it does not apply.
    No early exit: the report has the worst residual and the first
    counterexample. A law that raises StarError fails the run, with the
    error text as its counterexample."""
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
            residual, payload = out
            if residual > worst:
                worst = residual
            if residual > tol and counterexample is None:
                counterexample = {
                    "law": name,
                    "trial": t,
                    "residual": residual,
                    **(payload or {}),
                }
    return AxiomReport(
        suite=suite,
        pair=pair.names,
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    laws, notes = _suite_laws(suite, A)
    bound = [(name, lambda rng, law=law: law(A, rng, tol)) for name, law in laws]
    return _run_trials(bound, suite, A.pair, trials, tol, seed, tuple(notes))


# ---------------------------------------------------------------------------
# deliberately broken carriers


def broken_zero(A: Algebra) -> Algebra:
    """Replace the zero with the unit: additive laws must fail."""
    if A.unit is None:
        raise MissingUnitError(f"{A.name}: this mutant borrows the unit")
    return replace(A, name=A.name + "+broken-zero", zero=A.unit)


def broken_norm(A: Algebra) -> Algebra:
    """Constant norm: the zero-norm law must fail."""
    beta_one = one_of(A.pair.beta)
    return replace(A, name=A.name + "+broken-norm", norm=lambda x: beta_one)


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

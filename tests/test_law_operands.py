"""Laws return their operands; the runner renders only the first
counterexample. The scalar carrier is told by its elements, not its name.
"""

from dataclasses import replace

import pytest

from staralg import (
    HomomorphismHandle,
    broken_involution,
    broken_mul,
    broken_norm,
    broken_zero,
    c_add,
    c_mul,
    c_sub,
    from_preimages,
    grid_algebra,
    homomorphism_check,
    kernel_image_closure_check,
    make_disk_domain,
    report_to_dict,
    run_axiom_suite,
    scalar_algebra,
    star_homomorphism_check,
    unital_functional_check,
)
from staralg.axiom_harness import _suite_laws

MUTANTS = (broken_zero, broken_norm, broken_mul, broken_involution)
# the morphism rows' draws, as in tests/test_check_digests.py
TRIALS = 40
SEED = 17
# counterexample keys that never hold a carrier element
NOT_ELEMENTS = {"law", "trial", "residual", "error", "scalar", "scalars", "element", "value"}


# ---------------------------------------------------------------------------
# scalar mutants are still the scalar carrier


def test_field_suite_runs_on_every_scalar_mutant(pair):
    for mutant in MUTANTS:
        report = run_axiom_suite("field", mutant(scalar_algebra(pair)), trials=60)
        # the field suite never reads the involution
        assert report.passed == (mutant is broken_involution), mutant.__name__


def test_vector_space_runs_the_inverse_law_on_scalar_mutants(pair):
    A = scalar_algebra(pair)
    base = run_axiom_suite("vector-space", A, trials=40, seed=6)
    for mutant in MUTANTS:
        M = mutant(A)
        names = [name for name, _ in _suite_laws("vector-space", M)[0]]
        assert names[-1] == "scalar-multiplicative-inverse"
        report = run_axiom_suite("vector-space", M, trials=40, seed=6)
        assert report.notes == ()
        if mutant in (broken_mul, broken_involution):
            # neither operation takes part, so the report is the field's
            assert report_to_dict(report) == report_to_dict(base)


# ---------------------------------------------------------------------------
# describe is called for the first counterexample's elements only


def _counted(A):
    calls = []

    def describe(x):
        calls.append(x)
        return A.describe(x)

    return replace(A, describe=describe), calls


def _described_operands(A, report, calls):
    """The rendered carrier elements of the counterexample, and what the
    counted describe was asked to render."""
    ce = report.counterexample
    expected = [v for k, v in ce.items() if k not in NOT_ELEMENTS]
    return expected, [A.describe(x) for x in calls]


def _skewed(A):
    w = from_preimages(A.pair, 0.6, 0.8)
    return HomomorphismHandle(
        source=A,
        target=scalar_algebra(A.pair),
        map=lambda f: c_mul(f.at(3), w),
        name="skewed evaluation",
    )


def _evaluation(A):
    return HomomorphismHandle(
        source=A, target=scalar_algebra(A.pair), map=lambda f: f.at(3)
    )


def _loses_sums(A):
    """f(p3) + (f(p5) - f(p3))^2: it fixes the unit, so x - phi(x) 1 lies
    in its zero set, but that set loses sums (the cross term of the
    square survives)."""

    def phi(f):
        d = c_sub(f.at(5), f.at(3))
        return c_add(f.at(3), c_mul(d, d))

    return HomomorphismHandle(
        source=A, target=scalar_algebra(A.pair), map=phi, name="loses sums"
    )


def _not_multiplicative(A):
    """2 f(p5) - f(p3): unital and linear, but its kernel does not absorb
    products and it stretches the unit ball past norm one."""
    two = from_preimages(A.pair, 2.0, 0.0)
    return HomomorphismHandle(
        source=A,
        target=scalar_algebra(A.pair),
        map=lambda f: c_sub(c_mul(two, f.at(5)), f.at(3)),
        name="not multiplicative",
    )


MORPHISM_CHECKS = (
    homomorphism_check,
    star_homomorphism_check,
    kernel_image_closure_check,
    unital_functional_check,
)


def test_passing_runs_describe_nothing(pair):
    A, calls = _counted(grid_algebra(make_disk_domain(pair, 2, 8)))
    runs = [lambda s=s: run_axiom_suite(s, A, trials=30, seed=2) for s in
            ("vector-space", "norm", "normed-algebra", "involution", "c-star")]
    # exact evaluation at point 3 passes every morphism check
    runs += [lambda c=c: c(_evaluation(A), trials=TRIALS, seed=SEED)
             for c in MORPHISM_CHECKS]
    for run in runs:
        assert run().passed
    assert calls == []


@pytest.mark.parametrize(
    "run, law",
    [
        (lambda A: run_axiom_suite("involution", broken_involution(A), 40, seed=8),
         "star-conjugate-linear"),
        (lambda A: run_axiom_suite("normed-algebra", broken_mul(A), 40),
         "submultiplicative"),
        # the skewed map fails each morphism check at its own law
        (lambda A: homomorphism_check(_skewed(A), TRIALS, seed=SEED), "multiplicative"),
        (lambda A: star_homomorphism_check(_skewed(A), TRIALS, seed=SEED),
         "star-intertwines"),
        (lambda A: kernel_image_closure_check(_skewed(A), TRIALS, seed=SEED),
         "kernel-sampler"),
        (lambda A: unital_functional_check(_skewed(A), TRIALS, seed=SEED),
         "unit-maps-to-one"),
        # a kernel that is not an ideal: every sampled k maps to zero, and
        # the first sum does not
        (lambda A: kernel_image_closure_check(_loses_sums(A), TRIALS, seed=SEED),
         "kernel-add"),
        # a unital linear map that is not multiplicative: its kernel is
        # closed under sums and scalars, not under products, and its norm
        # is above one
        (lambda A: kernel_image_closure_check(
            _not_multiplicative(A), TRIALS, seed=SEED), "kernel-absorbs"),
        (lambda A: unital_functional_check(
            _not_multiplicative(A), TRIALS, seed=SEED), "contraction"),
    ],
)
def test_failing_runs_describe_the_first_counterexample_only(pair, run, law):
    G = grid_algebra(make_disk_domain(pair, 2, 8))
    A, calls = _counted(G)
    report = run(A)
    assert not report.passed
    assert report.counterexample["law"] == law
    if law in ("kernel-add", "kernel-absorbs", "contraction"):
        assert report.counterexample["trial"] == 0
    expected, described = _described_operands(G, report, calls)
    assert described == expected

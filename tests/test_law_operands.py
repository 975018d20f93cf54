"""Laws return their operands; the runner renders only the first
counterexample. The scalar carrier is told by its elements, not its name.
"""

from dataclasses import replace

import pytest

from staralg import (
    EvaluationIdeal,
    HomomorphismHandle,
    SubsetSpec,
    broken_involution,
    broken_mul,
    broken_norm,
    broken_zero,
    c_mul,
    from_preimages,
    grid_algebra,
    homomorphism_check,
    ideal_subset,
    kernel_image_closure_check,
    make_disk_domain,
    pair_of,
    report_to_dict,
    run_axiom_suite,
    scalar_algebra,
    star_homomorphism_check,
    subalgebra_closure_check,
    unital_functional_check,
)
from staralg.axiom_harness import _suite_laws

IE = pair_of("identity", "exp")
MUTANTS = (broken_zero, broken_norm, broken_mul, broken_involution)
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


MORPHISM_CHECKS = (
    homomorphism_check,
    star_homomorphism_check,
    kernel_image_closure_check,
    unital_functional_check,
)


def test_passing_runs_describe_nothing():
    dom = make_disk_domain(IE, 2, 8)
    A, calls = _counted(grid_algebra(dom))
    runs = [lambda s=s: run_axiom_suite(s, A, trials=30, seed=2) for s in
            ("vector-space", "norm", "normed-algebra", "involution", "c-star")]
    ideal = ideal_subset(EvaluationIdeal(dom, dom.points[1]))
    runs.append(lambda: subalgebra_closure_check(A, ideal, trials=30))
    runs += [lambda c=c: c(_evaluation(A), trials=30) for c in MORPHISM_CHECKS]
    for run in runs:
        assert run().passed
    assert calls == []


def _loses_sums(A):
    """Holds the zero and every member drawn, and nothing else."""
    members = []

    def sample_member(rng):
        members.append(A.sample(rng))
        return members[-1]

    return SubsetSpec(
        name="drawn members",
        contains=lambda x, tol: x is A.zero or any(x is m for m in members),
        sample_member=sample_member,
    )


@pytest.mark.parametrize(
    "run, law",
    [
        (lambda A: run_axiom_suite("involution", broken_involution(A), 40, seed=8),
         "star-conjugate-linear"),
        (lambda A: run_axiom_suite("normed-algebra", broken_mul(A), 40),
         "submultiplicative"),
        (lambda A: subalgebra_closure_check(A, _loses_sums(A), trials=20),
         "closed-under-addition"),
        (lambda A: homomorphism_check(_skewed(A), trials=20), "multiplicative"),
        (lambda A: star_homomorphism_check(_skewed(A), trials=20), "star-intertwines"),
        (lambda A: kernel_image_closure_check(_skewed(A), trials=20), "kernel-sampler"),
        (lambda A: unital_functional_check(_skewed(A), trials=20), "unit-maps-to-one"),
    ],
)
def test_failing_runs_describe_the_first_counterexample_only(run, law):
    G = grid_algebra(make_disk_domain(IE, 2, 8))
    A, calls = _counted(G)
    report = run(A)
    assert not report.passed
    assert report.counterexample["law"] == law
    expected, described = _described_operands(G, report, calls)
    assert described == expected

import json
from dataclasses import replace

import pytest

from staralg import (
    AxiomReport,
    SUITES,
    UnsupportedSuiteError,
    broken_involution,
    broken_mul,
    broken_norm,
    broken_zero,
    emit_report,
    evaluation_functional,
    grid_algebra,
    homomorphism_check,
    kernel_image_closure_check,
    make_disk_domain,
    pair_of,
    report_to_dict,
    run_axiom_suite,
    scalar_algebra,
    star_homomorphism_check,
    unital_functional_check,
)
from staralg.axiom_harness import _suite_laws

IE = pair_of("identity", "exp")
TRIALS = 60  # enough to trip every mutant; the acceptance tests run 500


def scalar(pair):
    return scalar_algebra(pair)


def grid(pair):
    return grid_algebra(make_disk_domain(pair, 2, 8))


def test_all_suites_pass_on_scalar(pair):
    A = scalar(pair)
    for suite in SUITES:
        report = run_axiom_suite(suite, A, trials=TRIALS, seed=3)
        assert report.passed, (suite, report.counterexample)
        assert report.worst_residual <= 1e-9


def test_applicable_suites_pass_on_grid(pair):
    A = grid(pair)
    for suite in ("vector-space", "norm", "normed-algebra", "involution", "c-star"):
        report = run_axiom_suite(suite, A, trials=30, seed=4)
        assert report.passed, (suite, report.counterexample)


def test_field_suite_needs_the_scalar_carrier():
    with pytest.raises(UnsupportedSuiteError):
        run_axiom_suite("field", grid(IE), trials=5)


def test_involution_suite_needs_an_involution():
    A = replace(grid_algebra(make_disk_domain(IE, 1, 4)), involution=None)
    with pytest.raises(UnsupportedSuiteError):
        run_axiom_suite("involution", A, trials=5)


def test_unknown_suite_rejected():
    with pytest.raises(UnsupportedSuiteError):
        run_axiom_suite("monoid", scalar(IE), trials=5)


def test_broken_zero_fails_vector_space(pair):
    report = run_axiom_suite("vector-space", broken_zero(scalar(pair)), trials=TRIALS)
    assert not report.passed
    assert report.counterexample is not None


def test_broken_norm_fails_norm_suite(pair):
    report = run_axiom_suite("norm", broken_norm(scalar(pair)), trials=TRIALS)
    assert not report.passed
    assert report.counterexample["law"] in ("zero-norm", "homogeneity")


def test_broken_mul_fails_normed_algebra(pair):
    report = run_axiom_suite("normed-algebra", broken_mul(scalar(pair)), trials=TRIALS)
    assert not report.passed


def test_broken_involution_fails_involution_and_cstar(pair):
    for mutant_base in (scalar(pair), grid(pair)):
        mutant = broken_involution(mutant_base)
        for suite in ("involution", "c-star"):
            report = run_axiom_suite(suite, mutant, trials=TRIALS, seed=8)
            assert not report.passed, (mutant.name, suite)
            # the identity involution is linear, not conjugate linear
            assert report.counterexample["law"] == "star-conjugate-linear"


def test_broken_mul_still_satisfies_distributivity():
    # scaling the product by 2 preserves distributivity; only the unit
    # and submultiplicative laws notice, which is why both are checked
    report = run_axiom_suite("normed-algebra", broken_mul(scalar(IE)), trials=TRIALS)
    assert report.counterexample["law"] in ("submultiplicative", "unit-laws")


def test_reports_are_deterministic(pair):
    a = run_axiom_suite("c-star", scalar(pair), trials=40, seed=11)
    b = run_axiom_suite("c-star", scalar(pair), trials=40, seed=11)
    assert a == b
    c = run_axiom_suite("c-star", scalar(pair), trials=40, seed=12)
    assert c.worst_residual != a.worst_residual


def test_report_json_schema():
    report = run_axiom_suite("norm", scalar(IE), trials=10, seed=1)
    doc = json.loads(emit_report([report], "json"))
    assert doc["schema_version"] == 1
    assert doc["overall"] == "ok"
    entry = doc["reports"][0]
    assert list(entry.keys()) == [
        "schema_version",
        "suite",
        "pair",
        "trials",
        "tolerance",
        "passed",
        "worst_residual",
        "counterexample",
    ]
    assert entry["pair"] == ["identity", "exp"]
    assert entry["trials"] == 10
    # notes never leak into the serialized form
    assert "notes" not in entry


def test_counterexample_serializes_preimages():
    report = run_axiom_suite("norm", broken_norm(scalar(IE)), trials=10, seed=2)
    assert not report.passed
    # must survive a strict JSON round trip
    blob = emit_report([report], "json")
    back = json.loads(blob)
    assert back["overall"] == "fail"
    assert back["reports"][0]["counterexample"]["law"] == report.counterexample["law"]


def test_emit_report_text_mode():
    report = run_axiom_suite("vector-space", grid(IE), trials=5, seed=3)
    text = emit_report([report], "text")
    assert "suite=vector-space" in text
    assert "PASS" in text
    assert "note:" in text  # the skipped inverse law is surfaced
    assert text.endswith("overall: ok")
    with pytest.raises(ValueError):
        emit_report([report], "yaml")


def test_report_class_is_frozen():
    r = AxiomReport("norm", ("identity", "exp"), 1, 1e-9, True, 0.0)
    with pytest.raises(Exception):
        r.passed = False
    assert report_to_dict(r)["passed"] is True


def _every_check(**kwargs):
    """The five checks on the trial runner, each called with kwargs."""
    dom = make_disk_domain(IE, 1, 4)
    h = evaluation_functional(dom, dom.points[1])
    return [
        lambda: run_axiom_suite("norm", scalar(IE), **kwargs),
        lambda: homomorphism_check(h, **kwargs),
        lambda: star_homomorphism_check(h, **kwargs),
        lambda: kernel_image_closure_check(h, **kwargs),
        lambda: unital_functional_check(h, **kwargs),
    ]


def test_every_check_refuses_zero_trials():
    for run in _every_check(trials=0):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run()


def test_every_check_refuses_a_nan_tolerance():
    # a NaN tolerance would fail every law and name none of them
    for run in _every_check(tol=float("nan")):
        with pytest.raises(ValueError, match="tol must be a number at least 0"):
            run()
    # zero stays a tolerance
    for run in _every_check(trials=2, tol=0.0):
        run()


def test_normed_algebra_without_a_unit_skips_the_unit_laws():
    unital = grid(IE)
    A = replace(unital, unit=None)
    laws, _ = _suite_laws("normed-algebra", A)
    assert "unit-laws" not in [name for name, _ in laws]
    rep = run_axiom_suite("normed-algebra", A, trials=TRIALS, seed=3)
    assert rep.passed
    assert rep.notes == ("unit laws skipped: carrier has no unit",)
    # with its unit the same carrier runs them
    laws, notes = _suite_laws("normed-algebra", unital)
    assert ("unit-laws" in [name for name, _ in laws], notes) == (True, [])

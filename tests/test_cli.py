import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from staralg import from_preimages, pair_of, run_command
from staralg.cli import _inverse_matches, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- golden transcripts ----------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_transcript(case):
    path = GOLDEN / f"{case['name']}.json"
    if not path.exists():
        pytest.skip("Run scripts/update_golden.py to generate")
    code, out, _ = run(case["argv"])
    assert code == 0
    assert out == path.read_text()  # byte-stable, not merely equivalent


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_transcripts_are_deterministic(case):
    _, first, _ = run(case["argv"])
    _, second, _ = run(case["argv"])
    assert first == second


def test_golden_evals_agree_across_modes():
    # every golden eval expression must give the same value in both modes
    for case in CASES:
        argv = case["argv"]
        if argv[0] != "eval":
            continue
        base = [a for a in argv if a not in ("--mode", "direct", "pullback")]
        docs = []
        for mode in ("direct", "pullback"):
            code, out, _ = run(base + ["--mode", mode])
            assert code == 0
            docs.append(json.loads(out))
        va, vb = docs[0]["value"], docs[1]["value"]
        for k in ("a_preimage", "b_preimage"):
            assert va[k] == pytest.approx(vb[k], rel=1e-9, abs=1e-12)
        assert all(d["modes_agree"] for d in docs)


# --- document shapes -------------------------------------------------------


def test_eval_json_shape():
    code, out, _ = run(["eval", "(3,4)", "--alpha", "identity", "--beta", "exp", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "eval"
    assert set(doc["value"]) == {"a_preimage", "b_preimage", "a_image", "b_image"}
    assert doc["norm_preimage"] == pytest.approx(5.0)
    assert doc["norm_image"] == pytest.approx(148.4131591025766)
    assert doc["modes_agree"] is True


def test_eval_text_mode_mentions_both_forms():
    code, out, _ = run(["eval", "(3,4)", "--beta", "exp"])
    assert code == 0
    assert "preimage" in out and "image" in out and "norm" in out


def test_invert_json_shape():
    code, out, _ = run(["invert", "(0.6,0)", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["matches_exact"] is True
    assert doc["inverse"]["a_preimage"] == pytest.approx(5.0 / 3.0, rel=1e-8)
    assert doc["terms_used"] > 1
    assert doc["residual_preimage"] <= 1e-9


def test_grid_json_shape():
    code, out, _ = run(
        ["grid", "z+(1,0)", "--radial", "1", "--angular", "4", "--beta", "exp", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == len(doc["values"]) == 5
    assert doc["sup_norm_preimage"] == pytest.approx(1.5)
    # values line up with the points: f(0) = 1 at the origin entry
    assert doc["values"][0]["a_preimage"] == pytest.approx(1.0)


def test_quotient_json_shape():
    code, out, _ = run(["quotient", "z*z+(0.25,0)", "--at", "(-0.5,0)", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient_norm_preimage"] == pytest.approx(0.5, abs=1e-12)
    assert doc["in_ideal"] is False


def test_quotient_detects_membership():
    # z**2 + 1/4 vanishes at the grid point i/2
    code, out, _ = run(["quotient", "z*z+(0.25,0)", "--at", "(0,0.5)", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["in_ideal"] is True
    assert doc["quotient_norm_preimage"] <= 1e-9


def test_axioms_json_schema_and_seed():
    argv = ["axioms", "--suite", "norm", "--carrier", "grid", "--trials", "25",
            "--seed", "7", "--alpha", "cube", "--beta", "exp", "--json"]
    code, out, _ = run(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "ok"
    (entry,) = doc["reports"]
    assert entry["suite"] == "norm"
    assert entry["pair"] == ["cube", "exp"]
    assert entry["trials"] == 25
    # a different seed moves the residuals; the same seed reproduces them
    _, again, _ = run(argv)
    assert out == again


def test_axioms_text_mode():
    code, out, _ = run(["axioms", "--suite", "involution", "--carrier", "scalar", "--trials", "10"])
    assert code == 0
    assert "PASS" in out and "overall: ok" in out


@pytest.mark.parametrize(
    "expr, want",
    [
        ("(1,0)/(1e200,0)", 1e-200),
        ("(1e200,0)/(1e200,0)", 1.0),
        ("(1,0)/(1e-170,0)", 1e170),
    ],
)
def test_division_at_extreme_magnitudes(expr, want):
    code, out, _ = run(["eval", expr, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["a_preimage"] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert doc["value"]["b_preimage"] == 0.0
    assert doc["modes_agree"] is True


def test_invert_accepts_an_inverse_with_a_small_component():
    # 1/x = (0.6252, -0.02466): the series converges, and its error is
    # small against |1/x| but not against the second component alone
    code, out, _ = run(["invert", "(1.597,0.063)"])
    assert code == 0
    assert "matches direct division: yes" in out


def test_inverse_comparison_is_modulus_relative():
    pair = pair_of("identity", "identity")
    exact = from_preimages(pair, 0.6, -0.02)
    tol = 1e-9
    bound = 10.0 * tol * abs(exact.as_complex)
    # an error of 0.9 times the bound in the small component passes, one
    # of 1.1 times the bound does not
    near = from_preimages(pair, 0.6, -0.02 + 0.9 * bound)
    far = from_preimages(pair, 0.6, -0.02 + 1.1 * bound)
    assert _inverse_matches(near, exact, tol)
    assert not _inverse_matches(far, exact, tol)


# --- exit codes ------------------------------------------------------------


def test_exit_1_on_division_by_zero_with_subterm():
    code, out, err = run(["eval", "(1,0)/((1,0)-(1,0))"])
    assert code == 1
    assert "in subterm (1.0,0.0)/((1.0,0.0)-(1.0,0.0))" in err


def test_exit_1_when_inversion_precondition_fails():
    code, _, err = run(["invert", "(2.5,0)"])
    assert code == 1
    assert "unit ball" in err


def test_exit_2_on_unbound_variable():
    code, _, err = run(["eval", "z+(1,0)"])
    assert code == 2
    assert "only bound under grid and quotient" in err


def test_exit_2_on_syntax_error_with_offset():
    code, _, err = run(["eval", "(1,2"])
    assert code == 2
    assert "offset 4" in err


def test_exit_2_on_unknown_generator():
    code, _, err = run(["eval", "(3,4)", "--alpha", "sinh"])
    assert code == 2
    assert "unknown generator" in err


def test_exit_2_on_inapplicable_suite():
    code, _, err = run(["axioms", "--suite", "field", "--carrier", "grid", "--trials", "2"])
    assert code == 2
    assert "scalar carrier" in err


def test_exit_2_on_off_grid_quotient_point():
    code, _, err = run(["quotient", "z", "--at", "(0.3,0.3)"])
    assert code == 2
    assert "not on the grid" in err


def _one_error_line(err):
    return (
        sum("error:" in line for line in err.splitlines()) == 1
        and "Traceback" not in err
    )


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_exit_2_on_bad_tolerance(tol):
    for argv in (["eval", "(1,2)"], ["eval", "(1,2)", "--json"],
                 ["axioms", "--suite", "norm", "--trials", "2", "--json"]):
        code, out, err = run(argv + ["--tol", tol])
        assert code == 2
        assert out == ""
        assert _one_error_line(err)


def test_exit_2_on_deep_nesting():
    code, out, _ = run(["eval", "(" * 199 + "(1,0)" + ")" * 199])
    assert code == 0
    for expr in ("(" * 400 + "(1,0)" + ")" * 400,
                 "conj(" * 400 + "(1,0)" + ")" * 400,
                 "-" * 400 + "(1,0)"):
        code, _, err = run(["eval", "--", expr])
        assert code == 2
        assert _one_error_line(err)
        assert "nested more than 200 levels" in err


def test_exit_2_on_oversized_lattice():
    for argv in (["grid", "z"], ["quotient", "z"],
                 ["axioms", "--suite", "norm", "--carrier", "grid", "--trials", "1"]):
        code, _, err = run(argv + ["--radial", "65", "--angular", "64"])
        assert code == 2
        assert _one_error_line(err)
        assert "4096" in err


def test_exit_2_on_bad_subcommand():
    code, _, _ = run(["differentiate", "(1,0)"])
    assert code == 2


def test_exit_2_when_at_is_not_a_literal():
    code, _, err = run(["quotient", "z", "--at", "z+z"])
    assert code == 2


def test_default_pair_is_classical():
    code, out, _ = run(["eval", "((1,2)+(3,4))*i", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "identity" and doc["beta"] == "identity"
    assert doc["value"]["a_preimage"] == pytest.approx(-6.0)
    assert doc["value"]["b_preimage"] == pytest.approx(4.0)
    # identity generators: images and preimages coincide
    assert doc["value"]["a_image"] == doc["value"]["a_preimage"]


def test_run_command_is_main():
    assert run_command is main


def test_parser_lists_all_subcommands():
    helptext = build_parser().format_help()
    for sub in ("eval", "invert", "grid", "quotient", "axioms"):
        assert sub in helptext


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "staralg", "eval", "(3,4)", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm_preimage"] == pytest.approx(5.0)

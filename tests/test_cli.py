import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from staralg import from_preimages, pair_of
from staralg import cli
from staralg.cli import _inverse_matches, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports staralg from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


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


# the plain complex division gives zero, NaN and inf on these; the exact
# quotients are representable, so the division is retried and they print
@pytest.mark.parametrize("mode", ["direct", "pullback"])
@pytest.mark.parametrize(
    "expr, want",
    [
        ("(1e300,0)/(1e308,1e308)", "(5e-09, -5e-09)"),
        ("(1e308,1e308)/(1e308,1e308)", "(1.0, 0.0)"),
        ("(1e308,1e308)/(1,1)", "(1e+308, 0.0)"),
    ],
)
def test_a_representable_quotient_at_the_float_ends_prints(expr, want, mode):
    code, out, err = run(["eval", "--mode", mode, expr])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"value (preimages): {want}"
    assert out.splitlines()[-1].startswith("modes agree:       yes")


@pytest.mark.parametrize("mode", ["direct", "pullback"])
def test_a_subnormal_numerator_is_divided_on_rescaled_operands(mode):
    # the plain division forms the numerator's combination in the
    # subnormal range and prints -5.211242329389614e-48, 4.5% off the
    # exact quotient of the stored preimages
    expr = "(1e-323,5e-324)/(-2.2185844075217563e-278,-9.475570601166854e-277)"
    code, out, err = run(["eval", "--json", "--mode", mode, expr])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["value"]["a_preimage"] == -5.4552715591307207e-48
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


def test_exit_1_on_pullback_division_by_zero_with_subterm():
    code, out, err = run(["eval", "--mode", "pullback", "(1,0)/(0,0)"])
    assert code == 1
    assert out == ""
    assert err == "error: division by zero in subterm (1.0,0.0)/(0.0,0.0)\n"


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


@pytest.mark.parametrize("alpha, at", [("exp", "(800,0)"), ("cube", "(1e103,0)")])
def test_exit_2_on_a_base_point_outside_the_working_domain(alpha, at):
    # the base point is only looked up on the grid, so a literal the pair
    # cannot represent is off the grid like any other, not a refusal
    code, out, err = run(["quotient", "z", "--alpha", alpha, "--at", at])
    assert (code, out) == (2, "")
    assert _one_error_line(err)
    assert "is not on the grid" in err


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


def test_a_valid_tolerance_reaches_every_command():
    code, out, err = run(["eval", "(1,2)*(3,4)", "--tol", "1e-3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("(direct vs pullback, rel tol 0.001)")
    code, out, _ = run(["eval", "(1,2)*(3,4)", "--tol", "1e-3", "--json"])
    assert code == 0 and json.loads(out)["tol"] == 0.001
    code, out, _ = run(
        ["axioms", "--suite", "norm", "--trials", "3", "--tol", "1e-3", "--json"]
    )
    assert code == 0 and json.loads(out)["reports"][0]["tolerance"] == 0.001


def test_a_looser_tolerance_stops_the_series_sooner():
    _, out, _ = run(["invert", "(0.6,0)", "--json"])
    default = json.loads(out)
    code, out, _ = run(["invert", "(0.6,0)", "--tol", "1e-6", "--json"])
    assert code == 0
    loose = json.loads(out)
    assert loose["tol"] == 1e-06
    assert loose["converged"] is True and loose["matches_exact"] is True
    assert loose["terms_used"] == 16 < default["terms_used"]


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


def test_exit_2_on_long_flat_chains():
    # a chain of n terms is a left-deep tree n - 1 operators deep
    for op in "+*":
        code, _, _ = run(["eval", op.join(["(1,0)"] * 201)])
        assert code == 0
        chain = op.join(["z"] * 3000)
        for argv in (["eval", op.join(["(1,0)"] * 3000)],
                     ["grid", chain, "--radial", "1", "--angular", "4"]):
            code, out, err = run(argv)
            assert code == 2
            assert out == ""
            assert _one_error_line(err)
            assert "nested more than 200 levels" in err


def test_exit_2_on_oversized_lattice():
    for argv in (["grid", "z"], ["quotient", "z"],
                 ["axioms", "--suite", "norm", "--carrier", "grid", "--trials", "1"]):
        code, _, err = run(argv + ["--radial", "65", "--angular", "64"])
        assert code == 2
        assert _one_error_line(err)
        assert "4096" in err


@pytest.fixture
def one_trial(monkeypatch):
    """Runs every suite for one trial, and records the trials asked for,
    so that an argv at a cap is accepted without doing its work."""
    asked = []
    real = cli.run_axiom_suite

    def run_one(suite, A, trials, **kw):
        asked.append(trials)
        return real(suite, A, trials=1, **kw)

    monkeypatch.setattr(cli, "run_axiom_suite", run_one)
    return asked


def test_trials_cap(one_trial):
    code, _, _ = run(["axioms", "--suite", "norm", "--trials", "40000"])
    assert code == 0 and one_trial == [40000]
    code, out, err = run(["axioms", "--suite", "norm", "--trials", "40001"])
    assert code == 2 and out == ""
    assert err == "error: --trials 40001 exceeds the limit of 40000\n"
    assert one_trial == [40000]


def test_trial_points_cap_on_the_grid(one_trial):
    # 2000 trials on 1 + 4 x 31 = 125 points make 250000 trial points;
    # 4717 trials on 1 + 4 x 13 = 53 points make 250001
    grid = ["axioms", "--suite", "norm", "--carrier", "grid", "--radial", "4"]
    code, _, _ = run(grid + ["--angular", "31", "--trials", "2000"])
    assert code == 0 and one_trial == [2000]
    code, out, err = run(grid + ["--angular", "13", "--trials", "4717"])
    assert code == 2 and out == ""
    assert err == ("error: 4717 trials x 53 lattice points = 250001"
                   " exceeds the limit of 250000\n")
    assert one_trial == [2000]


def test_max_terms_cap():
    # (0.6,0) converges in a few dozen terms, whatever the cap
    code, _, _ = run(["invert", "(0.6,0)", "--max-terms", "400000"])
    assert code == 0
    code, out, err = run(["invert", "(0.6,0)", "--max-terms", "400001"])
    assert code == 2 and out == ""
    assert err == "error: --max-terms 400001 exceeds the limit of 400000\n"


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


def test_parser_lists_all_subcommands():
    helptext = build_parser().format_help()
    for sub in ("eval", "invert", "grid", "quotient", "axioms"):
        assert sub in helptext


def test_eval_does_not_import_numpy():
    # numpy is blocked in the fresh interpreter, so every subcommand must
    # run on the standard library alone
    code = (
        "import contextlib, io, sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' or name.startswith('numpy.'):\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import staralg\n"
        "from staralg import cli\n"
        "for argv in (['eval', '(1,2)'], ['invert', '(0.6,0.1)'], ['grid', 'z'],\n"
        "             ['quotient', 'z', '--at', '(0.5,0)'],\n"
        "             ['axioms', '--suite', 'field', '--trials', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_module_entry_point():
    proc = _python("-m", "staralg", "eval", "(3,4)", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["norm_preimage"] == pytest.approx(5.0)


# --- one parser per process --------------------------------------------------

# non-default options, then the defaults again, with usage errors between:
# a call that reused the parser must print what the same argv prints alone
SHARED_PARSER_SEQUENCE = [
    ["eval", "(1,2)*(3,4)", "--json"],
    ["eval", "(1,2)*(3,4)"],
    ["eval", "(2,1)/(1,1)", "--alpha", "exp", "--beta", "exp"],
    ["eval", "(1,0)", "--tol", "nan"],
    ["eval", "(2,1)/(1,1)"],
    ["eval", "conj((1,2))*i", "--mode", "pullback", "--json"],
    ["differentiate", "(1,0)"],
    ["eval", "conj((1,2))*i", "--json"],
    ["invert", "(0.6,0.1)", "--tol", "1e-3", "--json"],
    ["invert", "(0.6,0.1)", "--json"],
    ["grid", "z*z+(1,0)", "--radial", "1", "--angular", "3"],
    ["axioms", "--carrier", "grid"],
    ["grid", "z*z+(1,0)", "--json"],
    ["axioms", "--suite", "norm", "--carrier", "grid", "--radial", "1",
     "--angular", "3", "--trials", "4", "--seed", "3", "--json"],
    ["eval", "(1,"],
    ["axioms", "--suite", "norm", "--carrier", "grid", "--trials", "4"],
    ["axioms", "--suite", "field", "--trials", "7"],
    ["quotient", "z*z", "--at", "(0.5,0)", "--radial", "1", "--angular", "2"],
    ["quotient", "z*z", "--json"],
    ["--help"],
    ["eval", "--help"],
    ["eval", "(1,2)"],
]


def test_the_shared_parser_leaks_nothing_between_calls(monkeypatch):
    # help and usage text wrap at the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    for argv in SHARED_PARSER_SEQUENCE:
        code, out, err = run(argv)
        alone = _python("-m", "staralg", *argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv


def test_help_is_the_parsers_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out == build_parser().format_help()


def test_main_builds_one_parser_and_import_builds_none():
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(self)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import staralg\n"
        "from staralg import cli\n"
        "print(len(built))\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    for argv in (['eval', '(1,2)'], ['eval', '(1,'], ['spam']) * 10:\n"
        "        cli.main(argv)\n"
        "after_main = len(built)\n"
        "cli.build_parser()\n"
        "print(after_main, len(built) - after_main)\n"
        "print(cli._parser.cache_info().misses)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    at_import, (after_main, one_build), misses = (
        line.split() for line in proc.stdout.splitlines()
    )
    assert at_import == ["0"]
    # thirty calls built exactly the parsers of one build_parser()
    assert after_main == one_build != "0"
    assert misses == ["1"]


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


# --- the console script -----------------------------------------------------


def _console_script_target() -> tuple[str, str]:
    """The ``staralg`` entry of ``[project.scripts]`` in pyproject.toml, read
    without tomllib, which Python 3.10 lacks."""
    text = (SRC.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^staralg\s*=\s*"([\w.]+:\w+)"\s*$', section, re.M)
    module, attr = target.split(":")
    return module, attr


@pytest.mark.parametrize(
    "argv, want",
    [(["eval", "(1,2)*(3,4)"], 0), (["--help"], 0), (["eval", "(1,"], 2)],
)
def test_console_script(argv, want):
    module, attr = _console_script_target()
    # what the wrapper that pip installs does
    code = (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv = ['staralg', *{argv!r}]\n"
        f"sys.exit({attr}())\n"
    )
    proc = _python("-c", code)
    alone = _python("-m", "staralg", *argv)
    assert proc.returncode == want, proc.stderr
    assert (proc.stdout, proc.stderr) == (alone.stdout, alone.stderr)

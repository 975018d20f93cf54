"""The survey scripts run end to end and print their summaries."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_run_suites_surveys_every_applicable_cell():
    proc = _run_script("run_suites.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0 failing cells"
    assert sum(line.startswith("== pair") for line in lines) == 4
    # per pair: 6 suites on the scalar carrier and all but field on the grid
    assert sum(" pass " in line for line in lines) == 4 * (6 + 5)
    assert "  field          on scalar     pass" in proc.stdout


def test_inversion_sweep_reports_every_pair():
    proc = _run_script("inversion_sweep.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("== pair") for line in lines) == 4
    assert lines.count("       1.05 rejected (outside the ball, as required)") == 4
    assert "unexpectedly accepted" not in proc.stdout


def test_profile_workload_lists_the_trial_runner():
    proc = _run_script(
        "profile_workload.py", "--workload", "audit", "--seed", "5",
        "--rounds", "1", "--top", "40",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("audit seed 5: 1 rounds, by self time")
    assert "(_run_trials)" in proc.stdout


def test_profile_workload_memory_names_the_grid_layer():
    proc = _run_script(
        "profile_workload.py", "--workload", "lattice", "--seed", "5",
        "--rounds", "1", "--memory",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("lattice seed 5: 1 rounds, traced peak ")
    assert "top lines by retained size" in proc.stdout.splitlines()[0]
    assert "algebra.py" in proc.stdout

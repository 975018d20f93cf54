"""Every setting is read.

A library parameter that only one value was ever passed for is a
constant, and a subcommand takes only the options its command reads: an
option it does not read is a usage error (exit 2), not silently ignored.
A public name that nothing read is gone from the package, and each of
the field's rounding rules has one home.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import pathlib
import re

import pytest

import staralg
from staralg.cli import build_parser, main

CASES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cases.json").read_text()
)

# (function, parameter) pairs that are constants now
RETIRED_PARAMETERS = [
    ("scalar_algebra", "sample_bound"),
    ("grid_algebra", "sample_bound"),
    ("classify_element", "tol"),
    ("safe_random_tree", "z_value"),
    ("safe_random_tree", "min_denom"),
    ("safe_random_tree", "bound"),
    ("approx_eq", "abs_tol"),
    ("kernel_membership", "tol"),
    ("kernel_image_closure_check", "kernel_sampler"),
    ("continuity_bound_check", "tol"),
    ("continuity_bound_check", "max_terms"),
    ("random_point", "bound"),
    ("preimage_close", "abs_tol"),
]

# public names that no command, check or workload used, retired with the
# polynomial carrier, the norm-ball and polynomial subset probes, and the
# subset-closure check (kernel_image_closure_check audits the evaluation
# ideal alone)
RETIRED_NAMES = [
    "StarPolynomial",
    "make_polynomial",
    "poly_add",
    "poly_sub",
    "poly_scalar_mul",
    "poly_mul",
    "poly_eval",
    "poly_to_grid",
    "polynomial_algebra",
    "norm_ball_subset",
    "polynomial_subset",
    "SubsetSpec",
    "ideal_subset",
    "subalgebra_closure_check",
    "random_sample",
]

# the carrier record's settings: the norm is read through ``measure`` and
# ``distance``, with no stored norm and no second path chosen beside them
ALGEBRA_FIELDS = [
    "name", "pair", "add", "sub", "scalar_mul", "mul", "measure", "distance",
    "zero", "unit", "involution", "sample", "describe",
]
RETIRED_FIELDS = ["norm", "fused_norm", "fused_distance"]

# the helpers that held a rounding rule's action while each caller
# decided when it fired; ``expr._product`` and ``expr._divide`` now
# compute, decide and refuse for every caller
RETIRED_RULE_HOMES = ["_refuse_zero_product", "_rescaled_quotient", "_classical_mul"]

# the options each subcommand reads, besides -h/--help
OPTIONS = {
    "eval": {"--alpha", "--beta", "--mode", "--tol", "--json"},
    "invert": {"--alpha", "--beta", "--mode", "--tol", "--json", "--max-terms"},
    "grid": {"--alpha", "--beta", "--mode", "--json", "--radial", "--angular"},
    "quotient": {
        "--alpha", "--beta", "--mode", "--tol", "--json", "--radial",
        "--angular", "--at",
    },
    "axioms": {
        "--alpha", "--beta", "--tol", "--seed", "--json", "--radial",
        "--angular", "--suite", "--carrier", "--trials",
    },
}

# a subcommand with an option it used to accept and never read
RETIRED_FLAGS = [
    ["eval", "(1,2)", "--seed", "1"],
    ["invert", "(0.6,0.1)", "--seed", "1"],
    ["grid", "z", "--seed", "1"],
    ["quotient", "z", "--seed", "1"],
    ["axioms", "--suite", "norm", "--mode", "pullback"],
    ["grid", "z", "--radial", "1", "--angular", "3", "--tol", "0.5"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, param", RETIRED_PARAMETERS)
def test_a_retired_parameter_is_gone(name, param):
    assert param not in inspect.signature(getattr(staralg, name)).parameters


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_a_retired_name_is_gone(name):
    assert not hasattr(staralg, name)
    assert not hasattr(staralg.algebra, name)
    assert not hasattr(staralg.axiom_harness, name)


def test_the_carrier_record_holds_its_own_norm_reading():
    fields = dataclasses.fields(staralg.Algebra)
    assert not {f.name for f in fields} & set(RETIRED_FIELDS)
    assert [f.name for f in fields if f.init] == ALGEBRA_FIELDS
    assert not hasattr(staralg.Algebra, "__post_init__")


@pytest.mark.parametrize("name", RETIRED_RULE_HOMES)
def test_a_retired_rule_home_is_gone(name):
    assert not hasattr(staralg.expr, name)


def test_each_rounding_rule_has_one_home():
    assert staralg.expr._CLASSICAL_OPS["mul"] is staralg.expr._product
    assert not hasattr(staralg.star_complex, "_MIN_NORMAL")


@pytest.mark.parametrize("argv", RETIRED_FLAGS, ids=" ".join)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_only_the_options_the_subcommand_reads(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run([command, "--help"])
    assert (code, err) == (0, "")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == OPTIONS[command] | {"--help"}


# the transcripts pin each golden argv's output; this pins only that the
# split options still accept it
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_every_golden_argv_still_parses(case):
    args = build_parser().parse_args(case["argv"])
    assert args.command == case["argv"][0]

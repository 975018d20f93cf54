"""Command line front end.

Subcommands: eval, invert, grid, quotient, axioms. The expression
grammar, the JSON shapes, and the exit codes are stable contracts:

  exit 0   the command ran and every check it implies passed
  exit 1   the command ran but a check failed (modes disagree, series
           not applicable or not converged, suite failed, arithmetic
           fell outside a generator's range)
  exit 2   usage error (syntax error, unknown name, z where no point is
           bound, a base point that is not on the grid, a tolerance that
           is not finite and positive, an expression nested too deeply,
           a lattice of more than 4096 points)

Output is deterministic: same argv, same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

from .algebra import (
    EvaluationIdeal,
    GridFunction,
    grid_algebra,
    ideal_membership,
    make_disk_domain,
    quotient_norm,
    scalar_algebra,
    sup_norm,
)
from .axiom_harness import SUITES, run_axiom_suite
from .errors import (
    ParseError,
    StarError,
    UnboundVariableError,
    UnsupportedSuiteError,
)
from .expr import Lit, parse_expr
from .generators import builtin_names, pair_of
from .inversion import neumann_inverse
from .report import emit_report
from .star_complex import (
    StarComplex,
    approx_eq,
    c_div,
    c_norm,
    dual_mode_eval,
    from_preimages,
    one,
)

__all__ = ["build_parser", "main", "run_command"]

# most radial x angular lattice points: domain construction is quadratic
# in the count, and twice the benchmark's largest lattice stays fast
_MAX_GRID_POINTS = 4096


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return tol


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alpha", default="identity", metavar="GEN",
        help="first-coordinate generator: %s" % ", ".join(builtin_names()),
    )
    common.add_argument(
        "--beta", default="identity", metavar="GEN",
        help="second-coordinate generator",
    )
    common.add_argument(
        "--mode", choices=("direct", "pullback"), default="direct",
        help="evaluation route (default direct)",
    )
    common.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="tolerance (default 1e-9)"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="random seed (default 0)"
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument(
        "--radial", type=int, default=2, help="circles in the disk lattice"
    )
    grid_opts.add_argument(
        "--angular", type=int, default=8, help="points per circle"
    )

    p = argparse.ArgumentParser(
        prog="staralg",
        description="arithmetic over a pair of generators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common],
        help="evaluate an expression by both routes and compare",
    )
    p_eval.add_argument("expr", help="expression in the documented grammar")

    p_inv = sub.add_parser(
        "invert", parents=[common],
        help="invert a scalar expression by the geometric series",
    )
    p_inv.add_argument("expr")
    p_inv.add_argument(
        "--max-terms", type=int, default=10_000, dest="max_terms"
    )

    p_grid = sub.add_parser(
        "grid", parents=[common, grid_opts],
        help="evaluate an expression in z over a disk lattice",
    )
    p_grid.add_argument("expr")

    p_quot = sub.add_parser(
        "quotient", parents=[common, grid_opts],
        help="quotient norm of an expression in z at a base point",
    )
    p_quot.add_argument("expr")
    p_quot.add_argument(
        "--at", default="(0,0)", metavar="(A,B)",
        help="base point as a preimage literal (default the origin)",
    )

    p_ax = sub.add_parser(
        "axioms", parents=[common, grid_opts],
        help="run a law suite against a carrier",
    )
    p_ax.add_argument("--suite", required=True, choices=SUITES)
    p_ax.add_argument(
        "--carrier", choices=("scalar", "grid"), default="scalar"
    )
    p_ax.add_argument("--trials", type=int, default=500)

    return p


def _value_dict(z: StarComplex) -> dict[str, float]:
    pa, pb = z.preimages
    return {
        "a_preimage": pa,
        "b_preimage": pb,
        "a_image": z.a.image,
        "b_image": z.b.image,
    }


def _fmt_pair(z: StarComplex) -> str:
    pa, pb = z.preimages
    return f"({pa!r}, {pb!r})"


def _print_doc(doc: dict[str, Any], as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args: argparse.Namespace, pair) -> int:
    tree = parse_expr(args.expr)
    value = dual_mode_eval(tree, pair, args.mode)
    other_mode = "pullback" if args.mode == "direct" else "direct"
    other = dual_mode_eval(tree, pair, other_mode)
    agree = approx_eq(value, other, rel=args.tol)
    nrm = c_norm(value)
    doc = {
        "schema_version": 1,
        "command": "eval",
        "expr": args.expr,
        "alpha": pair.alpha.name,
        "beta": pair.beta.name,
        "mode": args.mode,
        "tol": args.tol,
        "value": _value_dict(value),
        "norm_preimage": nrm.preimage,
        "norm_image": nrm.image,
        "modes_agree": agree,
    }
    _print_doc(
        doc,
        args.json,
        [
            f"value (preimages): {_fmt_pair(value)}",
            f"value (images):    ({value.a.image!r}, {value.b.image!r})",
            f"norm (preimage):   {nrm.preimage!r}",
            f"modes agree:       {'yes' if agree else 'NO'}"
            f" ({args.mode} vs {other_mode}, rel tol {args.tol:g})",
        ],
    )
    return 0 if agree else 1


def _inverse_matches(inverse: StarComplex, exact: StarComplex, tol: float) -> bool:
    """|inverse - exact| <= 10 tol |exact|: the series stops at a residual
    of tol, which bounds the error by |1/x| tol in modulus, not in each
    component; the factor 10 is margin."""
    d = inverse.as_complex - exact.as_complex
    return math.hypot(d.real, d.imag) <= 10.0 * tol * math.hypot(*exact.preimages)


def _cmd_invert(args: argparse.Namespace, pair) -> int:
    tree = parse_expr(args.expr)
    x = dual_mode_eval(tree, pair, args.mode)
    A = scalar_algebra(pair)
    rep = neumann_inverse(A, x, tol=args.tol, max_terms=args.max_terms)
    exact = c_div(one(pair), x)
    matches = _inverse_matches(rep.inverse, exact, args.tol)
    doc = {
        "schema_version": 1,
        "command": "invert",
        "expr": args.expr,
        "alpha": pair.alpha.name,
        "beta": pair.beta.name,
        "tol": args.tol,
        "x": _value_dict(x),
        "inverse": _value_dict(rep.inverse),
        **rep.to_json_dict(),
        "matches_exact": matches,
    }
    ok = rep.converged and matches
    _print_doc(
        doc,
        args.json,
        [
            f"x (preimages):       {_fmt_pair(x)}",
            f"inverse (preimages): {_fmt_pair(rep.inverse)}",
            f"converged: {'yes' if rep.converged else 'NO'}"
            f" after {rep.terms_used} terms,"
            f" residual {doc['residual_preimage']:.3e}",
            f"matches direct division: {'yes' if matches else 'NO'}",
        ],
    )
    return 0 if ok else 1


def _disk_domain(args: argparse.Namespace, pair):
    if args.radial > 0 and args.radial * args.angular > _MAX_GRID_POINTS:
        raise ValueError(
            f"a {args.radial} x {args.angular} lattice exceeds the limit"
            f" of {_MAX_GRID_POINTS} points"
        )
    return make_disk_domain(pair, args.radial, args.angular)


def _grid_values(args: argparse.Namespace, pair):
    dom = _disk_domain(args, pair)
    tree = parse_expr(args.expr)
    values = tuple(
        dual_mode_eval(tree, pair, args.mode, z=p) for p in dom.points
    )
    return dom, GridFunction(dom, values)


def _cmd_grid(args: argparse.Namespace, pair) -> int:
    dom, f = _grid_values(args, pair)
    sn = sup_norm(f)
    doc = {
        "schema_version": 1,
        "command": "grid",
        "expr": args.expr,
        "alpha": pair.alpha.name,
        "beta": pair.beta.name,
        "mode": args.mode,
        "radial": args.radial,
        "angular": args.angular,
        "points": [_value_dict(p) for p in dom.points],
        "values": [_value_dict(v) for v in f.values],
        "sup_norm_preimage": sn.preimage,
        "sup_norm_image": sn.image,
    }
    lines = [
        f"grid: {len(dom)} points"
        f" ({args.radial} circles x {args.angular}, plus the origin)",
    ]
    for p, v in zip(dom.points, f.values):
        lines.append(f"  f{_fmt_pair(p)} = {_fmt_pair(v)}")
    lines.append(f"sup norm (preimage): {sn.preimage!r}")
    _print_doc(doc, args.json, lines)
    return 0


def _cmd_quotient(args: argparse.Namespace, pair) -> int:
    at_tree = parse_expr(args.at)
    if not isinstance(at_tree, Lit):
        raise ParseError("--at must be a literal pair like (a, b)", 0)
    dom, f = _grid_values(args, pair)
    at = from_preimages(pair, at_tree.a, at_tree.b)
    try:
        ideal = EvaluationIdeal(dom, at)
    except ValueError as e:
        # not on the grid: a usage problem, not a failed check
        print(f"error: {e}", file=sys.stderr)
        return 2
    qn = quotient_norm(f, ideal)
    member = ideal_membership(ideal, f, tol=args.tol)
    rep_value = f.values[ideal.index]
    doc = {
        "schema_version": 1,
        "command": "quotient",
        "expr": args.expr,
        "alpha": pair.alpha.name,
        "beta": pair.beta.name,
        "mode": args.mode,
        "radial": args.radial,
        "angular": args.angular,
        "at": {"a_preimage": at_tree.a, "b_preimage": at_tree.b},
        "representative_value": _value_dict(rep_value),
        "quotient_norm_preimage": qn.preimage,
        "quotient_norm_image": qn.image,
        "in_ideal": member,
    }
    _print_doc(
        doc,
        args.json,
        [
            f"base point (preimages): ({at_tree.a!r}, {at_tree.b!r})",
            f"coset representative:   constant {_fmt_pair(rep_value)}",
            f"quotient norm (preimage): {qn.preimage!r}",
            f"in the ideal: {'yes' if member else 'no'}",
        ],
    )
    return 0


def _cmd_axioms(args: argparse.Namespace, pair) -> int:
    if args.carrier == "scalar":
        A = scalar_algebra(pair)
    else:
        A = grid_algebra(_disk_domain(args, pair))
    report = run_axiom_suite(
        args.suite, A, trials=args.trials, tol=args.tol, seed=args.seed
    )
    print(emit_report([report], "json" if args.json else "text"))
    return 0 if report.passed else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "invert": _cmd_invert,
    "grid": _cmd_grid,
    "quotient": _cmd_quotient,
    "axioms": _cmd_axioms,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        pair = pair_of(args.alpha, args.beta)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, pair)
    except ParseError as e:
        print(
            f"error: syntax error at offset {e.offset}: {e}", file=sys.stderr
        )
        return 2
    except UnboundVariableError as e:
        print(f"error: {e} (z is only bound under grid and quotient)",
              file=sys.stderr)
        return 2
    except UnsupportedSuiteError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StarError as e:
        sub = getattr(e, "subterm", None)
        where = f" in subterm {sub}" if sub else ""
        print(f"error: {e}{where}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


# the same entry point under a call-style name, for embedding
run_command = main


if __name__ == "__main__":
    sys.exit(main())

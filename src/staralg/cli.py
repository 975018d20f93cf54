"""Command line front end.

Subcommands: eval, invert, grid, quotient, axioms. Each takes only the
options it reads: --alpha, --beta and --json everywhere; --mode on eval,
invert, grid and quotient; --tol on eval, invert, quotient and axioms;
--radial and --angular on grid, quotient and axioms; --seed on axioms
alone. An option a subcommand does not take is a usage error. The
expression grammar, the JSON shapes, and the exit codes are stable
contracts:

  exit 0   the command ran and every check it implies passed
  exit 1   the command ran but a check failed (modes disagree, series
           not applicable or not converged, suite failed, arithmetic
           fell outside a generator's range)
  exit 2   usage error (syntax error, unknown name, z where no point is
           bound, a base point that is not on the grid, a tolerance that
           is not finite and positive, an expression nested too deeply,
           more than 4096 `radial x angular` points, more than 40000
           --trials, more than 250000 trials x lattice points on the grid
           carrier, more than 400000 --max-terms)

Output is deterministic: same argv, same bytes.

``main`` builds its parsers on its first call and reuses them for the life
of the process. An argv that starts with a subcommand's name is parsed once,
by that subcommand's parser; any other argv, or one with arguments left
over, goes to the whole parser. ``build_parser`` returns a new parser on
each call.
"""

from __future__ import annotations

import argparse
import functools
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
from .morphisms import quotient_map
from .report import SCHEMA_VERSION, emit_report
from .star_complex import (
    StarComplex,
    approx_eq,
    c_div,
    c_norm,
    dual_mode_eval,
    one,
)

__all__ = ["build_parser", "main"]

# most radial x angular lattice points. Building the domain is linear in
# the count; the cap bounds the output of grid, a line or a JSON record
# per point (about 1.4 MB of JSON at 4096 points), and the per-point work
# of quotient and of axioms on the grid carrier.
_MAX_GRID_POINTS = 4096

# caps that keep each argv to about 10 s on a 2-core x86-64 VM for the
# worst suite and pair measured: vector-space on the scalar carrier at
# about 235 us a trial, normed-algebra on the grid at about 35 us a trial
# and point; a Neumann term takes about 3 us, so 400,000 terms take about
# 1.2 s (the terms cap was set when a term took about 22 us)
_MAX_TRIALS = 40_000
_MAX_TRIAL_POINTS = 250_000
_MAX_TERMS = 400_000


def _at_most(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{what} exceeds the limit of {cap}")


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return tol


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, Any]]:
    """The whole parser, and each subcommand's parser by name."""
    # one parent per option group, so that each subcommand takes only the
    # options it reads
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument(
        "--alpha", default="identity", metavar="GEN",
        help="first-coordinate generator: %s" % ", ".join(builtin_names()),
    )
    pair.add_argument(
        "--beta", default="identity", metavar="GEN",
        help="second-coordinate generator",
    )
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode", choices=("direct", "pullback"), default="direct",
        help="evaluation route (default direct)",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="tolerance (default 1e-9)"
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
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
        "eval", parents=[pair, mode, tol, as_json],
        help="evaluate an expression by both routes and compare",
    )
    p_eval.add_argument("expr", help="expression in the documented grammar")

    p_inv = sub.add_parser(
        "invert", parents=[pair, mode, tol, as_json],
        help="invert a scalar expression by the geometric series",
    )
    p_inv.add_argument("expr")
    p_inv.add_argument(
        "--max-terms", type=int, default=10_000, dest="max_terms"
    )

    p_grid = sub.add_parser(
        "grid", parents=[pair, mode, as_json, grid_opts],
        help="evaluate an expression in z over a disk lattice",
    )
    p_grid.add_argument("expr")

    p_quot = sub.add_parser(
        "quotient", parents=[pair, mode, tol, as_json, grid_opts],
        help="quotient norm of an expression in z at a base point",
    )
    p_quot.add_argument("expr")
    p_quot.add_argument(
        "--at", default="(0,0)", metavar="(A,B)",
        help="base point as a preimage literal (default the origin)",
    )

    p_ax = sub.add_parser(
        "axioms", parents=[pair, tol, as_json, grid_opts],
        help="run a law suite against a carrier",
    )
    p_ax.add_argument("--suite", required=True, choices=SUITES)
    p_ax.add_argument(
        "--carrier", choices=("scalar", "grid"), default="scalar"
    )
    p_ax.add_argument("--trials", type=int, default=500)
    p_ax.add_argument(
        "--seed", type=int, default=0, help="random seed (default 0)"
    )

    return p, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


# argparse keeps no per-parse state on a parser and looks up sys.stdout and
# sys.stderr when it writes, so one set of parsers serves every main call
_parser = functools.cache(_build_parsers)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns or raises. The whole
    parser hands all after the subcommand's name to that subcommand's
    parser and only refuses what is left over, so a subcommand's parser
    alone can read an argv that leaves nothing over."""
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return parser.parse_args(argv)


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


def _doc(args: argparse.Namespace, pair, **fields: Any) -> dict[str, Any]:
    """The head every JSON document starts with, then the command's fields."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "expr": args.expr,
        "alpha": pair.alpha.name,
        "beta": pair.beta.name,
        **fields,
    }


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
    doc = _doc(
        args, pair,
        mode=args.mode,
        tol=args.tol,
        value=_value_dict(value),
        norm_preimage=nrm.preimage,
        norm_image=nrm.image,
        modes_agree=agree,
    )
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
    _at_most(f"--max-terms {args.max_terms}", args.max_terms, _MAX_TERMS)
    tree = parse_expr(args.expr)
    x = dual_mode_eval(tree, pair, args.mode)
    A = scalar_algebra(pair)
    rep = neumann_inverse(A, x, tol=args.tol, max_terms=args.max_terms)
    exact = c_div(one(pair), x)
    matches = _inverse_matches(rep.inverse, exact, args.tol)
    doc = _doc(
        args, pair,
        tol=args.tol,
        x=_value_dict(x),
        inverse=_value_dict(rep.inverse),
        **rep.to_json_dict(),
        matches_exact=matches,
    )
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
    values = f.values
    doc = _doc(
        args, pair,
        mode=args.mode,
        radial=args.radial,
        angular=args.angular,
        points=[_value_dict(p) for p in dom.points],
        values=[_value_dict(v) for v in values],
        sup_norm_preimage=sn.preimage,
        sup_norm_image=sn.image,
    )
    lines = [
        f"grid: {len(dom)} points"
        f" ({args.radial} circles x {args.angular}, plus the origin)",
    ]
    for p, v in zip(dom.points, values):
        lines.append(f"  f{_fmt_pair(p)} = {_fmt_pair(v)}")
    lines.append(f"sup norm (preimage): {sn.preimage!r}")
    _print_doc(doc, args.json, lines)
    return 0


def _cmd_quotient(args: argparse.Namespace, pair) -> int:
    at_tree = parse_expr(args.at)
    if not isinstance(at_tree, Lit):
        raise ParseError("--at must be a literal pair like (a, b)", 0)
    dom, f = _grid_values(args, pair)
    # unguarded: the point is only looked up, and every grid point passes
    # every guard, so an off-grid literal is a usage error, not a refusal
    ideal = EvaluationIdeal(dom, StarComplex(pair, complex(at_tree.a, at_tree.b)))
    coset = quotient_map(f, ideal)
    member = ideal_membership(ideal, f, tol=args.tol)
    doc = _doc(
        args, pair,
        mode=args.mode,
        radial=args.radial,
        angular=args.angular,
        at={"a_preimage": at_tree.a, "b_preimage": at_tree.b},
        representative_value=_value_dict(coset.value),
        quotient_norm_preimage=coset.norm.preimage,
        quotient_norm_image=coset.norm.image,
        in_ideal=member,
    )
    _print_doc(
        doc,
        args.json,
        [
            f"base point (preimages): ({at_tree.a!r}, {at_tree.b!r})",
            f"coset representative:   constant {_fmt_pair(coset.value)}",
            f"quotient norm (preimage): {coset.norm.preimage!r}",
            f"in the ideal: {'yes' if member else 'no'}",
        ],
    )
    return 0


def _cmd_axioms(args: argparse.Namespace, pair) -> int:
    _at_most(f"--trials {args.trials}", args.trials, _MAX_TRIALS)
    if args.carrier == "scalar":
        A = scalar_algebra(pair)
    else:
        dom = _disk_domain(args, pair)
        n = args.trials * len(dom)
        _at_most(f"{args.trials} trials x {len(dom)} lattice points = {n}",
                 n, _MAX_TRIAL_POINTS)
        A = grid_algebra(dom)
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
    try:
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return _COMMANDS[args.command](args, pair_of(args.alpha, args.beta))
    except ParseError as e:
        print(
            f"error: syntax error at offset {e.offset}: {e}", file=sys.stderr
        )
        return 2
    except UnboundVariableError as e:
        print(f"error: {e} (z is only bound under grid and quotient)",
              file=sys.stderr)
        return 2
    except (UnsupportedSuiteError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StarError as e:
        sub = getattr(e, "subterm", None)
        where = f" in subterm {sub}" if sub else ""
        print(f"error: {e}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

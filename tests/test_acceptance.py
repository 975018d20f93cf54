"""The acceptance gate: ten numbered criteria, one test each.

Every test prints exactly one ``[criterion NN] PASS/FAIL`` line (visible
under ``pytest -s``; under plain ``pytest -v`` the test outcome itself is
the line). Failures are collected rather than asserted mid-loop so the
line always reports how much of the criterion held.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import random

from staralg import (
    EvaluationIdeal,
    GridFunction,
    arith,
    broken_involution,
    c_conj,
    c_div,
    c_mul,
    c_norm,
    classify_element,
    continuity_bound_check,
    coordinate_function,
    dual_mode_eval,
    eval_classical,
    evaluation_functional,
    fn_add,
    fn_mul,
    fn_scalar_mul,
    from_preimage,
    from_preimages,
    grid_algebra,
    grid_constant,
    hermitian_parts,
    homomorphism_check,
    ideal_membership,
    kernel_image_closure_check,
    kernel_membership,
    make_disk_domain,
    neumann_inverse,
    one,
    pair_of,
    parse_expr,
    perturbative_inverse,
    preimage_close,
    quotient_norm,
    random_tree,
    run_axiom_suite,
    safe_random_tree,
    scalar_algebra,
    series_sum,
    square,
    star_homomorphism_check,
    sup_norm,
    to_text,
    unital_functional_check,
)
from staralg.cli import main as cli_main

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]
PAIRS = [pair_of(a, b) for a, b in PAIR_NAMES]
FLAGSHIP = pair_of("identity", "exp")

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _finish(n: int, label: str, failures: list[str], extra: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    tail = f" | {extra}" if extra else ""
    print(f"[criterion {n:02d}] {label}: {status}{tail}")
    assert not failures, f"criterion {n}: first failures: {failures[:3]}"


def _note(failures: list[str], ok: bool, msg: str, cap: int = 5) -> None:
    if not ok and len(failures) < cap:
        failures.append(msg)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def _unit_ball_sample(pair, rng: random.Random, max_dist: float):
    """unit minus a vector of norm at most max_dist (always invertible)."""
    d = rng.uniform(0.0, max_dist)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    A = scalar_algebra(pair)
    w = from_preimages(pair, d * math.cos(phase), d * math.sin(phase))
    return A.sub(A.unit, w), d


# ---------------------------------------------------------------------------


def test_criterion_01_dual_mode_field_oracle():
    failures: list[str] = []
    for idx, pair in enumerate(PAIRS):
        rng = random.Random(1000 + idx)
        for t in range(1000):
            tree = safe_random_tree(rng, 6)
            direct = dual_mode_eval(tree, pair, mode="direct")
            pullback = dual_mode_eval(tree, pair, mode="pullback")
            da, db = direct.preimages
            pa, pb = pullback.preimages
            agree = preimage_close(da, pa, rel=1e-9) and preimage_close(db, pb, rel=1e-9)
            _note(failures, agree, f"{pair}: tree {t} modes disagree: {to_text(tree)}")
            if idx == 0:
                w = eval_classical(tree)
                err = math.hypot(da - w.real, db - w.imag)
                exact = err <= 1e-12 * max(1.0, abs(w))
                _note(failures, exact, f"classical mismatch {err:.2e} on {to_text(tree)}")
    _finish(1, "dual-mode agreement, 1000 trees x 4 pairs", failures)


def test_criterion_02_cstar_suite_via_cli_with_mutants():
    failures: list[str] = []
    for a, b in PAIR_NAMES:
        for carrier in ("scalar", "grid"):
            code, out = _cli(
                ["axioms", "--suite", "c-star", "--carrier", carrier,
                 "--alpha", a, "--beta", b, "--trials", "500", "--json"]
            )
            doc = json.loads(out) if out else {}
            ok = code == 0 and doc.get("overall") == "ok"
            _note(failures, ok, f"c-star {a}/{b} {carrier}: exit {code}")
    # the conjugation-sign mutant must be caught on both carriers
    for carrier_of in (scalar_algebra, lambda p: grid_algebra(make_disk_domain(p, 2, 8))):
        for pair in PAIRS:
            mutant = broken_involution(carrier_of(pair))
            report = run_axiom_suite("c-star", mutant, trials=100, seed=0)
            _note(failures, not report.passed, f"mutant not caught on {mutant.name} {pair}")
    _finish(2, "c-star axioms via CLI, 4 pairs x 2 carriers x 500 trials + mutants fail", failures)


def test_criterion_03_norm_multiplicativity():
    failures: list[str] = []
    for idx, pair in enumerate(PAIRS):
        rng = random.Random(3000 + idx)
        for t in range(1000):
            z = from_preimages(pair, rng.uniform(-3, 3), rng.uniform(-3, 3))
            w = from_preimages(pair, rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs = c_norm(c_mul(z, w)).preimage
            rhs = arith("mul", c_norm(z), c_norm(w)).preimage
            _note(failures, preimage_close(lhs, rhs, rel=1e-9),
                  f"{pair}: |zw| vs |z||w| at trial {t}")
            lhs2 = c_norm(c_mul(z, c_conj(z))).preimage
            rhs2 = square(c_norm(z)).preimage
            _note(failures, preimage_close(lhs2, rhs2, rel=1e-9),
                  f"{pair}: |z conj z| vs |z|^2 at trial {t}")
    _finish(3, "norm multiplicativity + conjugate square, 1000 trials x 4 pairs", failures)


def test_criterion_04_geometric_series_inversion():
    failures: list[str] = []
    for idx, pair in enumerate(PAIRS):
        A = scalar_algebra(pair)
        rng = random.Random(4000 + idx)
        for t in range(200):
            x, _ = _unit_ball_sample(pair, rng, 0.9)
            rep = neumann_inverse(A, x, tol=1e-10)
            _note(failures, rep.converged, f"{pair}: no convergence at trial {t}")
            res = max(rep.residual.preimage, rep.residual_reversed.preimage)
            _note(failures, res <= 1e-8, f"{pair}: residual {res:.2e} at trial {t}")
            exact = c_div(one(pair), x)
            ia, ib = rep.inverse.preimages
            ea, eb = exact.preimages
            close = abs(ia - ea) <= 1e-7 * max(1.0, abs(ea)) and abs(ib - eb) <= 1e-7 * max(1.0, abs(eb))
            _note(failures, close, f"{pair}: inverse off exact division at trial {t}")
        # the ring-sampled grid: f = z + 1, distance from the unit exactly 1/2
        dom = make_disk_domain(pair, 1, 8)
        G = grid_algebra(dom)
        f = fn_add(coordinate_function(dom), grid_constant(dom, one(pair)))
        dist = sup_norm(G.sub(f, G.unit)).preimage
        _note(failures, dist == 0.5, f"{pair}: sup-norm {dist!r} is not exactly 0.5")
        rep = neumann_inverse(G, f, tol=1e-10)
        _note(failures, rep.converged, f"{pair}: grid inversion did not converge")
        for p, v in zip(dom.points, rep.inverse.values):
            target = c_div(one(pair), fn_add(coordinate_function(dom), grid_constant(dom, one(pair))).value_at(p))
            va, vb = v.preimages
            ta, tb = target.preimages
            ok = abs(va - ta) <= 1e-8 and abs(vb - tb) <= 1e-8
            _note(failures, ok, f"{pair}: pointwise inverse off at {p.preimages}")
    _finish(4, "series inversion: 200 scalars x 4 pairs + exact grid distance + pointwise", failures)


def test_criterion_05_perturbative_inversion_and_continuity():
    failures: list[str] = []
    literal_held = 0
    total = 0
    for idx, pair in enumerate(PAIRS):
        A = scalar_algebra(pair)
        rng = random.Random(5000 + idx)
        for t in range(50):
            x0, _ = _unit_ball_sample(pair, rng, 0.5)
            x0_inv = c_div(one(pair), x0)
            m = c_norm(x0_inv).preimage
            d = rng.uniform(0.0, 0.4 / m)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            x = A.add(x0, from_preimages(pair, d * math.cos(phase), d * math.sin(phase)))
            rep = perturbative_inverse(A, x, x0, x0_inv, tol=1e-10)
            _note(failures, rep.converged, f"{pair}: trial {t} did not converge")
            exact = c_div(one(pair), x)
            ia, ib = rep.inverse.preimages
            ea, eb = exact.preimages
            close = abs(ia - ea) <= 1e-7 * max(1.0, abs(ea)) and abs(ib - eb) <= 1e-7 * max(1.0, abs(eb))
            _note(failures, close, f"{pair}: trial {t} off the exact inverse")
            bound = continuity_bound_check(A, x, x0, x0_inv)
            _note(failures, bound.condition_met,
                  f"{pair}: factor-2 bound violated: {bound.lhs.preimage} > {bound.rhs.preimage}")
            total += 1
            # the tighter single-factor bound (half the asserted one) is
            # recorded, never asserted
            if bound.lhs.preimage <= bound.rhs.preimage / 2.0:
                literal_held += 1
    extra = (
        f"factor-2 bound asserted on all {total}; single-factor form recorded only: "
        f"held on {literal_held}/{total}, not asserted"
    )
    _finish(5, "perturbative inversion, 200 admissible pairs", failures, extra)


def test_criterion_06_hermitian_decomposition_and_unitaries():
    failures: list[str] = []
    for idx, pair in enumerate(PAIRS):
        A = scalar_algebra(pair)
        rng = random.Random(6000 + idx)
        i_scalar = from_preimages(pair, 0.0, 1.0)
        for t in range(25):
            x = from_preimages(pair, rng.uniform(-3, 3), rng.uniform(-3, 3))
            u, v = hermitian_parts(A, x)
            _note(failures, classify_element(A, u).hermitian, f"{pair}: u not hermitian")
            _note(failures, classify_element(A, v).hermitian, f"{pair}: v not hermitian")
            back = A.add(u, A.scalar_mul(i_scalar, v))
            rel = A.distance(x, back) / max(1.0, A.norm(x).preimage)
            _note(failures, rel <= 1e-9, f"{pair}: reconstruction off by {rel:.2e}")
        dom = make_disk_domain(pair, 2, 8)
        G = grid_algebra(dom)
        for t in range(10):
            f = G.sample(random.Random(6100 + 50 * idx + t))
            u, v = hermitian_parts(G, f)
            _note(failures, classify_element(G, u).hermitian, f"{pair}: grid u not hermitian")
            _note(failures, classify_element(G, v).hermitian, f"{pair}: grid v not hermitian")
            back = G.add(u, G.scalar_mul(i_scalar, v))
            rel = G.distance(f, back) / max(1.0, G.norm(f).preimage)
            _note(failures, rel <= 1e-9, f"{pair}: grid reconstruction off by {rel:.2e}")
        # adjoint-inverse law on the shifted coordinate function
        f = fn_add(coordinate_function(dom), grid_constant(dom, one(pair)))
        inv_then_star = G.star(neumann_inverse(G, f, tol=1e-10).inverse)
        star_then_inv = neumann_inverse(G, G.star(f), tol=1e-10).inverse
        gap = G.distance(inv_then_star, star_then_inv)
        _note(failures, gap <= 1e-8, f"{pair}: adjoint-inverse gap {gap:.2e} on the grid")
        # and on 25 random invertible scalars via exact division
        for t in range(25):
            x, _ = _unit_ball_sample(pair, rng, 0.9)
            lhs = c_conj(c_div(one(pair), x))
            rhs = c_div(one(pair), c_conj(x))
            gap = A.distance(lhs, rhs) / max(1.0, c_norm(lhs).preimage)
            _note(failures, gap <= 1e-9, f"{pair}: scalar adjoint-inverse gap {gap:.2e}")
        # unit-modulus samples are unitary with norm exactly one
        for t in range(50):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            u = from_preimages(pair, math.cos(theta), math.sin(theta))
            n = c_norm(u).preimage
            _note(failures, abs(n - 1.0) <= 1e-12, f"{pair}: unitary norm {n!r}")
            _note(failures, classify_element(A, u).unitary, f"{pair}: not classified unitary")
    _finish(6, "hermitian decomposition, adjoint-inverse, unitaries", failures)


def test_criterion_07_evaluation_functionals():
    failures: list[str] = []
    dom = make_disk_domain(FLAGSHIP, 2, 8)
    zero_c = from_preimages(FLAGSHIP, 0.0, 0.0)
    for k, point_index in enumerate((0, 3, 7, 10, 16)):
        phi = evaluation_functional(dom, dom.points[point_index])
        ideal = EvaluationIdeal(dom, dom.points[point_index])
        checks = [
            ("homomorphism", homomorphism_check(phi, trials=500, seed=70 + k)),
            ("star", star_homomorphism_check(phi, trials=500, seed=70 + k)),
            ("unital", unital_functional_check(phi, trials=500, seed=70 + k)),
            ("closure", kernel_image_closure_check(phi, trials=500, seed=70 + k)),
        ]
        for name, report in checks:
            _note(failures, report.passed and report.tolerance == 1e-9,
                  f"point {point_index}: {name} check failed: {report.counterexample}")
        rng = random.Random(7000 + k)
        for t in range(30):
            f = phi.source.sample(random.Random(rng.randrange(1 << 30)))
            pinned = GridFunction(dom, tuple(
                zero_c if i == point_index else v for i, v in enumerate(f.values)
            ))
            for g in (f, pinned):
                same = kernel_membership(phi, g) == ideal_membership(ideal, g)
                _note(failures, same, f"point {point_index}: kernel/ideal disagree")
    _finish(7, "evaluation functionals at 5 grid points, 4 checks x 500 trials", failures)


def test_criterion_08_quotient_norm():
    failures: list[str] = []
    for idx, pair in enumerate(PAIRS):
        dom = make_disk_domain(pair, 2, 8)
        G = grid_algebra(dom)
        rng = random.Random(8000 + idx)
        for t in range(125):
            f = G.sample(random.Random(rng.randrange(1 << 30)))
            g = G.sample(random.Random(rng.randrange(1 << 30)))
            ideal = EvaluationIdeal(dom, dom.points[rng.randrange(len(dom.points))])
            qf, qg = quotient_norm(f, ideal), quotient_norm(g, ideal)
            qfg = quotient_norm(fn_mul(f, g), ideal).preimage
            bound = arith("mul", qf, qg).preimage
            _note(failures, qfg <= bound + 1e-12,
                  f"{pair}: submultiplicativity off by {qfg - bound:.2e}")
            gap = abs(quotient_norm(f, ideal).preimage - c_norm(f.values[ideal.index]).preimage)
            _note(failures, gap <= 1e-12, f"{pair}: quotient norm vs |f(z)| gap {gap:.2e}")
    _finish(8, "quotient norm submultiplicativity, 500 triples", failures)


def test_criterion_09_series_certificates():
    failures: list[str] = []
    for pair in PAIRS:
        beta = pair.beta
        for r in (0.5, -0.3, 0.9):
            res = series_sum(
                (from_preimage(beta, r ** n) for n in range(5000)), tol=1e-11
            )
            closed = 1.0 / (1.0 - r)
            _note(failures, res.converged, f"{pair}: r={r} did not converge")
            _note(failures, preimage_close(res.sum.preimage, closed, rel=1e-9),
                  f"{pair}: r={r} sum {res.sum.preimage!r} vs {closed!r}")
        for r, label in ((1.0, "constant"), (3.0, "growing")):
            def terms(ratio=r):
                n = 0
                while True:
                    yield from_preimage(beta, ratio ** n)
                    n += 1
            res = series_sum(terms(), tol=1e-11, max_terms=2000)
            _note(failures, not res.converged, f"{pair}: {label} series claimed convergence")
            _note(failures, res.reason in ("max_terms", "overflow", "diverged"),
                  f"{pair}: odd reason {res.reason!r}")
    _finish(9, "geometric series closed forms + divergent fixtures", failures)


def test_criterion_10_cli_goldens_and_parser_roundtrip():
    failures: list[str] = []
    cases = json.loads((GOLDEN / "cases.json").read_text())
    for case in cases:
        path = GOLDEN / f"{case['name']}.json"
        _note(failures, path.exists(), f"missing golden {case['name']} (run scripts/update_golden.py)")
        if not path.exists():
            continue
        code, out = _cli(case["argv"])
        _note(failures, code == 0, f"{case['name']}: exit {code}")
        _note(failures, out == path.read_text(), f"{case['name']}: bytes differ")
    rng = random.Random(101010)
    for t in range(1000):
        tree = random_tree(rng, 6, allow_z=True)
        back = parse_expr(to_text(tree))
        _note(failures, back == tree, f"round trip changed tree {t}: {to_text(tree)}")
    _finish(10, "byte-stable golden transcripts + 1000-tree parser round trip", failures)

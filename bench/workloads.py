"""The benchmark's three workloads: their inputs, operations and output checks.

Inputs come from the seed alone. Every check compares staralg's output
with a value the benchmark computes itself in Python ``complex``
arithmetic, or with a property the method must have. None compares
against ``eval_classical``, the pullback route or saved output.

A workload is a fixed round of operations, run again and again by one
closed-loop caller. An operation is a callable that raises on a failure
or on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from typing import Callable, NamedTuple

import staralg as S

# the four pairs of the acceptance gate
PAIR_NAMES = (
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
)

TOL = 1e-9  # suites, morphisms, both routes, sup and quotient norms
INV_TOL = 1e-8  # inverses, against the benchmark's own 1/f(z)

# Generated expressions stay clear of the known c_div and guard faults at
# extreme magnitudes: every subterm has modulus at most VALUE_BOUND and
# every denominator modulus at least MIN_DENOM, on the whole disk |z| <= 1/2.
VALUE_BOUND = 50.0
MIN_DENOM = 0.1

Op = tuple[str, Callable[[], None]]


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def near(got: complex | float, want: complex | float, rel: float) -> bool:
    """Relative at scale, absolute below modulus 1."""
    return abs(got - want) <= rel * max(1.0, abs(want))


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def lattice_points(radial: int, angular: int) -> list[complex]:
    """The polar lattice: the origin, then r = k/(2R), theta = 2 pi j/A."""
    pts = [0j]
    for k in range(1, radial + 1):
        r = k / (2.0 * radial)
        for j in range(angular):
            th = 2.0 * math.pi * j / angular
            pts.append(complex(r * math.cos(th), r * math.sin(th)))
    return pts


# ---------------------------------------------------------------------------
# generated expressions, each built together with its value


class Term(NamedTuple):
    """An expression as grammar text and as a Python function of z.

    ``hi`` and ``lo`` bound the modulus of the value over the disk
    |z| <= 1/2; for a term without z they are its exact modulus.
    """

    text: str
    at: Callable[[complex], complex]
    hi: float
    lo: float
    has_z: bool


_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_APPLY = {
    "add": lambda u, v: u + v,
    "sub": lambda u, v: u - v,
    "mul": lambda u, v: u * v,
    "div": lambda u, v: u / v,
}


def _leaf(rng: random.Random, with_z: bool) -> Term:
    if with_z and rng.random() < 0.35:
        return Term("z", lambda z: z, 0.5, 0.0, True)
    c = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    return Term(f"({c.real!r},{c.imag!r})", lambda z: c, abs(c), abs(c), False)


def _unary(op: str, t: Term) -> Term:
    f = t.at
    if op == "conj":
        return Term(f"conj({t.text})", lambda z: f(z).conjugate(), t.hi, t.lo, t.has_z)
    if op == "neg":
        return Term(f"-{t.text}", lambda z: -f(z), t.hi, t.lo, t.has_z)
    return Term(f"norm({t.text})", lambda z: complex(abs(f(z)), 0.0), t.hi, t.lo, t.has_z)


def _binary(op: str, l: Term, r: Term) -> Term | None:
    """The combined term, or None when it would leave the safe bounds."""
    if op == "div" and r.lo < MIN_DENOM:
        return None
    fl, fr, g = l.at, r.at, _APPLY[op]
    at = lambda z: g(fl(z), fr(z))  # noqa: E731
    has_z = l.has_z or r.has_z
    if not has_z:
        hi = lo = abs(at(0j))
    elif op in ("add", "sub"):
        hi, lo = l.hi + r.hi, max(0.0, l.lo - r.hi, r.lo - l.hi)
    elif op == "mul":
        hi, lo = l.hi * r.hi, l.lo * r.lo
    else:
        hi, lo = l.hi / r.lo, l.lo / r.hi
    if hi > VALUE_BOUND:
        return None
    return Term(f"({l.text}{_SYM[op]}{r.text})", at, hi, lo, has_z)


def gen_term(rng: random.Random, n_bin: int, n_un: int, with_z: bool) -> Term:
    """A random term with exactly n_bin binary and n_un unary operations,
    so that its cost does not depend on the seed. With ``with_z`` the term
    mentions z at least once."""

    def build(nb: int, nu: int) -> Term:
        if nu and (nb == 0 or rng.random() < nu / (nb + nu)):
            return _unary(rng.choice(("conj", "neg", "norm")), build(nb, nu - 1))
        if nb == 0:
            return _leaf(rng, with_z)
        for _ in range(100):
            nl, ul = rng.randint(0, nb - 1), rng.randint(0, nu)
            left, right = build(nl, ul), build(nb - 1 - nl, nu - ul)
            fits = [t for t in (_binary(op, left, right) for op in _SYM) if t]
            if fits:
                return rng.choice(fits)
        raise RuntimeError("no term within the safe bounds")

    while True:
        t = build(n_bin, n_un)
        if t.has_z == with_z and (with_z or t.hi >= MIN_DENOM):
            # a leading '-' would read as an option on the command line
            return t._replace(text=f"({t.text})") if t.text.startswith("-") else t


def pair_args(names: tuple[str, str]) -> list[str]:
    return ["--alpha", names[0], "--beta", names[1]]


# ---------------------------------------------------------------------------
# CLI output checks, shared by in-process calls and fresh processes

_VALUE_RE = re.compile(r"^(value|inverse) \(preimages\): +\((\S+), (\S+)\)$", re.M)
_NORM_RE = re.compile(r"^(sup norm|quotient norm) \(preimage\): (\S+)$", re.M)


def _text_pair(out: str, label: str) -> complex:
    for m in _VALUE_RE.finditer(out):
        if m.group(1) == label:
            return complex(float(m.group(2)), float(m.group(3)))
    raise CheckFailed(f"no {label} line in the output")


def _text_float(out: str, label: str) -> float:
    for m in _NORM_RE.finditer(out):
        if m.group(1) == label:
            return float(m.group(2))
    raise CheckFailed(f"no {label} line in the output")


def _doc_pair(d: dict) -> complex:
    return complex(d["a_preimage"], d["b_preimage"])


def check_eval(want: complex, as_json: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        if as_json:
            doc = json.loads(out)
            got, agree = _doc_pair(doc["value"]), doc["modes_agree"] is True
        else:
            got, agree = _text_pair(out, "value"), "modes agree:       yes" in out
        expect(agree, "eval: the two routes disagree")
        expect(near(got, want, TOL), f"eval: {got!r} is not {want!r}")

    return check


def check_invert(x: complex, as_json: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        if as_json:
            doc = json.loads(out)
            inv = _doc_pair(doc["inverse"])
            ok = doc["converged"] is True and doc["matches_exact"] is True
        else:
            inv = _text_pair(out, "inverse")
            ok = "converged: yes" in out and "matches direct division: yes" in out
        expect(ok, "invert: not converged or no match with division")
        expect(abs(x * inv - 1.0) <= INV_TOL, f"invert: x*inverse = {x * inv!r}")

    return check


def check_grid(term: Term, radial: int, angular: int, as_json: bool) -> Callable[[str], None]:
    pts = lattice_points(radial, angular)
    want = [term.at(q) for q in pts]
    want_sup = max(abs(w) for w in want)

    def check(out: str) -> None:
        if as_json:
            doc = json.loads(out)
            got = [_doc_pair(v) for v in doc["values"]]
            expect(len(got) == len(pts), f"grid: {len(got)} values for {len(pts)} points")
            for g, w in zip(got, want):
                expect(near(g, w, TOL), f"grid: value {g!r} is not {w!r}")
            sup = doc["sup_norm_preimage"]
        else:
            expect(out.count("\n  f(") == len(pts), "grid: wrong number of value lines")
            sup = _text_float(out, "sup norm")
        expect(near(sup, want_sup, TOL), f"grid: sup norm {sup!r} is not {want_sup!r}")

    return check


def check_quotient(term: Term, at: complex, as_json: bool) -> Callable[[str], None]:
    want = abs(term.at(at))

    def check(out: str) -> None:
        if as_json:
            doc = json.loads(out)
            got = doc["quotient_norm_preimage"]
            expect(doc["in_ideal"] is (got <= TOL), "quotient: membership flag")
        else:
            got = _text_float(out, "quotient norm")
        expect(near(got, want, TOL), f"quotient: norm {got!r} is not {want!r}")

    return check


def check_axioms(as_json: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        ok = json.loads(out)["overall"] == "ok" if as_json else out.endswith("overall: ok\n")
        expect(ok, "axioms: the suite failed")

    return check


class CliCase(NamedTuple):
    """An argv for the staralg command line and the check of its stdout."""

    argv: list[str]
    check: Callable[[str], None]


def call_cli(case: CliCase) -> None:
    """staralg.cli.main in-process, stdout captured; exit code 0 expected."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = S.cli.main(case.argv)
    expect(code == 0, f"exit code {code}: {err.getvalue().strip()}")
    case.check(out.getvalue())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs built from the seed. ``round(r)`` is the r-th round of
    operations and ``spawn_case(i)`` the i-th fresh-process command.
    ``steps`` consecutive operations of a round make one job, the unit of
    the median cost."""

    name = ""
    steps = 1
    ops: list[Op]
    spawns: list[CliCase]

    def round(self, r: int) -> list[Op]:
        return self.ops

    def spawn_case(self, i: int) -> CliCase:
        return self.spawns[i % len(self.spawns)]


def _passes(rep) -> None:
    """A suite or morphism report that passes at TOL."""
    ok = rep.passed and rep.counterexample is None and rep.worst_residual <= TOL
    expect(ok, f"{rep.suite}: worst {rep.worst_residual!r}, {rep.counterexample}")


def _suite_op(suite: str, A, trials: int, seed: int) -> Callable[[], None]:
    return lambda: _passes(S.run_axiom_suite(suite, A, trials=trials, tol=TOL, seed=seed))


def _inverse_op(G, dom, pair, c: complex, pts: list[complex]) -> Callable[[], None]:
    """Neumann inversion of 1 + c*z on a grid, against the pointwise 1/(1 + c z)."""
    want = [1.0 / (1.0 + c * q) for q in pts]

    def op() -> None:
        x = S.fn_add(
            S.grid_constant(dom, S.one(pair)),
            S.fn_scalar_mul(S.from_preimages(pair, c.real, c.imag), S.coordinate_function(dom)),
        )
        rep = S.neumann_inverse(G, x)
        expect(rep.converged, f"neumann: not converged after {rep.terms_used} terms")
        for v, w in zip(rep.inverse.values, want):
            expect(near(v.as_complex, w, INV_TOL), f"neumann: {v.as_complex!r} is not {w!r}")

    return op


def _polar(rng: random.Random, modulus: float) -> complex:
    """A fixed modulus keeps the number of series terms seed-independent."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(th), modulus * math.sin(th))


# scalar-carrier suites and their trials, tuned to similar running times
_SCALAR_SUITES = (
    ("field", 25),
    ("vector-space", 25),
    ("norm", 100),
    ("normed-algebra", 40),
    ("involution", 50),
    ("c-star", 50),
)
# grid-carrier suites on the 17-point lattice
_GRID_SUITES = (("c-star", 5), ("normed-algebra", 3))
_MUTANTS = (
    (S.broken_zero, "vector-space"),
    (S.broken_norm, "norm"),
    (S.broken_mul, "normed-algebra"),
    (S.broken_involution, "involution"),
)
_MUTANT_TRIALS = 10


class Audit(Workload):
    """Axiom suites, morphism checks and Neumann inversion on small
    carriers built during set-up: the hot scalar path."""

    name = "audit"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops: list[Op] = []
        self.spawns: list[CliCase] = []
        pts = lattice_points(2, 8)
        for names in PAIR_NAMES:
            pair = S.pair_of(*names)
            tag = "/".join(names)
            A = S.scalar_algebra(pair)
            dom = S.make_disk_domain(pair, 2, 8)
            G = S.grid_algebra(dom)
            for suite, trials in _SCALAR_SUITES:
                self.ops.append((f"{suite}.scalar.{tag}", _suite_op(suite, A, trials, rng.randrange(2**31))))
            for suite, trials in _GRID_SUITES:
                self.ops.append((f"{suite}.grid.{tag}", _suite_op(suite, G, trials, rng.randrange(2**31))))
            h = S.evaluation_functional(dom, dom.points[rng.randrange(len(dom))])
            hom_seed, ker_seed = rng.randrange(2**31), rng.randrange(2**31)
            self.ops.append((f"homomorphism.{tag}", lambda h=h, s=hom_seed: _passes(S.homomorphism_check(h, trials=20, tol=TOL, seed=s))))
            self.ops.append((f"kernel.{tag}", lambda h=h, s=ker_seed: _passes(S.kernel_image_closure_check(h, trials=5, tol=TOL, seed=s))))
            self.ops.append((f"neumann.grid.{tag}", _inverse_op(G, dom, pair, _polar(rng, 0.8), pts)))
            mutants = [(suite, mutate(A)) for mutate, suite in _MUTANTS]
            self.ops.append((f"mutants.scalar.{tag}", self._rejects(mutants, rng.randrange(2**31))))
            self.spawns.append(CliCase(
                ["axioms", "--suite", "c-star", "--carrier", "grid", "--trials", "3",
                 "--seed", str(rng.randrange(2**31)), "--json", *pair_args(names)],
                check_axioms(True),
            ))

    @staticmethod
    def _rejects(mutants, seed: int) -> Callable[[], None]:
        def op() -> None:
            for suite, M in mutants:
                rep = S.run_axiom_suite(suite, M, trials=_MUTANT_TRIALS, tol=TOL, seed=seed)
                expect(not rep.passed, f"{M.name}: not rejected by {suite}")

        return op


# lattice sizes (radial, angular): about 240, 770 and 2050 points
_LATTICES = ((6, 40), (16, 48), (32, 64))
_QUOTIENT_POINTS = 3


class Lattice(Workload):
    """Domains of a few hundred to about 2k points, built inside each
    round, with whole-lattice evaluation, norms, ideals and inversion.

    Every round has each size once; the pairs rotate across rounds, so
    four rounds meet every size with every pair. Each size is four
    operations in a row, so that none runs for more than a few seconds:
    building the domain, evaluating an expression by both routes, the
    norms and ideals, and the inversion. Later steps use what the first
    built in the same round; when it failed, they fail too. The four
    steps make one job, so that the median cost is that of a whole size,
    not of whichever step happens to sit in the middle.
    """

    name = "lattice"
    steps = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # jobs[size][pair]: the four steps of that size with that pair
        self.jobs = []
        for R, A in _LATTICES:
            pts = lattice_points(R, A)
            tag = f"lattice.{len(pts)}"
            by_pair = []
            for names in PAIR_NAMES:
                term = gen_term(rng, 5, 2, with_z=True)
                c = _polar(rng, 0.1)
                picks = [rng.randrange(len(pts)) for _ in range(_QUOTIENT_POINTS)]
                want = [term.at(q) for q in pts]
                st: dict = {}  # what the round's domain step built
                by_pair.append([
                    (f"{tag}.domain", lambda st=st, names=names, R=R, A=A: self._domain(st, names, R, A)),
                    (f"{tag}.eval", lambda st=st, text=term.text, want=want: self._eval(st, text, want)),
                    (f"{tag}.norms", lambda st=st, pts=pts, want=want, picks=picks: self._norms(st, pts, want, picks)),
                    (f"{tag}.inverse", lambda st=st, pts=pts, c=c: self._inverse(st, pts, c)),
                ])
            self.jobs.append(by_pair)
        self.spawns = []
        for names in PAIR_NAMES:
            t = gen_term(rng, 5, 2, with_z=True)
            self.spawns.append(CliCase(
                ["grid", t.text, "--radial", "4", "--angular", "16", "--json", *pair_args(names)],
                check_grid(t, 4, 16, True),
            ))

    def round(self, r: int) -> list[Op]:
        return [op for s, by_pair in enumerate(self.jobs) for op in by_pair[(s + r) % len(PAIR_NAMES)]]

    @staticmethod
    def _domain(st: dict, names, R: int, A: int) -> None:
        st.clear()
        pair = S.pair_of(*names)
        dom = S.make_disk_domain(pair, R, A)
        expect(len(dom) == 1 + R * A, f"lattice: {len(dom)} points, not {1 + R * A}")
        for p in dom.points:
            expect(abs(p.as_complex) <= 0.5 + 1e-12, f"lattice: point {p!r} outside the disk")
        st.update(pair=pair, dom=dom)

    @staticmethod
    def _eval(st: dict, text: str, want: list[complex]) -> None:
        pair, dom = st["pair"], st["dom"]
        tree = S.parse_expr(text)
        direct = [S.dual_mode_eval(tree, pair, "direct", z=p) for p in dom.points]
        pullback = [S.dual_mode_eval(tree, pair, "pullback", z=p) for p in dom.points]
        for d, b, w in zip(direct, pullback, want):
            expect(near(d.as_complex, b.as_complex, TOL), f"lattice: routes disagree at {w!r}")
            expect(near(d.as_complex, w, TOL), f"lattice: value {d.as_complex!r} is not {w!r}")
        st["f"] = S.GridFunction(dom, tuple(direct))

    @staticmethod
    def _norms(st: dict, pts: list[complex], want: list[complex], picks: list[int]) -> None:
        pair, dom, f = st["pair"], st["dom"], st["f"]
        want_sup = max(abs(w) for w in want)
        sup = S.sup_norm(f).preimage
        expect(near(sup, want_sup, TOL), f"lattice: sup norm {sup!r} is not {want_sup!r}")
        star = S.fn_involution(f)
        for v, w in zip(star.values, want):
            expect(near(v.as_complex, w.conjugate(), TOL), "lattice: involution is not conjugation")
        expect(near(S.sup_norm(star).preimage, want_sup, TOL), "lattice: involution changed the norm")
        for idx in picks:
            ideal = S.EvaluationIdeal(dom, S.from_preimages(pair, pts[idx].real, pts[idx].imag))
            expect(ideal.index == idx, f"lattice: point {idx} resolved to {ideal.index}")
            qn = S.quotient_norm(f, ideal).preimage
            expect(near(qn, abs(want[idx]), TOL), f"lattice: quotient norm {qn!r} at point {idx}")

    @staticmethod
    def _inverse(st: dict, pts: list[complex], c: complex) -> None:
        pair, dom = st["pair"], st["dom"]
        _inverse_op(S.grid_algebra(dom), dom, pair, c, pts)()


def _invert_input(rng: random.Random) -> tuple[str, complex]:
    """An x with |1 - x| = 0.6, inside the series' unit ball.

    Both components of 1/x are kept above a fifth of its modulus: the
    command compares the series inverse with division component by
    component at a relative 1e-8, while the series stops at a residual of
    1e-9 in norm, so a small component fails that comparison.
    """
    while True:
        t = gen_term(rng, 2, 1, with_z=False)
        x = 1.0 - t.at(0j) * (0.6 / t.hi)
        inv = 1.0 / x
        if min(abs(inv.real), abs(inv.imag)) >= 0.2 * abs(inv):
            return f"((1,0)-{t.text}*({0.6 / t.hi!r},0))", x


def _fmt(as_json: bool) -> str:
    return "json" if as_json else "text"


def _round_trip(texts: list[str]) -> None:
    for text in texts:
        tree = S.parse_expr(text)
        expect(S.parse_expr(S.to_text(tree)) == tree, f"to_text does not round-trip {text}")


class Cli(Workload):
    """staralg.cli.main over a fixed mix of subcommands, text and JSON, on
    generated expressions. Almost no carrier work."""

    name = "cli"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases: list[tuple[str, CliCase]] = []
        self.spawns: list[CliCase] = []
        for names in PAIR_NAMES:
            tag = "/".join(names)
            pa = pair_args(names)
            for mode, as_json in (("direct", False), ("direct", True), ("pullback", True)):
                t = gen_term(rng, 6, 2, with_z=False)
                flags = ["--mode", mode] + (["--json"] if as_json else [])
                self.cases.append((f"eval.{mode}.{_fmt(as_json)}.{tag}", CliCase(["eval", t.text, *flags, *pa], check_eval(t.at(0j), as_json))))
            for as_json in (False, True):
                x_text, x = _invert_input(rng)
                self.cases.append((f"invert.{_fmt(as_json)}.{tag}", CliCase(["invert", x_text, *pa] + (["--json"] if as_json else []), check_invert(x, as_json))))
            for (R, A), as_json in (((2, 8), True), ((3, 6), False)):
                t = gen_term(rng, 3, 1, with_z=True)
                grid = ["--radial", str(R), "--angular", str(A)] + (["--json"] if as_json else [])
                self.cases.append((f"grid.{_fmt(as_json)}.{tag}", CliCase(["grid", t.text, *grid, *pa], check_grid(t, R, A, as_json))))
                at = lattice_points(R, A)[rng.randrange(1 + R * A)]
                at_text = f"({at.real!r},{at.imag!r})"
                self.cases.append((f"quotient.{_fmt(as_json)}.{tag}", CliCase(["quotient", t.text, "--at", at_text, *grid, *pa], check_quotient(t, at, as_json))))
            for suite, trials, as_json in (("c-star", 10, True), ("field", 5, False)):
                argv = ["axioms", "--suite", suite, "--trials", str(trials), "--seed", str(rng.randrange(2**31)), *pa]
                self.cases.append((f"axioms.{suite}.{_fmt(as_json)}.{tag}", CliCase(argv + (["--json"] if as_json else []), check_axioms(as_json))))
            t = gen_term(rng, 6, 2, with_z=False)
            self.spawns.append(CliCase(["eval", t.text, "--json", *pa], check_eval(t.at(0j), True)))
        self.ops = [(label, lambda c=case: call_cli(c)) for label, case in self.cases]
        # the printer: every expression of the round survives parse, print, parse
        texts = [c.argv[1] for _, c in self.cases if c.argv[0] in ("eval", "grid", "invert")]
        self.ops.append(("expr.round-trip", lambda: _round_trip(texts)))


WORKLOADS = {w.name: w for w in (Audit, Lattice, Cli)}

"""Extreme literals never escape ``main``.

A seeded stream of argv: random trees of depth at most 3 over literals
at and past every generator's working-domain ends, under every pair of
built-ins, through ``eval``, ``invert``, ``grid`` and ``quotient`` (the
last two on a 1 x 4 lattice), by both routes, as text and as JSON.
``main`` must return 0, 1 or 2; on 1 or 2 it prints nothing on stdout
and one ``error:`` line on stderr.
"""

import contextlib
import io
import itertools
import random

from staralg import Binary, Lit, Unary, Var, builtin_names, to_text
from staralg.cli import main

PARTS = (
    0.0, -0.0, 1.0, -1.0, 5e-324, 1e-320, 1e-200, 1e-110, 0.5, 3.0, 700.0,
    -700.5, 701.0, 5.6e102, 6e102, 1e154, 1e155, 1e308, -1e308, 1.7e308,
)
PAIRS = tuple(itertools.product(builtin_names(), repeat=2))
COMMANDS = ("eval", "invert", "grid", "quotient")


def _tree(rng, depth, with_z):
    r = rng.random()
    if depth == 0 or r < 0.3:
        if with_z and rng.random() < 0.25:
            return Var()
        return Lit(rng.choice(PARTS), rng.choice(PARTS))
    if r < 0.5:
        return Unary(rng.choice(("neg", "conj", "norm")), _tree(rng, depth - 1, with_z))
    return Binary(
        rng.choice(("add", "sub", "mul", "div")),
        _tree(rng, depth - 1, with_z),
        _tree(rng, depth - 1, with_z),
    )


def argv_stream(seed=13, n=600):
    """n argv drawn from one seeded rng."""
    rng = random.Random(seed)
    for _ in range(n):
        command = rng.choice(COMMANDS)
        alpha, beta = rng.choice(PAIRS)
        argv = [command, "--alpha", alpha, "--beta", beta]
        argv += ["--mode", rng.choice(("direct", "pullback"))]
        if command in ("grid", "quotient"):
            argv += ["--radial", "1", "--angular", "4"]
        if rng.random() < 0.5:
            argv.append("--json")
        # after "--", so that a tree printed with a leading minus is not
        # read as an option
        yield argv + ["--", to_text(_tree(rng, 3, command in ("grid", "quotient")))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_extreme_literals_exit_cleanly():
    codes = {}
    for argv in argv_stream():
        code, out, err = run(argv)
        codes[code] = codes.get(code, 0) + 1
        assert code in (0, 1, 2), argv
        if code:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
    # the stream reaches both results and refusals
    assert codes.get(0, 0) > 50 and codes.get(1, 0) > 50, codes

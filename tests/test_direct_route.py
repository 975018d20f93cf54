"""The direct route on raw preimages against the route it replaced.

``ORACLE_OPS`` and ``oracle_direct`` are the direct route as it was
before it ran on raw preimages: a fold of the field operations ``c_*``
node by node, building and guarding a point at every node. The route
must give the same value to the bit, signed zeros included, or the same
error class, message and subterm.
"""

import math
import random

import pytest

from staralg import (
    Binary,
    Generator,
    GeneratorOverflowError,
    GeneratorPair,
    Lit,
    StarComplex,
    StarDivisionError,
    StarError,
    Unary,
    UnboundVariableError,
    Var,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_neg,
    c_norm,
    c_sub,
    dual_mode_eval,
    from_preimages,
    pair_of,
    random_tree,
    zero,
)
from staralg.expr import fold

ORACLE_OPS = {
    "add": c_add,
    "sub": c_sub,
    "mul": c_mul,
    "div": c_div,
    "conj": c_conj,
    "neg": lambda v: c_sub(zero(v.pair), v),
    # a norm used as a subexpression sits on the real axis
    "norm": lambda v: from_preimages(v.pair, c_norm(v).preimage, 0.0),
}


def oracle_direct(tree, pair, z=None):
    def leaf(n):
        if isinstance(n, Lit):
            return from_preimages(pair, n.a, n.b)
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z

    return fold(tree, leaf, ORACLE_OPS)


def _bits(x):
    return (x, math.copysign(1.0, x))


def outcome(f, *args):
    """The value's pair and bits, or the error's class, message and subterm."""
    try:
        v = f(*args)
    except StarError as e:
        return ("error", type(e), str(e), e.subterm)
    return ("value", v.pair, _bits(v.value.real), _bits(v.value.imag))


PAIRS = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
    ("cube", "cube"),
    ("exp", "identity"),
]


@pytest.mark.parametrize("names", PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_random_trees_match_the_oracle(names):
    pair = pair_of(*names)
    rng = random.Random(f"direct-{names}")
    refused = 0
    for k in range(600):
        tree = random_tree(rng, rng.randint(1, 7), allow_z=True)
        # ordinary points, and points out where products and norms leave
        # exp's interval
        b = 3.0 if k % 3 else 400.0
        z = from_preimages(pair, rng.uniform(-b, b), rng.uniform(-b, b))
        z = z if k % 5 else None
        got = outcome(dual_mode_eval, tree, pair, "direct", z)
        assert got == outcome(oracle_direct, tree, pair, z), (k, tree)
        refused += got[0] == "error"
    # the draws must meet both values and refusals
    assert 0 < refused < 600


NARROW_A = Generator("narrow-a", lambda t: t, lambda y: y, t_min=-10.0, t_max=10.0)
NARROW_B = Generator("narrow-b", lambda t: t, lambda y: y, t_min=-20.0, t_max=20.0)
# preimages [-1, 10]: 5 passes and its negation does not
LOPSIDED = Generator("lopsided", lambda t: t, lambda y: y, t_min=-1.0, t_max=10.0)
# preimages [1, 10]: the additive zero itself is refused
NO_ZERO = Generator("no-zero", lambda t: t, lambda y: y, t_min=1.0, t_max=10.0)
EE = pair_of("exp", "exp")


def _lit(a, b):
    return Lit(float(a), float(b))


REFUSALS = {
    "literal": (EE, _lit(800, 0), GeneratorOverflowError, "exp: preimage 800.0"),
    "add": (EE, Binary("add", _lit(600, 0), _lit(600, 0)), GeneratorOverflowError, "exp: "),
    "mul": (EE, Binary("mul", _lit(0, 30), _lit(0, 30)), GeneratorOverflowError, "exp: "),
    "div by zero": (
        EE,
        Binary("div", _lit(1, 0), Binary("sub", _lit(1, 1), _lit(1, 1))),
        StarDivisionError,
        "division by the field's additive zero",
    ),
    "neg": (
        GeneratorPair(LOPSIDED, LOPSIDED),
        Unary("neg", _lit(5, 0)),
        GeneratorOverflowError,
        "lopsided: preimage -5.0",
    ),
    "neg of a refused zero": (
        GeneratorPair(NO_ZERO, NO_ZERO),
        Unary("neg", _lit(2, 2)),
        GeneratorOverflowError,
        "no-zero: preimage 0.0",
    ),
    "conj": (
        GeneratorPair(LOPSIDED, LOPSIDED),
        Unary("conj", _lit(0, 5)),
        GeneratorOverflowError,
        "lopsided: preimage -5.0",
    ),
    # the modulus 22.36 is past both lines; beta's guard is named first
    "norm": (
        GeneratorPair(NARROW_A, NARROW_B),
        Unary("norm", _lit(10, 20)),
        GeneratorOverflowError,
        "narrow-b: preimage 22.36",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_step_refuses_as_the_oracle_does(name):
    pair, tree, cls, start = REFUSALS[name]
    got = outcome(dual_mode_eval, tree, pair, "direct")
    assert got == outcome(oracle_direct, tree, pair)
    assert got[1] is cls
    assert got[2].startswith(start)
    assert got[3] is not None  # the refused subterm is named


def test_norm_past_alpha_only_names_alpha():
    pair = GeneratorPair(NARROW_A, NARROW_B)
    tree = Unary("norm", _lit(9, 9))  # 12.73: inside beta, past alpha
    got = outcome(dual_mode_eval, tree, pair, "direct")
    assert got == outcome(oracle_direct, tree, pair)
    assert got[2].startswith("narrow-a: preimage 12.72")


def test_signed_zeros_come_out_as_before():
    pair = pair_of("identity", "identity")
    for tree in (
        Unary("neg", _lit(0, 0)),
        Unary("neg", _lit(-0.0, -0.0)),
        Unary("conj", _lit(0, 0)),
        Binary("mul", _lit(-0.0, 0), _lit(1, 0)),
        Binary("sub", _lit(-0.0, -0.0), _lit(0, 0)),
        Unary("norm", _lit(-0.0, -0.0)),
    ):
        assert outcome(dual_mode_eval, tree, pair, "direct") == outcome(
            oracle_direct, tree, pair
        )


def test_the_bound_point_is_taken_as_given():
    # as before, z itself is not guarded; what is made from it is
    pair = pair_of("exp", "exp")
    z = StarComplex(pair, complex(900.0, 0.0))
    assert dual_mode_eval(Var(), pair, "direct", z=z) == z
    for tree in (Unary("conj", Var()), Binary("add", Var(), _lit(0, 0))):
        got = outcome(dual_mode_eval, tree, pair, "direct", z)
        assert got == outcome(oracle_direct, tree, pair, z)
        assert got[:2] == ("error", GeneratorOverflowError)


NEG_POINTS = [
    (pair_of("identity", "identity"), 1.0, 0.0),
    (pair_of("identity", "identity"), 0.0, 0.0),
    (pair_of("identity", "identity"), -0.0, -0.0),
    (pair_of("identity", "identity"), 1.0, -0.0),
    (pair_of("cube", "exp"), 2.5, -0.0),
    (pair_of("exp", "exp"), -700.0, 700.0),
    (GeneratorPair(LOPSIDED, LOPSIDED), 5.0, 0.0),
    (GeneratorPair(NO_ZERO, NO_ZERO), 2.0, 2.0),
]


@pytest.mark.parametrize("pair, a, b", NEG_POINTS)
def test_c_neg_is_the_direct_routes_neg(pair, a, b):
    # the guarded zero minus z: the same bits, signed zeros included
    # (before, c_neg of (1, 0) gave (-1.0, -0.0)), or the same refusal
    # (before, c_neg under no-zero named -2.0, not the zero)
    got = outcome(c_neg, from_preimages(pair, a, b))
    want = outcome(dual_mode_eval, Unary("neg", _lit(a, b)), pair, "direct")
    n = 4 if got[0] == "value" else 3  # only the route names a subterm
    assert got[:n] == want[:n]


"""A tree read at many points: the compiled reading against the fold.

With z bound, both routes call the tree's compiled reading, kept in one
slot for the last (tree, op table). It must give the value bits of
``fold`` over the same op table, or the same error class, message and
subterm, whatever was read before it.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from staralg import (
    Binary,
    GeneratorOverflowError,
    Lit,
    StarComplex,
    StarDivisionError,
    StarError,
    Unary,
    UnboundVariableError,
    Var,
    dual_mode_eval,
    eval_classical,
    from_classical,
    make_disk_domain,
    pair_of,
    parse_expr,
    random_tree,
)
from staralg import expr
from staralg.expr import MAX_NESTING, fold
from staralg.star_complex import _direct_ops

PAIRS = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
    ("cube", "cube"),
    ("exp", "identity"),
]
II, EE = pair_of("identity", "identity"), pair_of("exp", "exp")


def _leaf(lit, z):
    def leaf(n):
        if isinstance(n, Lit):
            return lit(n)
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z

    return leaf


def _classical_lit(n):
    return complex(n.a, n.b)


def _direct_lit(pair):
    return lambda n: pair.check(complex(n.a, n.b))


def fold_direct(tree, pair, z):
    leaf = _leaf(_direct_lit(pair), z.value if z is not None else None)
    return StarComplex(pair, fold(tree, leaf, _direct_ops(pair)))


def fold_pullback(tree, pair, z):
    leaf = _leaf(_classical_lit, z.as_complex if z is not None else None)
    return from_classical(pair, fold(tree, leaf, expr._CLASSICAL_OPS))


FOLD = {"direct": fold_direct, "pullback": fold_pullback}


def outcome(f, *args):
    """repr of the value's preimages, or the error's class, message and
    subterm."""
    try:
        return ("value", repr(f(*args).value))
    except StarError as e:
        return ("error", type(e), str(e), e.subterm)


def read(tree, pair, mode, z):
    got = outcome(dual_mode_eval, tree, pair, mode, z)
    assert got == outcome(FOLD[mode], tree, pair, z), (expr.to_text(tree), pair, mode, z)
    return got


# ordinary points, points where products and norms leave exp's interval,
# and points no generator takes
_COORDS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 400.0, -750.0, 1e200, math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, len(PAIRS) - 1),
            st.sampled_from(["direct", "pullback"]),
            _COORDS,
            _COORDS,
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_interleaved_reads_match_the_fold(seeds, calls):
    # trees, pairs and routes interleave from call to call, so a reading
    # kept past a change of tree, pair or route gives a wrong answer
    trees = [random_tree(random.Random(s), 5, allow_z=True) for s in seeds]
    for t, p, mode, zx, zy in calls:
        pair = pair_of(*PAIRS[p])
        read(trees[t % len(trees)], pair, mode, StarComplex(pair, complex(zx, zy)))


@pytest.mark.parametrize(
    "routes", [("direct", "pullback"), ("pullback", "direct")], ids=["direct-first", "pullback-first"]
)
def test_one_tree_over_two_pairs_and_two_routes(routes):
    # exp refuses the literal (800, 0), identity takes it; a reading kept
    # across a change of pair or route answers for the wrong one
    tree = Binary("add", Lit(800.0, 0.0), Binary("mul", Var(), Lit(0.5, 0.0)))
    for pair, want in [(II, "value"), (EE, "error"), (II, "value")]:
        for mode in routes:
            for z in (complex(0.25, -1.0), complex(1.0, 0.0)):
                assert read(tree, pair, mode, StarComplex(pair, z))[0] == want
    got = read(tree, EE, "direct", StarComplex(EE, 0j))
    assert got[1:] == (
        GeneratorOverflowError,
        "exp: preimage 800.0 outside the working domain [-700.0, 700.0]",
        "(800.0,0.0)",
    )


def test_a_point_that_fails_names_the_folds_subterm():
    tree = Binary("add", Lit(1.0, 0.0), Binary("div", Lit(2.0, 0.0), Var()))
    dom = make_disk_domain(II, 2, 4)
    for mode, message in [
        ("direct", "division by the field's additive zero"),
        ("pullback", "division by zero"),
    ]:
        for p in dom.points:
            got = read(tree, II, mode, p)
            if p.value == 0:
                assert got == ("error", StarDivisionError, message, "(2.0,0.0)/z")
            else:
                assert got[0] == "value"


@pytest.mark.parametrize("mode", ["direct", "pullback"])
def test_an_unbound_z_raises_after_a_compiled_read(mode):
    tree = Unary("conj", Binary("sub", Var(), Lit(1.0, 2.0)))
    read(tree, II, mode, StarComplex(II, 1j))
    with pytest.raises(UnboundVariableError) as exc:
        dual_mode_eval(tree, II, mode)
    assert exc.value.subterm == "z"


def test_literals_and_constant_subtrees_are_read_once():
    calls = {"lit": 0, "add": 0, "mul": 0}

    def lit(n):
        calls["lit"] += 1
        return complex(n.a, n.b)

    def counted(name, f):
        def op(*args):
            calls[name] += 1
            return f(*args)

        return op

    ops = {"add": counted("add", complex.__add__), "mul": counted("mul", complex.__mul__)}
    # ((1,0) + (2,0)) * z + (3,0): three literals and one constant sum
    tree = Binary(
        "add",
        Binary("mul", Binary("add", Lit(1.0, 0.0), Lit(2.0, 0.0)), Var()),
        Lit(3.0, 0.0),
    )
    values = [expr.read_at(tree, lit, ops, complex(k, 1.0)) for k in range(10)]
    assert values == [3.0 * complex(k, 1.0) + 3.0 for k in range(10)]
    assert calls == {"lit": 3, "add": 1 + 10, "mul": 10}


# ---------------------------------------------------------------------------
# the depth bound


def _tree_of_depth(depth):
    """z under ``depth`` operator levels whose values stay near the unit
    disk on every pair."""
    steps = [
        lambda t: Binary("mul", t, Lit(0.5, 0.25)),
        lambda t: Binary("add", Var(), t),
        lambda t: Unary("conj", t),
        lambda t: Binary("sub", t, Lit(0.125, -0.5)),
        lambda t: Unary("neg", t),
        lambda t: Binary("div", t, Lit(1.5, 0.5)),
    ]
    t = Var()
    for k in range(depth):
        t = steps[k % len(steps)](t)
    return t


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("names", PAIRS[:4], ids=lambda p: f"{p[0]}-{p[1]}")
def test_trees_at_and_past_the_bound_read_as_the_fold(names, depth):
    pair = pair_of(*names)
    tree = _tree_of_depth(depth)
    # compiled up to the bound; past it, every point is folded
    compiled = expr._compile(tree, _classical_lit, expr._CLASSICAL_OPS)
    assert (compiled is not None) == (depth <= MAX_NESTING)
    dom = make_disk_domain(pair, 6, 40)
    assert len(dom) == 241
    for mode in ("direct", "pullback"):
        for p in dom.points:
            assert read(tree, pair, mode, p)[0] == "value"


def _from_depth(frames, f):
    return f() if frames == 0 else _from_depth(frames - 1, f)


def _stack_depth():
    f, depth = sys._getframe(), 0
    while f is not None:
        f, depth = f.f_back, depth + 1
    return depth


def test_a_reading_at_the_bound_runs_from_300_frames_deep():
    tree = _tree_of_depth(MAX_NESTING)
    z = complex(0.25, -0.125)
    classical = expr._compile(tree, _classical_lit, expr._CLASSICAL_OPS)
    pair = pair_of("cube", "exp")
    direct = expr._compile(tree, _direct_lit(pair), _direct_ops(pair))

    def deep(run):
        assert _stack_depth() > 300
        return repr(run(z))

    assert _from_depth(300, lambda: deep(classical)) == repr(eval_classical(tree, z))
    assert _from_depth(300, lambda: deep(direct)) == repr(
        fold_direct(tree, pair, StarComplex(pair, z)).value
    )


@pytest.mark.parametrize("names", [("cube", "exp"), ("identity", "identity")])
def test_a_deep_caller_reads_a_compiled_tree_by_the_fold(names):
    # the compiled reading takes a frame per tree level and runs out of
    # stack this deep; the point is folded instead, and gives the value
    # the reading gives from the top
    pair = pair_of(*names)
    src = "conj(" * 199 + "z" + ")" * 199
    z = from_classical(pair, complex(0.25, -0.125))
    reads = {
        "direct": lambda t: dual_mode_eval(t, pair, "direct", z).as_complex,
        "pullback": lambda t: dual_mode_eval(t, pair, "pullback", z).as_complex,
        "classical": lambda t: eval_classical(t, z.as_complex),
    }
    frames = sys.getrecursionlimit() - 100
    for name, run in reads.items():
        tree = parse_expr(src)
        assert _from_depth(frames, lambda: run(tree)) == complex(0.25, 0.125), name
        assert run(tree) == complex(0.25, 0.125), name

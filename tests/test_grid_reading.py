"""The whole-lattice reading is the per-point reading.

``star_complex._read_points`` reads a tree over every point of a grid by
one fold over tuples of preimages, the reading ``grid`` and ``quotient``
use. Each value must have the bits of ``dual_mode_eval`` at that point,
on both routes, and on failure the error must be the one the per-point
loop raises at its first failing point: its class, message and subterm.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from staralg import (
    GeneratorOverflowError,
    StarError,
    dual_mode_eval,
    make_disk_domain,
    pair_of,
    parse_expr,
    random_tree,
    safe_random_tree,
    to_text,
)
from staralg.star_complex import _read_points

from conftest import PAIR_NAMES

_LATTICES = [(1, 4), (2, 8), (3, 6)]
_MODES = ["direct", "pullback"]


def _outcome(read):
    """repr of every preimage, or the error's class, message and subterm."""
    try:
        return ("values", [repr(w) for w in read()])
    except StarError as e:
        return ("error", type(e), str(e), e.subterm)


def _per_point(tree, pair, mode, dom):
    return [dual_mode_eval(tree, pair, mode, z=p).value for p in dom.points]


def _check(tree, pair, mode, dom):
    want = _outcome(lambda: _per_point(tree, pair, mode, dom))
    got = _outcome(lambda: _read_points(tree, pair, mode, dom.preimages))
    assert got == want, (to_text(tree), pair, mode, len(dom))
    return got


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    safe=st.booleans(),
    depth=st.integers(0, 5),
    names=st.sampled_from(PAIR_NAMES),
    lattice=st.sampled_from(_LATTICES),
    mode=st.sampled_from(_MODES),
)
def test_grid_reading_is_the_per_point_reading(seed, safe, depth, names, lattice, mode):
    # random_tree may fail part-way through the lattice; safe_random_tree
    # keeps every subtree representable
    draw = safe_random_tree if safe else random_tree
    tree = draw(random.Random(seed), depth, allow_z=True)
    pair = pair_of(*names)
    _check(tree, pair, mode, make_disk_domain(pair, *lattice))


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("names", PAIR_NAMES, ids="-".join)
@pytest.mark.parametrize("text, first, count", [
    # refused at the origin only
    ("(1,0)/z", 0, 1),
    # the product underflows where |z| = 1/4 and at the diagonal points of
    # the outer circle, but not at the origin, where z is zero
    ("(2.5e-162,0)*z*(2.5e-162,0)", 1, 12),
    ("conj(z)*(0.5,-1)+norm(z)", None, 0),
])
def test_named_trees_refuse_where_the_per_point_reading_does(
    names, mode, text, first, count
):
    pair = pair_of(*names)
    dom = make_disk_domain(pair, 2, 8)
    tree = parse_expr(text)
    refused = []
    for i, p in enumerate(dom.points):
        try:
            dual_mode_eval(tree, pair, mode, z=p)
        except StarError:
            refused.append(i)
    assert len(refused) == count and refused[:1] == ([] if first is None else [first])
    got = _check(tree, pair, mode, dom)
    assert got[0] == ("error" if count else "values")
    if count:
        assert got[3] == to_text(tree)


@pytest.mark.parametrize("mode", _MODES)
def test_the_error_is_the_lowest_failing_points(mode):
    # the left quotient is refused only where z = (0.5, 0), a later point
    # than the origin, where the right one is: a reading that stopped at
    # the first node refused anywhere would name the left quotient
    pair = pair_of("identity", "identity")
    dom = make_disk_domain(pair, 2, 8)
    tree = parse_expr("(1,0)/(z-(0.5,0))+(1,0)/z")
    assert _check(tree, pair, mode, dom)[3] == "(1.0,0.0)/z"


@pytest.mark.parametrize("mode, subterm", [
    ("direct", "(600.0,0.0)*z*(5.0,0.0)"),
    # the pullback route guards only its results, outside the fold
    ("pullback", None),
])
def test_each_result_point_is_guarded(mode, subterm):
    # 600 * z * 5 leaves exp's interval [-700, 700] where |z| = 1/4
    pair = pair_of("exp", "exp")
    dom = make_disk_domain(pair, 2, 8)
    got = _check(parse_expr("(600,0)*z*(5,0)"), pair, mode, dom)
    assert got[0] == "error" and got[1] is GeneratorOverflowError
    assert got[3] == subterm
    # times zero it is zero again: only the direct route refuses the product
    got = _check(parse_expr("(600,0)*z*(5,0)*(0,0)"), pair, mode, dom)
    assert got[0] == ("error" if mode == "direct" else "values")

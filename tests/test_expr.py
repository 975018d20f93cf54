import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from staralg import (
    Binary,
    Lit,
    ParseError,
    StarDivisionError,
    Unary,
    UnboundVariableError,
    Var,
    eval_classical,
    parse_expr,
    random_tree,
    safe_random_tree,
    to_text,
)
from staralg import expr


def test_precedence_shape():
    t = parse_expr("(1,2)+(3,4)*i")
    assert isinstance(t, Binary) and t.op == "add"
    assert t.left == Lit(1.0, 2.0)
    assert isinstance(t.right, Binary) and t.right.op == "mul"
    assert t.right.left == Lit(3.0, 4.0)
    assert t.right.right == Lit(0.0, 1.0)


def test_left_associativity():
    t = parse_expr("(1,0)-(2,0)-(3,0)")
    assert t == Binary("sub", Binary("sub", Lit(1.0, 0.0), Lit(2.0, 0.0)), Lit(3.0, 0.0))


def test_unary_nodes():
    t = parse_expr("conj((0,1))")
    assert t == Unary("conj", Lit(0.0, 1.0))
    t = parse_expr("norm(z)")
    assert t == Unary("norm", Var())
    t = parse_expr("-(1,2)")
    assert t == Unary("neg", Lit(1.0, 2.0))


def test_literal_vs_grouping_disambiguation():
    # a parenthesis opens a literal exactly when [sign] number ',' follows
    assert parse_expr("(-1.5,2e3)") == Lit(-1.5, 2000.0)
    t = parse_expr("((1,2))")
    assert t == Lit(1.0, 2.0)
    t = parse_expr("((1,2)+(3,4))")
    assert isinstance(t, Binary) and t.op == "add"


def test_special_leaves():
    assert parse_expr("i") == Lit(0.0, 1.0)
    assert parse_expr("1") == Lit(1.0, 0.0)
    assert parse_expr("0") == Lit(0.0, 0.0)
    assert parse_expr("z") == Var()


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expr("(1,2))")
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse_expr("(1,2)+")
    assert exc.value.offset == 6
    with pytest.raises(ParseError):
        parse_expr("spam((1,2))")
    with pytest.raises(ParseError):
        parse_expr("2")  # bare numbers other than 0 and 1 are not factors
    with pytest.raises(ParseError):
        parse_expr("(1,2,3)")


def test_tree_depth_counts_chained_operators():
    # 200 chained operators make a tree 200 deep: the limit
    for op in "+-*/":
        t = parse_expr(op.join(["z"] * 201))
        assert parse_expr(to_text(t)) == t
    assert eval_classical(parse_expr("+".join(["z"] * 201)), z=1j) == 201j
    for op in "+-*/":
        src = op.join(["z"] * 202)
        with pytest.raises(ParseError, match="nested more than 200 levels") as exc:
            parse_expr(src)
        assert exc.value.offset == src.rindex(op)
    assert parse_expr("-" + "+".join(["z"] * 200))  # depth 200 with the minus
    with pytest.raises(ParseError):
        parse_expr("-conj(" + "+".join(["z"] * 200) + ")")
    # short chains nested in chains still make a deep tree
    src = "z"
    for _ in range(20):
        src = f"({src})" + "+z" * 15
    with pytest.raises(ParseError, match="nested more than 200 levels"):
        parse_expr(src)


def test_eval_classical_oracles():
    assert eval_classical(parse_expr("(1,2)*(3,4)")) == complex(-5.0, 10.0)
    assert eval_classical(parse_expr("conj((1,2))")) == complex(1.0, -2.0)
    assert eval_classical(parse_expr("norm((3,4))")) == complex(5.0, 0.0)
    assert eval_classical(parse_expr("(1,0)/(0,1)")) == complex(0.0, -1.0)
    assert eval_classical(parse_expr("z*z"), z=complex(0.0, 1.0)) == complex(-1.0, 0.0)


def test_eval_classical_errors():
    with pytest.raises(UnboundVariableError):
        eval_classical(parse_expr("z+(1,0)"))
    with pytest.raises(StarDivisionError):
        eval_classical(parse_expr("(1,0)/(0,0)"))


def test_round_trip_on_random_trees():
    # print then reparse must reproduce the tree, node for node
    rng = random.Random(20240817)
    for _ in range(1000):
        t = random_tree(rng, max_depth=5, allow_z=True)
        assert parse_expr(to_text(t)) == t


def test_safe_trees_evaluate_within_bounds():
    rng = random.Random(7)
    for _ in range(300):
        t = safe_random_tree(rng, max_depth=6)
        v = eval_classical(t)
        assert abs(v) <= 50.0 + 1e-9


@settings(max_examples=200)
@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_literal_round_trip_exact(a, b):
    t = Lit(a, b)
    back = parse_expr(to_text(t))
    assert back == t


def test_unicode_in_the_tokenizer():
    # str.isdigit and str.isspace decide, so other scripts' decimal digits
    # are numbers, superscripts are digits that float() refuses, and
    # U+3000 and the separator controls are whitespace
    assert parse_expr("(٣,0)") == Lit(3.0, 0.0)  # Arabic-Indic three
    assert parse_expr("(３,0)") == Lit(3.0, 0.0)  # full-width three
    with pytest.raises(ParseError) as exc:
        parse_expr("(3²,0)")
    assert str(exc.value) == "bad number '3²'"
    assert exc.value.offset == 1
    assert parse_expr("　(1,2)\x1c+\x1c(3,4)　") == parse_expr("(1,2)+(3,4)")


# --- the four node classes keep their record behaviour -----------------

_NODES = [
    (Lit(1.5, -2.0), "Lit(a=1.5, b=-2.0)", ("a", "b")),
    (Var(), "Var(name='z')", ("name",)),
    (Unary("neg", Var()), "Unary(op='neg', child=Var(name='z'))", ("op", "child")),
    (
        Binary("add", Lit(1.0, 0.0), Var()),
        "Binary(op='add', left=Lit(a=1.0, b=0.0), right=Var(name='z'))",
        ("op", "left", "right"),
    ),
]
_NODE_IDS = ["Lit", "Var", "Unary", "Binary"]


def _rebuilt(node):
    # the same tree, built again from its text
    return parse_expr(to_text(node))


@pytest.mark.parametrize("node, text, names", _NODES, ids=_NODE_IDS)
def test_node_equality_and_hash_read_the_post_order(node, text, names):
    twin = _rebuilt(node)
    assert twin is not node
    assert twin == node and hash(twin) == hash(node)
    # an inner node hashes its post-order key; a leaf, the key's one
    # entry, hashes its fields
    if isinstance(node, (Unary, Binary)):
        assert hash(node) == hash(expr._key(node))
    else:
        assert expr._key(node) == (node,)
        assert hash(node) == hash(tuple(getattr(node, n) for n in names))
    assert node != Binary("sub", node, node) and node != Unary("conj", node)
    assert (node == to_text(node)) is False


def test_node_equality_keeps_the_signed_zero_rule():
    assert Lit(0.0, 0.0) == Lit(-0.0, 0.0)
    assert hash(Lit(0.0, 0.0)) == hash(Lit(-0.0, 0.0))
    assert Unary("neg", Lit(0.0, -0.0)) == Unary("neg", Lit(-0.0, 0.0))
    assert Binary("add", Lit(-0.0, 0.0), Var()) == Binary("add", Lit(0.0, 0.0), Var())
    assert Lit(0.0, 0.0) != Lit(0.0, 1.0)
    assert Var() == Var("z") and Var() != Var("w")


@pytest.mark.parametrize("node, text, names", _NODES, ids=_NODE_IDS)
def test_node_repr(node, text, names):
    assert repr(node) == text


@pytest.mark.parametrize("node, text, names", _NODES, ids=_NODE_IDS)
def test_nodes_are_frozen_and_slotted(node, text, names):
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
    with pytest.raises((AttributeError, TypeError)):
        node.extra = 1
    assert not hasattr(node, "__dict__")
    assert repr(node) == text


@pytest.mark.parametrize("node, text, names", _NODES, ids=_NODE_IDS)
def test_node_fields_and_replace(node, text, names):
    assert tuple(f.name for f in dataclasses.fields(node)) == names
    assert dataclasses.replace(node) == node
    changed = {"a": 7.0, "name": "w", "op": "conj" if len(names) == 2 else "mul"}
    field = names[0]
    other = dataclasses.replace(node, **{field: changed[field]})
    assert type(other) is type(node) and getattr(other, field) == changed[field]
    assert other != node
    assert all(getattr(other, n) is getattr(node, n) for n in names[1:])


def test_var_keeps_its_default_name():
    assert dataclasses.fields(Var)[0].default == "z"
    assert Var().name == "z"


@pytest.mark.parametrize("node, text, names", _NODES, ids=_NODE_IDS)
@pytest.mark.parametrize("copy_of", [
    lambda n: pickle.loads(pickle.dumps(n)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_node_pickle_and_deepcopy_round_trips(node, text, names, copy_of):
    twin = copy_of(node)
    assert twin == node and hash(twin) == hash(node)
    assert type(twin) is type(node) and repr(twin) == text
    assert to_text(twin) == to_text(node)

"""The one iterative tree walk against the recursive walkers it replaced.

``ref_to_text``, ``ref_eval_classical`` and ``ref_eval_direct`` are the
printer and the two evaluation routes as they were written before the
fold, kept as the reference: the fold must give the same text, the same
values to the bit and the same errors, naming the same subterm. The
classical walker has since gained the two rules the routes added after
the fold, the refusal of a nonzero quotient or product that rounds to
zero, and the retry on rescaled operands of a quotient whose plain
division cannot be kept.
"""

import cmath
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from staralg import (
    Binary,
    Lit,
    PairMismatchError,
    ParseError,
    StarComplex,
    StarDivisionError,
    StarError,
    StarUnderflowError,
    Unary,
    UnboundVariableError,
    Var,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_norm,
    c_sub,
    dual_mode_eval,
    eval_classical,
    from_classical,
    from_preimages,
    pair_of,
    parse_expr,
    random_tree,
    safe_random_tree,
    to_text,
    zero,
)
from staralg import expr

# ---------------------------------------------------------------------------
# the reference walkers, recursive, as they were

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_SYMS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _fmt(x: float) -> str:
    return repr(x)


def ref_to_text(node):
    if isinstance(node, Lit):
        return f"({_fmt(node.a)},{_fmt(node.b)})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = ref_to_text(node.child)
            if isinstance(node.child, Binary):
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({ref_to_text(node.child)})"
    p = _PREC[node.op]
    left = ref_to_text(node.left)
    if isinstance(node.left, Binary) and _PREC[node.left.op] < p:
        left = f"({left})"
    right = ref_to_text(node.right)
    # the grammar is left-associative, so an equal-precedence right child
    # needs parentheses to survive a round trip
    if isinstance(node.right, Binary) and _PREC[node.right.op] <= p:
        right = f"({right})"
    return f"{left}{_SYMS[node.op]}{right}"


def ref_eval_classical(node, z=None):
    if isinstance(node, Lit):
        return complex(node.a, node.b)
    if isinstance(node, Var):
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z
    if isinstance(node, Unary):
        v = ref_eval_classical(node.child, z)
        if node.op == "conj":
            return v.conjugate()
        if node.op == "neg":
            return -v
        return complex(abs(v), 0.0)
    left = ref_eval_classical(node.left, z)
    right = ref_eval_classical(node.right, z)
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        q = left * right
        if not q and left and right:
            raise StarUnderflowError("the product of nonzero points underflows to zero")
        return q
    if right == 0:
        raise StarDivisionError("division by zero")
    q = left / right
    tiny = sys.float_info.min
    if q and cmath.isfinite(q) and (
        abs(left.real) >= tiny or abs(left.imag) >= tiny
    ) and (abs(right.real) >= tiny or abs(right.imag) >= tiny):
        return q
    if not (left and cmath.isfinite(left) and cmath.isfinite(right)):
        return q
    # divide again with each operand's larger part scaled into [0.5, 1)
    kl = math.frexp(max(abs(left.real), abs(left.imag)))[1]
    kr = math.frexp(max(abs(right.real), abs(right.imag)))[1]
    u = complex(math.ldexp(left.real, -kl), math.ldexp(left.imag, -kl))
    v = complex(math.ldexp(right.real, -kr), math.ldexp(right.imag, -kr))
    s = u / v
    try:
        s = complex(math.ldexp(s.real, kl - kr), math.ldexp(s.imag, kl - kr))
    except OverflowError:
        s = 0j
    if s:
        return s
    if not q:
        raise StarUnderflowError("the quotient of a nonzero point underflows to zero")
    return q


def ref_eval_direct(node, pair, z):
    try:
        if isinstance(node, Lit):
            return from_preimages(pair, node.a, node.b)
        if isinstance(node, Var):
            if z is None:
                raise UnboundVariableError("z is not bound in this context")
            if z.pair != pair:
                raise PairMismatchError("bound point lives over a different pair")
            return z
        if isinstance(node, Unary):
            v = ref_eval_direct(node.child, pair, z)
            if node.op == "conj":
                return c_conj(v)
            if node.op == "neg":
                return c_sub(zero(pair), v)
            # a norm used as a subexpression sits on the real axis
            return from_preimages(pair, c_norm(v).preimage, 0.0)
        left = ref_eval_direct(node.left, pair, z)
        right = ref_eval_direct(node.right, pair, z)
        if node.op == "add":
            return c_add(left, right)
        if node.op == "sub":
            return c_sub(left, right)
        if node.op == "mul":
            return c_mul(left, right)
        return c_div(left, right)
    except StarError as e:
        # deepest frame wins: only annotate once
        if e.subterm is None:
            e.subterm = ref_to_text(node)
        raise


def ref_post_order(node):
    if isinstance(node, Unary):
        yield from ref_post_order(node.child)
    elif isinstance(node, Binary):
        yield from ref_post_order(node.left)
        yield from ref_post_order(node.right)
    yield node


def ref_pullback_walk(node, z):
    """The reference classical walk, with a StarError naming the first
    failing node in post-order, the rule the direct route always had."""
    for sub in ref_post_order(node):
        try:
            ref_eval_classical(sub, z)
        except StarError as e:
            e.subterm = ref_to_text(sub)
            raise
    return ref_eval_classical(node, z)


# ---------------------------------------------------------------------------
# the fold against them


def outcome(f, *args):
    """repr of the value, or the error's type, message and subterm."""
    try:
        return ("value", repr(f(*args)))
    except (StarError, ArithmeticError) as e:
        return ("error", type(e), str(e), getattr(e, "subterm", None))


PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]

# small values, signed zeros, and magnitudes that overflow to infinities
# and NaNs inside the classical walk
_COORDS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e160]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@pytest.mark.parametrize("allow_z", [False, True])
@pytest.mark.parametrize("names", PAIR_NAMES, ids=lambda p: f"{p[0]}-{p[1]}")
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zx=_COORDS,
    zy=_COORDS,
    z_pair=st.sampled_from(["unbound", "same", "equal", "other"]),
)
def test_fold_matches_the_recursive_walkers(names, allow_z, seed, zx, zy, z_pair):
    pair = pair_of(*names)
    tree = random_tree(random.Random(seed), 5, allow_z)
    # the bound point lives over the pair object itself, an equal one, or
    # another pair; the direct route takes it as given and guards only
    # what it computes from it, so it is built unguarded
    other = PAIR_NAMES[(PAIR_NAMES.index(names) + 1) % len(PAIR_NAMES)]
    z_pairs = {"same": pair, "equal": pair_of(*names), "other": pair_of(*other)}
    z = StarComplex(z_pairs[z_pair], complex(zx, zy)) if z_pair in z_pairs else None
    zc = z.as_complex if z is not None else None

    assert to_text(tree) == ref_to_text(tree)
    assert outcome(eval_classical, tree, zc) == outcome(ref_pullback_walk, tree, zc)
    if z_pair == "other":
        # a point over another pair is refused before either route
        # evaluates, whether or not the tree mentions z
        refused = ("error", PairMismatchError, "bound point lives over a different pair", None)
        for mode in ("direct", "pullback"):
            assert outcome(dual_mode_eval, tree, pair, mode, z) == refused
        return
    assert outcome(dual_mode_eval, tree, pair, "direct", z) == outcome(
        ref_eval_direct, tree, pair, z
    )
    assert outcome(dual_mode_eval, tree, pair, "pullback", z) == outcome(
        lambda: from_classical(pair, ref_pullback_walk(tree, zc))
    )


def test_pullback_errors_name_the_first_failing_node():
    tree = parse_expr("(1,0)/((1,0)-(1,0))+z")
    pair = pair_of("identity", "identity")
    with pytest.raises(StarDivisionError) as exc:
        dual_mode_eval(tree, pair, "pullback")
    assert exc.value.subterm == "(1.0,0.0)/((1.0,0.0)-(1.0,0.0))"
    with pytest.raises(UnboundVariableError) as exc:
        eval_classical(parse_expr("(1,0)+z/(0,0)"))
    assert exc.value.subterm == "z"


def test_pullback_norm_is_the_builtin_modulus():
    # abs() of a complex and math.hypot differ in the last bit here
    a, b = 1.7124717355858436, -1.8605947909114064
    assert abs(complex(a, b)) != math.hypot(a, b)
    tree = Unary("norm", Lit(a, b))
    assert eval_classical(tree) == complex(abs(complex(a, b)), 0.0)
    assert eval_classical(tree) == ref_eval_classical(tree)


# ---------------------------------------------------------------------------
# trees deeper than any recursion limit


def test_a_100000_node_chain_evaluates_by_both_routes():
    # a left-deep chain (((1 + z) + 1) + z) + ...: 50000 operator nodes
    # and 50001 leaves
    t = Lit(1.0, 0.0)
    for k in range(50_000):
        t = Binary("add", t, Var() if k % 2 == 0 else Lit(1.0, 0.0))
    pair = pair_of("identity", "exp")
    z = from_preimages(pair, 0.25, 0.0)
    # 25001 ones and 25000 quarters, every partial sum exact
    assert eval_classical(t, z.as_complex) == complex(31251.0, 0.0)
    for mode in ("direct", "pullback"):
        assert dual_mode_eval(t, pair, mode, z=z).preimages == (31251.0, 0.0)


def test_a_20000_node_chain_prints_and_parses_back(monkeypatch):
    rights = [Lit(1.5, -2.0), Var(), Unary("neg", Lit(0.0, 1.0)), Unary("conj", Var())]
    texts = ["(1.5,-2.0)", "z", "-(0.0,1.0)", "conj(z)"]
    t, want = Lit(0.0, 0.0), ["(0.0,0.0)"]
    for k in range(10_000):
        op = "add" if k % 3 else "sub"
        t = Binary(op, t, rights[k % 4])
        want.append("+-"[op == "sub"] + texts[k % 4])
    text = to_text(t)
    assert text == "".join(want)
    # the parser refuses the chain by the tree-depth limit, the contract
    # for parsed input; with the limit lifted it reads the same tree back
    with pytest.raises(ParseError, match="nested more than"):
        parse_expr(text)
    monkeypatch.setattr(expr, "MAX_NESTING", 10**6)
    back = parse_expr(text)
    assert to_text(back) == text
    a, b = back, t
    while isinstance(b, Binary):  # dataclass == would recurse
        assert isinstance(a, Binary) and (a.op, a.right) == (b.op, b.right)
        a, b = a.left, b.left
    assert a == b


# ---------------------------------------------------------------------------
# safe trees take their values from the pullback route


@pytest.mark.parametrize(
    "seed, text",
    [
        (0, "(-0.08443382062312388,2.509405990710791)/(((0.19538180453116283,1.231033525327618)*(-2.118231595599015,-2.407419932045114)-(-1.0188166884120087,0.35888207408940165))*(z*(2.4959668821413086,-2.4403688138855397)-((1.968379670423393,-1.0011891762654097)+(1.2218552769931206,-2.622094354432803))))"),
        (3, "(-(2.0187687076463323,-0.1418807478039903)/-(0.0,1.0)+conj((-2.7432658239632404,1.6804589345013383)))*(((-2.415274141614737,-2.184186838795987)-(0.0,1.0))/((2.000862719976883,0.4441364117373743)*(-0.5545448101646397,-1.605681140533011))/((-1.0416582689598377,0.25059565475714063)-(-2.3755451419733307,0.933067122599109)+(-2.619236537128624,2.1236549305360812)*(-2.46889144134163,1.8035719275450113)))"),
        (6, "((0.0,1.0)+z*(-2.6770671672218027,-0.4626680645079926)*((0.0,0.0)/(1.021302664450185,2.3370752981057343)))/((-0.8337052529651343,-1.4621267392008064)/((2.561579475371265,-0.4695426548044166)*(0.6149115923661999,0.93772532694961))+(-2.0218135280564695,2.4785896505301466)*(1.1667139203711487,-1.4051758056828527)/((-1.2552614110771059,-2.962846146950842)-(-2.65736973959603,-2.8193240489082836)))"),
        (12, "z*((norm((-0.9619189244818847,-1.73849008714448))+-(-0.9780024432493946,-0.5723143012281051))/conj(z-(2.6802781124596233,-2.3248341831178414)))"),
    ],
)
def test_safe_random_tree_draws_are_unchanged(seed, text):
    assert to_text(safe_random_tree(random.Random(seed), 4, True)) == text


# ---------------------------------------------------------------------------
# node equality and hashing walk an explicit stack too


def _chain(nodes, bottom=Lit(1.2345678901234567, -7.654321098765432)):
    # a left-deep chain of (nodes - 1) / 2 additions over 39-character
    # literals; ``bottom`` is its deepest leaf
    t = bottom
    for _ in range((nodes - 1) // 2):
        t = Binary("add", t, Lit(1.2345678901234567, -7.654321098765432))
    return t


@pytest.mark.parametrize("nodes", [3001, 100_001])
def test_separately_built_deep_chains_compare_and_hash(nodes):
    a, b = _chain(nodes), _chain(nodes)
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != _chain(nodes, bottom=Lit(1.2345678901234567, -7.65432109876543))


def test_a_100001_node_chain_prints_in_linear_time():
    t = _chain(100_001)
    start = time.perf_counter()
    text = to_text(t)
    # the quadratic printer took about 19 s here; the joined one well
    # under 1 s, so the bound only catches a return to copying
    assert time.perf_counter() - start < 10.0
    assert text == "+".join(["(1.2345678901234567,-7.654321098765432)"] * 50_001)


def _ref_eq(a, b):
    """The dataclass ``==``, recursive, for small trees."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Binary):
        return a.op == b.op and _ref_eq(a.left, b.left) and _ref_eq(a.right, b.right)
    if isinstance(a, Unary):
        return a.op == b.op and _ref_eq(a.child, b.child)
    return a == b


def test_node_equality_keeps_the_dataclass_semantics():
    zero, neg_zero = Lit(0.0, 0.0), Lit(-0.0, 0.0)
    assert Unary("neg", zero) == Unary("neg", neg_zero)
    assert hash(Unary("neg", zero)) == hash(Unary("neg", neg_zero))
    assert Unary("neg", Var()) != Unary("conj", Var())
    assert Unary("neg", Var()) != Unary("neg", Var("w"))
    assert Unary("neg", Var()) != Unary("neg", Lit(0.0, 0.0))
    assert Binary("add", Var(), Var()) != Unary("neg", Var())
    assert Binary("add", Var(), Var()) != "z+z"
    rng = random.Random(4)
    # small trees over few leaves, so that many pairs are equal
    trees = [random_tree(rng, rng.randint(0, 3)) for _ in range(400)]
    trees = [parse_expr(to_text(t)) for t in trees] + trees
    equal = 0
    for a, b in zip(trees, trees[len(trees) // 2 :] + trees[1:]):
        assert (a == b) == _ref_eq(a, b), (to_text(a), to_text(b))
        if a == b:
            equal += 1
            assert hash(a) == hash(b)
    assert equal >= 400

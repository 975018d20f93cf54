"""The one-scan reading of a text against the token parser it stands in for.

``parse_expr`` reads a well-formed ASCII text in one regex scan and hands
every other text to ``_Parser``, which owns every error. On any input the
two must give the same tree (signed zeros included) or the same
ParseError, message and offset alike.
"""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from staralg import Binary, Lit, ParseError, Unary, random_tree, to_text
from staralg import expr
from staralg.expr import _Parser, parse_expr

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
            1.7e308, -1.7e308, 1.7976931348623157e308, 1e22, 0.1, -3.0)
# every ASCII character str.isspace accepts, and one beyond ASCII
SPACES = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "　")
# the grammar's alphabet, words that fail it, and characters beyond
# ASCII: decimal digits of other scripts, and a superscript, a letter and
# a fraction that the token parser refuses
ALPHABET = tuple("()+-*/,.eE0123456789zi_x ") + (
    "conj(", "norm(", "1e308", "1e309", "5e-324", "-0", "\t", "\x0b", "\x1c",
    "　", "٣", "３", "²", "é", "½",
)


def _outcome(parse, src):
    """repr of the tree, or the error's class, message and offset."""
    try:
        return ("tree", repr(parse(src)))
    except ParseError as e:
        return ("error", type(e), str(e), e.offset)


def _agree(src):
    got = _outcome(parse_expr, src)
    assert got == _outcome(lambda s: _Parser(s).parse(), src), repr(src)
    return got


def _with_extremes(node, rng):
    """The tree with some literals' components drawn from EXTREMES."""
    if isinstance(node, Lit):
        pick = lambda x: rng.choice(EXTREMES) if rng.random() < 0.5 else x  # noqa: E731
        return Lit(pick(node.a), pick(node.b))
    if isinstance(node, Unary):
        return Unary(node.op, _with_extremes(node.child, rng))
    if isinstance(node, Binary):
        return Binary(node.op, _with_extremes(node.left, rng), _with_extremes(node.right, rng))
    return node


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5))
def test_printed_trees_read_the_same(seed, depth):
    rng = random.Random(seed)
    tree = _with_extremes(random_tree(rng, depth, allow_z=True), rng)
    text = to_text(tree)
    assert _agree(text) == ("tree", repr(tree))
    # the same text with whitespace between some characters: inside a
    # number it splits the token, and the two parsers must still agree
    spaced = "".join(c + (rng.choice(SPACES) if rng.random() < 0.2 else "") for c in text)
    _agree(spaced)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=16))
def test_random_strings_read_the_same(parts):
    _agree("".join(parts))


@pytest.mark.parametrize("src", [
    "(-0,+0)", "(+1.5e-3 ,\t-.5)", "(1.,2.e5)", "-(-0.0,-0.0)", "(5e-324,-5e-324)",
    "(1.7976931348623157e308,0)", "(1e309,0)", "(-1e309,0)", "(1,2,3)", "(1,z)",
    "conj(1,2)", "norm((1,2))", "conj z", "z z", "1", "0", "01", "1.0", "2", ".",
    "(.,1)", "(1.2.3,0)", "(1e+,0)", "1e5", "(1,2)(3,4)", "((1,2)", "(1,2))", "",
    "   ", " z ", "(--1,0)", "+z", "z+", "spam", "i*i", "-i", "conj(z)+norm(-z)",
    "(٣,0)", "(3²,0)", "　(1,2)\x1c+\x1c(3,4)　", "z\x1f*\x1ez", "(1,2)@(3,4)",
])
def test_edge_texts_read_the_same(src):
    _agree(src)


def test_signed_zeros_survive_the_scan():
    t = parse_expr("(-0.0,+0)-(0,-0)")
    assert repr(t) == repr(Binary("sub", Lit(-0.0, 0.0), Lit(0.0, -0.0)))


# ---------------------------------------------------------------------------
# the nesting limits, and frames


def _from_depth(frames, f):
    return f() if frames == 0 else _from_depth(frames - 1, f)


def _limit_texts():
    """The chains and nestings at and just past the limit, from
    tests/test_expr.py."""
    srcs = []
    for op in "+-*/":
        srcs += [op.join(["z"] * 201), op.join(["z"] * 202)]
    srcs += ["-" + "+".join(["z"] * 200), "-conj(" + "+".join(["z"] * 200) + ")"]
    src = "z"
    for _ in range(20):
        src = f"({src})" + "+z" * 15
    return srcs + [src]


@pytest.mark.parametrize("src", _limit_texts())
def test_chains_and_nestings_read_the_same_from_300_frames_deep(src):
    want = _outcome(lambda s: _Parser(s).parse(), src)
    assert _from_depth(300, lambda: _outcome(parse_expr, src)) == want
    assert _from_depth(300, lambda: _outcome(lambda s: _Parser(s).parse(), src)) == want


def _nested(opening, n):
    return opening * n + "(1,0)" + (")" * n if opening != "-" else "")


@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_factor_nesting_at_the_limit_reads_with_fewer_frames(opening):
    # 200 levels of factors; the scan takes at most two frames a level
    # where the token parser takes four, so from 300 frames deep it reads
    # the tree the token parser reads from the top
    src = _nested(opening, 199)
    want = _outcome(lambda s: _Parser(s).parse(), src)
    assert want[0] == "tree"
    assert _from_depth(300, lambda: _outcome(parse_expr, src)) == want


@pytest.mark.parametrize("n", [200, 201])
@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_factor_nesting_past_the_limit_is_the_token_parsers_error(opening, n):
    src = _nested(opening, n)
    want = _outcome(lambda s: _Parser(s).parse(), src)
    assert want[0] == "error" and "nested more than 200 levels" in want[2]
    assert _outcome(parse_expr, src) == want


# ---------------------------------------------------------------------------
# the benchmark's texts take the scan


def _count_fallbacks(monkeypatch):
    calls = []

    class Counting(_Parser):
        def __init__(self, src):
            calls.append(src)
            super().__init__(src)

    monkeypatch.setattr(expr, "_Parser", Counting)
    return calls


def test_the_cli_workload_texts_never_fall_back(monkeypatch):
    spec = importlib.util.spec_from_file_location("staralg_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = []
    for _, case in workloads.Cli(5).cases:
        argv = case.argv
        if argv[0] in ("eval", "grid", "invert", "quotient"):
            texts.append(argv[1])
        if "--at" in argv:
            texts.append(argv[argv.index("--at") + 1])
    calls = _count_fallbacks(monkeypatch)
    for text in texts:
        parse_expr(to_text(parse_expr(text)))
    assert len(texts) == 44 and calls == []
    # and the count sees a fallback when there is one
    parse_expr("(٣,0)")
    assert calls == ["(٣,0)"]

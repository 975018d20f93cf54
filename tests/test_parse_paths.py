"""The one parser against the token parser it replaced, kept here as the
reference.

``parse_expr`` scans a text once and builds its tree by precedence
climbing on explicit stacks. The recursive-descent token parser below
reads the same grammar one character class at a time. On any input the
two must give the same tree (signed zeros included) or the same
ParseError, class, message and offset alike.
"""

import importlib.util
import math
import pathlib
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from staralg import Binary, Lit, ParseError, Unary, Var, random_tree, to_text
from staralg.expr import _PRECEDENCE, _SYM_OPS, MAX_NESTING, Node, parse_expr

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
            1.7e308, -1.7e308, 1.7976931348623157e308, 1e22, 0.1, -3.0)
# every ASCII character str.isspace accepts, and one beyond ASCII
SPACES = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "　")
# the grammar's alphabet, words that fail it, and characters beyond
# ASCII: decimal digits of other scripts, a superscript and a fraction
# that float() refuses, letters, and spaces
ALPHABET = tuple("()+-*/,.eE0123456789zi_x ") + (
    "conj(", "norm(", "1e308", "1e309", "5e-324", "-0", "\t", "\x0b", "\x1c",
    "　", "\xa0", " ", "٣", "３", "²", "é", "½", "ｚ", "ǅ",
)
# what one edit puts into a printed tree
EDITS = tuple("()+-*/,.e0123456789zi ") + ("　", "٣", "²", "é", "\x1c")


# ---------------------------------------------------------------------------
# the reference: the token parser, as it stood in staralg.expr


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "sym" | "end"
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "()+-*/,":
            toks.append(_Token("sym", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i) from None
            toks.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect_sym(self, sym: str) -> _Token:
        t = self.next()
        if t.kind != "sym" or t.text != sym:
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(f"expected {sym!r}, got {got}", t.offset)
        return t

    # literal lookahead: after '(' comes [sign] number ','
    def _literal_ahead(self) -> bool:
        k = 1
        t = self.peek(k)
        if t.kind == "sym" and t.text in "+-":
            k += 1
            t = self.peek(k)
        if t.kind != "num":
            return False
        t = self.peek(k + 1)
        return t.kind == "sym" and t.text == ","

    def _signed_number(self) -> float:
        sign = 1.0
        t = self.peek()
        if t.kind == "sym" and t.text in "+-":
            self.next()
            sign = -1.0 if t.text == "-" else 1.0
        t = self.next()
        if t.kind != "num":
            raise ParseError("expected a number", t.offset)
        v = sign * float(t.text)
        if not math.isfinite(v):
            raise ParseError(f"literal component {t.text!r} overflows", t.offset)
        return v

    def parse(self) -> Node:
        node, _ = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r} after the expression", t.offset)
        return node

    # Each method below returns a subtree and its depth in operator nodes.

    def _level(self, depth: int, t: _Token) -> int:
        """depth itself, or ParseError at t past MAX_NESTING."""
        if depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", t.offset
            )
        return depth

    def expr(self, level: int = 0) -> tuple[Node, int]:
        """A left-associative chain of the operators of one precedence
        level, whose operands are the next level's, or factors after the
        last. Each operand is parsed by a direct call, with no wrapper,
        so that a nesting level costs as few Python frames as it can."""
        syms = _PRECEDENCE[level]
        last = level + 1 == len(_PRECEDENCE)
        node, d = self.factor() if last else self.expr(level + 1)
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in syms:
                self.next()
                right, rd = self.factor() if last else self.expr(level + 1)
                node = Binary(_SYM_OPS[t.text], node, right)
                d = self._level(1 + max(d, rd), t)
            else:
                return node, d

    def factor(self) -> tuple[Node, int]:
        t = self.peek()
        # bounds the parser's own recursion, which parentheses deepen
        # without adding tree nodes
        self.depth = self._level(self.depth + 1, t)
        node = self._factor(t)
        self.depth -= 1
        return node

    def _factor(self, t: _Token) -> tuple[Node, int]:
        if t.kind == "sym" and t.text == "(":
            if self._literal_ahead():
                self.next()
                a = self._signed_number()
                self.expect_sym(",")
                b = self._signed_number()
                self.expect_sym(")")
                return Lit(a, b), 0
            self.next()
            node = self.expr()
            self.expect_sym(")")
            return node
        if t.kind == "sym" and t.text == "-":
            self.next()
            child, d = self.factor()
            return Unary("neg", child), self._level(d + 1, t)
        if t.kind == "num":
            self.next()
            if t.text == "1":
                return Lit(1.0, 0.0), 0
            if t.text == "0":
                return Lit(0.0, 0.0), 0
            raise ParseError(
                f"bare number {t.text!r} is not a factor;"
                " write a literal pair like (a, b)",
                t.offset,
            )
        if t.kind == "name":
            self.next()
            if t.text == "z":
                return Var(), 0
            if t.text == "i":
                return Lit(0.0, 1.0), 0
            if t.text in ("conj", "norm"):
                self.expect_sym("(")
                child, d = self.expr()
                self.expect_sym(")")
                return Unary(t.text, child), self._level(d + 1, t)
            raise ParseError(f"unknown name {t.text!r}", t.offset)
        got = repr(t.text) if t.kind != "end" else "end of input"
        raise ParseError(f"expected a factor, got {got}", t.offset)


def _reference(src):
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# the differential


def _outcome(parse, src):
    """repr of the tree, or the error's class, message and offset."""
    try:
        return ("tree", repr(parse(src)))
    except ParseError as e:
        return ("error", type(e), str(e), e.offset)


def _agree(src):
    got = _outcome(parse_expr, src)
    assert got == _outcome(_reference, src), repr(src)
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
    # and with one character inserted, deleted or replaced
    k = rng.randrange(len(text) + 1)
    c = rng.choice(EDITS)
    _agree(text[:k] + c + text[k:])
    _agree(text[:k] + text[k + 1:])
    _agree(text[:k] + c + text[k + 1:])


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
    # a literal where the scanner must not read one token: after conj or
    # norm, whose "(" it is; nested or bad; a part that goes on beyond
    # ASCII, or past the largest float
    "z(1,2)", "(1,(2,3))", "((1,2),3)", "(1..2,0)", "(1e٣,0)", "(1,٣)", "abé",
    "norm (1,2)", "conj\t(1,2)", "(1e309,0)+(1..2,0)", "(12٣,0)", "(1,2٣)",
    "(1.5٣,0)", "(1e5e6,0)", "(1ez,0)", "(1　,2)", "ｚ", "z+ｚ", "(1,2\xa0)",
])
def test_edge_texts_read_the_same(src):
    _agree(src)


def test_signed_zeros_survive_the_scan():
    t = parse_expr("(-0.0,+0)-(0,-0)")
    assert repr(t) == repr(Binary("sub", Lit(-0.0, 0.0), Lit(0.0, -0.0)))


def test_the_cli_workload_texts_read_the_same():
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
    assert len(texts) == 44
    for text in texts:
        assert _agree(text)[0] == "tree"
        _agree(to_text(parse_expr(text)))


# ---------------------------------------------------------------------------
# the nesting limits, and frames


def _from_depth(frames, f):
    return f() if frames == 0 else _from_depth(frames - 1, f)


def _parsed_from_900_frames(src):
    """parse_expr's tree, or its ParseError, from 900 frames down; the
    tree's repr, which recurses, is taken at the top."""
    try:
        return ("tree", repr(_from_depth(900, lambda: parse_expr(src))))
    except ParseError as e:
        return ("error", type(e), str(e), e.offset)


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
    # both parsers, each from 300 frames down; the token parser takes four
    # frames a nesting level, so it cannot go much deeper
    want = _outcome(_reference, src)
    assert _from_depth(300, lambda: _outcome(parse_expr, src)) == want
    assert _from_depth(300, lambda: _outcome(_reference, src)) == want


@pytest.mark.parametrize("src", _limit_texts())
def test_chains_and_nestings_read_the_same_from_900_frames_deep(src):
    assert _parsed_from_900_frames(src) == _outcome(_reference, src)


def _nested(opening, n):
    return opening * n + "(1,0)" + (")" * n if opening != "-" else "")


@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_factor_nesting_at_the_limit_reads_with_fewer_frames(opening):
    # 200 levels of factors; the parser takes no frame per level, so from
    # 900 frames deep it reads the tree the token parser reads from the top
    src = _nested(opening, 199)
    want = _outcome(_reference, src)
    assert want[0] == "tree"
    assert _parsed_from_900_frames(src) == want


@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_factor_nesting_past_the_limit_is_refused_from_900_frames_deep(opening):
    # 201 openings and a literal: a ParseError, not a RecursionError,
    # however deep the caller
    src = _nested(opening, 201)
    want = _outcome(_reference, src)
    assert want[0] == "error" and "nested more than 200 levels" in want[2]
    assert _parsed_from_900_frames(src) == want


@pytest.mark.parametrize("n", [200, 201])
@pytest.mark.parametrize("opening", ["(", "conj(", "-"])
def test_factor_nesting_past_the_limit_is_the_token_parsers_error(opening, n):
    src = _nested(opening, n)
    want = _outcome(_reference, src)
    assert want[0] == "error" and "nested more than 200 levels" in want[2]
    assert _outcome(parse_expr, src) == want

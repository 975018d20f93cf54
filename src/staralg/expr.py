"""Expression trees over the two-coordinate field: parse, print, sample.

The concrete grammar (stable, documented verbatim in the README):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '(' a ',' b ')' | 'z' | 'i' | '1' | '0'
            | 'conj(' expr ')' | 'norm(' expr ')' | '-' factor | '(' expr ')'

A literal ``(a, b)`` gives the two coordinates as classical preimages.
Factors nest at most ``MAX_NESTING`` deep: each parenthesis, ``conj(``,
``norm(`` and unary minus opens one level, which keeps parsing and the
recursive evaluators well inside Python's recursion limit.
``i`` is (0, 1), ``1`` is (1, 0), ``0`` is (0, 0). A leading '(' is a
literal exactly when an optionally signed number followed by a comma
comes next; otherwise it groups a subexpression.

This module knows nothing about generators: trees are pure data, and
``eval_classical`` interprets them over the ordinary complex numbers
(the pullback route). The direct route lives in star_complex.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from .errors import ParseError, StarDivisionError, UnboundVariableError

__all__ = [
    "Lit",
    "Var",
    "Unary",
    "Binary",
    "Node",
    "parse_expr",
    "to_text",
    "eval_classical",
    "random_tree",
    "safe_random_tree",
]


@dataclass(frozen=True)
class Lit:
    """Literal point given by its two preimage coordinates."""

    a: float
    b: float


@dataclass(frozen=True)
class Var:
    """The bound point ``z`` (grid evaluation binds it per grid point)."""

    name: str = "z"


@dataclass(frozen=True)
class Unary:
    op: str  # "conj" | "norm" | "neg"
    child: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Node"
    right: "Node"


Node = Union[Lit, Var, Unary, Binary]

_SYM_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

MAX_NESTING = 200


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
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


# ---------------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    def __init__(self, src: str):
        self.src = src
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
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r} after the expression", t.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "+-":
                self.next()
                node = Binary(_SYM_OPS[t.text], node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "*/":
                self.next()
                node = Binary(_SYM_OPS[t.text], node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", t.offset
            )
        node = self._factor(t)
        self.depth -= 1
        return node

    def _factor(self, t: _Token) -> Node:
        if t.kind == "sym" and t.text == "(":
            if self._literal_ahead():
                self.next()
                a = self._signed_number()
                self.expect_sym(",")
                b = self._signed_number()
                self.expect_sym(")")
                return Lit(a, b)
            self.next()
            node = self.expr()
            self.expect_sym(")")
            return node
        if t.kind == "sym" and t.text == "-":
            self.next()
            return Unary("neg", self.factor())
        if t.kind == "num":
            self.next()
            if t.text == "1":
                return Lit(1.0, 0.0)
            if t.text == "0":
                return Lit(0.0, 0.0)
            raise ParseError(
                f"bare number {t.text!r} is not a factor;"
                " write a literal pair like (a, b)",
                t.offset,
            )
        if t.kind == "name":
            self.next()
            if t.text == "z":
                return Var()
            if t.text == "i":
                return Lit(0.0, 1.0)
            if t.text in ("conj", "norm"):
                self.expect_sym("(")
                node = self.expr()
                self.expect_sym(")")
                return Unary(t.text, node)
            raise ParseError(f"unknown name {t.text!r}", t.offset)
        got = repr(t.text) if t.kind != "end" else "end of input"
        raise ParseError(f"expected a factor, got {got}", t.offset)


def parse_expr(src: str) -> Node:
    """Parse the grammar above into a tree; raises ParseError with offset."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# printer

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_SYMS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _fmt(x: float) -> str:
    return repr(x)


def to_text(node: Node) -> str:
    """Render a tree back to the grammar; parse(to_text(t)) == t."""
    if isinstance(node, Lit):
        return f"({_fmt(node.a)},{_fmt(node.b)})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_text(node.child)
            if isinstance(node.child, Binary):
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_text(node.child)})"
    p = _PREC[node.op]
    left = to_text(node.left)
    if isinstance(node.left, Binary) and _PREC[node.left.op] < p:
        left = f"({left})"
    right = to_text(node.right)
    # the grammar is left-associative, so an equal-precedence right child
    # needs parentheses to survive a round trip
    if isinstance(node.right, Binary) and _PREC[node.right.op] <= p:
        right = f"({right})"
    return f"{left}{_SYMS[node.op]}{right}"


# ---------------------------------------------------------------------------
# classical interpretation (the pullback route)


def eval_classical(node: Node, z: complex | None = None) -> complex:
    """Evaluate the tree over the ordinary complex numbers.

    ``norm`` maps to the classical modulus (as a real-axis value). The
    variable must be bound when the tree mentions z.
    """
    if isinstance(node, Lit):
        return complex(node.a, node.b)
    if isinstance(node, Var):
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z
    if isinstance(node, Unary):
        v = eval_classical(node.child, z)
        if node.op == "conj":
            return v.conjugate()
        if node.op == "neg":
            return -v
        return complex(abs(v), 0.0)
    left = eval_classical(node.left, z)
    right = eval_classical(node.right, z)
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        return left * right
    if right == 0:
        raise StarDivisionError("division by zero")
    return left / right


# ---------------------------------------------------------------------------
# samplers

_BIN_OPS = ("add", "sub", "mul", "div")
_UN_OPS = ("conj", "norm", "neg")


def random_tree(
    rng: random.Random, max_depth: int, allow_z: bool = False
) -> Node:
    """An unconstrained random tree; may blow up when evaluated."""
    if max_depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if allow_z and r < 0.2:
            return Var()
        if r < 0.3:
            return rng.choice((Lit(0.0, 0.0), Lit(1.0, 0.0), Lit(0.0, 1.0)))
        return Lit(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    if rng.random() < 0.25:
        return Unary(rng.choice(_UN_OPS), random_tree(rng, max_depth - 1, allow_z))
    op = rng.choice(_BIN_OPS)
    return Binary(
        op,
        random_tree(rng, max_depth - 1, allow_z),
        random_tree(rng, max_depth - 1, allow_z),
    )


def safe_random_tree(
    rng: random.Random,
    max_depth: int,
    allow_z: bool = False,
    z_value: complex = 0j,
    bound: float = 50.0,
    min_denom: float = 0.1,
) -> Node:
    """A random tree whose every subtree stays classically representable.

    Each subtree's classical value is kept within ``bound`` in modulus and
    denominators are kept at least ``min_denom`` away from zero, so the
    tree evaluates without overflow on every built-in generator pair
    (images of preimages up to ~50 are safe even under exp). Rejection
    with bounded retries; falls back to a fresh leaf.
    """

    def leaf() -> tuple[Node, complex]:
        r = rng.random()
        if allow_z and r < 0.15:
            return Var(), z_value
        if r < 0.25:
            node = rng.choice((Lit(0.0, 0.0), Lit(1.0, 0.0), Lit(0.0, 1.0)))
            return node, complex(node.a, node.b)
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        return Lit(a, b), complex(a, b)

    def build(depth: int) -> tuple[Node, complex]:
        if depth <= 0 or rng.random() < 0.2:
            return leaf()
        if rng.random() < 0.25:
            op = rng.choice(_UN_OPS)
            child, v = build(depth - 1)
            if op == "conj":
                return Unary(op, child), v.conjugate()
            if op == "neg":
                return Unary(op, child), -v
            return Unary(op, child), complex(abs(v), 0.0)
        op = rng.choice(_BIN_OPS)
        for _ in range(20):
            left, lv = build(depth - 1)
            right, rv = build(depth - 1)
            if op == "add":
                v = lv + rv
            elif op == "sub":
                v = lv - rv
            elif op == "mul":
                v = lv * rv
            else:
                if abs(rv) < min_denom:
                    continue
                v = lv / rv
            if abs(v) <= bound:
                return Binary(op, left, right), v
        return leaf()

    node, _ = build(max_depth)
    return node

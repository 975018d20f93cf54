"""Expression trees over the two-coordinate field: parse, print, sample.

The concrete grammar (stable, documented verbatim in the README):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '(' a ',' b ')' | 'z' | 'i' | '1' | '0'
            | 'conj(' expr ')' | 'norm(' expr ')' | '-' factor | '(' expr ')'

A literal ``(a, b)`` gives the two coordinates as classical preimages.
Expressions nest at most ``MAX_NESTING`` levels deep, counted two ways.
Each parenthesis, ``conj(``, ``norm(`` and unary minus opens one level
of factors, which keeps the parser's recursion well inside Python's
recursion limit. Each operator node adds one level to the tree, chained
``+ - * /`` included. The printer and ``fold`` walk a tree without
recursion, so they take trees built in code of any depth; the tree
limit stays as the contract for parsed input, and bounds the one
reading that recurses, the compiled one below.
``i`` is (0, 1), ``1`` is (1, 0), ``0`` is (0, 0). A leading '(' is a
literal exactly when an optionally signed number followed by a comma
comes next; otherwise it groups a subexpression.

``parse_expr`` reads a well-formed ASCII text in one regex scan, a whole
literal ``(a, b)`` as one token, and builds the tree by a recursive
descent over that token list. Any other input (text beyond ASCII, whose
digits and spaces only ``str`` knows, or any text with an error) goes
to the token parser, which owns every error: a refused text raises its
ParseError, message and offset, and a read one gives the same tree.

This module knows nothing about generators: trees are pure data.
``fold`` is the one walk over a tree, iterative and in post-order; each
reading of a tree is a leaf function plus a table of ops over it. The
printer ``to_text`` is one, ``eval_classical`` over the ordinary complex
numbers (the pullback route) is another, and the direct route lives in
star_complex. Node ``==`` and ``hash`` compare the same post-orders.

Both routes read a tree at a point z through ``read_at``. With z bound,
the tree is folded once into one function of z for that op table (its
literals read once, its subtrees without z evaluated once), kept for the
last (tree, op table) and called at each point of a grid. The fold
itself reads a tree once: for an unbound z, for a tree deeper than
``MAX_NESTING`` levels, and again at a point that raises a StarError,
so that the error names its subterm exactly as the fold does.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Union

from .errors import (
    ParseError,
    StarDivisionError,
    StarError,
    StarUnderflowError,
    UnboundVariableError,
)

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


def _key(node: Node) -> tuple:
    # a post-order with each op tagged by its arity fixes the tree
    return tuple((arity, n.op) if arity else n for arity, n in _post_order(node))


def _node_eq(self: Node, other: Any) -> Any:
    """The dataclass ``==`` (same type, fields equal one by one, so
    0.0 == -0.0), read off the post-orders instead of recursing."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or _key(self) == _key(other)


def _node_hash(self: Node) -> int:
    return hash(_key(self))


@dataclass(frozen=True)
class Unary:
    op: str  # "conj" | "norm" | "neg"
    child: "Node"

    __eq__ = _node_eq
    __hash__ = _node_hash


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Node"
    right: "Node"

    __eq__ = _node_eq
    __hash__ = _node_hash


Node = Union[Lit, Var, Unary, Binary]

_SYM_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
# the binary operators by precedence level, loosest first
_PRECEDENCE = ("+-", "*/")

MAX_NESTING = 200


# ---------------------------------------------------------------------------
# tokenizer


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


# ---------------------------------------------------------------------------
# recursive-descent parser


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


# ---------------------------------------------------------------------------
# the fast path: a well-formed ASCII text in one scan

_NUM = r"[0-9.]+(?:[eE][+-]?[0-9]+)?"
# one token and the whitespace around it: a whole literal (groups 1-4:
# sign, number, sign, number), a symbol (5), a number (6) or a name (7).
# On ASCII text these are the tokenizer's classes, \s included.
_TOKEN = re.compile(
    rf"\s*(?:\(\s*([+-]?)\s*({_NUM})\s*,\s*([+-]?)\s*({_NUM})\s*\)"
    rf"|([()+\-*/])|({_NUM})|([A-Za-z_][A-Za-z0-9_]*))\s*"
)


class _Slow(Exception):
    """The text is not for the fast path: the token parser reads it."""


def _scan(src: str) -> list[Any]:
    """The text as a flat token list ending in "": a leaf as its node, a
    symbol or ``conj``/``norm`` as its text. _Slow on any text the token
    parser would refuse here; ValueError on a bad number."""
    toks: list[Any] = []
    match, pos, n = _TOKEN.match, 0, len(src)
    while pos < n:
        m = match(src, pos)
        if m is None:
            raise _Slow
        pos = m.end()
        kind = m.lastindex
        if kind == 4:
            a, b = float(m[2]), float(m[4])
            if not (math.isfinite(a) and math.isfinite(b)):
                raise _Slow
            toks.append(Lit(-a if m[1] == "-" else a, -b if m[3] == "-" else b))
        elif kind == 5:
            toks.append(m[5])
        else:
            t = m[kind]
            if t == "z":
                toks.append(Var())
            elif t == "i":
                toks.append(Lit(0.0, 1.0))
            elif t == "1":
                toks.append(Lit(1.0, 0.0))
            elif t == "0":
                toks.append(Lit(0.0, 0.0))
            elif t == "conj" or t == "norm":
                toks.append(t)
            else:  # a bare number or an unknown name
                raise _Slow
    toks.append("")
    return toks


def _read(src: str) -> Node:
    """The tree of a well-formed ASCII text, by recursive descent over
    ``_scan``'s tokens with both nesting limits; _Slow (or ValueError)
    where the token parser would raise. A nesting level costs at most
    two frames here, against the token parser's four."""
    toks = _scan(src)
    pos = 0

    def expr(nest: int) -> tuple[Node, int]:
        # terms joined by + and -, each term factors joined by * and /,
        # both left-associative; returns the subtree and its depth in
        # operator nodes
        nonlocal pos
        left = None
        while True:
            node, d = factor(nest + 1)
            while (t := toks[pos]) == "*" or t == "/":
                pos += 1
                right, rd = factor(nest + 1)
                node, d = Binary(_SYM_OPS[t], node, right), 1 + max(d, rd)
            if left is not None:
                node, d = Binary(op, left, node), 1 + max(ld, d)
            if t != "+" and t != "-":
                return node, d
            pos += 1
            op, left, ld = _SYM_OPS[t], node, d

    def factor(nest: int) -> tuple[Node, int]:
        nonlocal pos
        if nest > MAX_NESTING:
            raise _Slow
        t = toks[pos]
        pos += 1
        if t.__class__ is not str:
            return t, 0
        if t == "(":
            node, d = expr(nest)
        elif t == "-":
            child, d = factor(nest + 1)
            return Unary("neg", child), d + 1
        elif t in ("conj", "norm") and toks[pos] == "(":
            pos += 1
            child, d = expr(nest)
            node, d = Unary(t, child), d + 1
        else:
            raise _Slow
        if toks[pos] != ")":
            raise _Slow
        pos += 1
        return node, d

    node, depth = expr(0)
    # the tree's depth bounds that of every subtree
    if pos != len(toks) - 1 or depth > MAX_NESTING:
        raise _Slow
    return node


def parse_expr(src: str) -> Node:
    """Parse the grammar above into a tree; raises ParseError with offset.

    A well-formed ASCII text is read in one scan; any other text goes to
    the token parser, which owns every error."""
    if src.isascii():
        try:
            return _read(src)
        except (_Slow, ValueError):
            pass
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# the one tree walk, and the printer as one reading of it

def _post_order(node: Node) -> list[tuple[int, Node]]:
    """The nodes of a tree in post-order, each as (arity, node), with
    arity 0 for a leaf; found on an explicit stack."""
    order, todo = [], [node]
    while todo:  # node, right subtree, left subtree: post-order reversed
        n = todo.pop()
        if isinstance(n, Binary):
            order.append((2, n))
            todo += (n.left, n.right)
        elif isinstance(n, Unary):
            order.append((1, n))
            todo.append(n.child)
        else:
            order.append((0, n))
    order.reverse()
    return order


def fold(node: Node, leaf: Callable[[Node], Any], ops: dict[str, Callable]) -> Any:
    """Fold a tree bottom-up along its post-order: ``leaf(n)`` is the value
    of a Lit or Var, and ``ops[n.op]`` maps a node's child values to its
    own. A StarError without a subterm gets the text of the node that
    raised, the first failing node in post-order."""
    vals: list[Any] = []
    try:
        for arity, n in _post_order(node):
            if not arity:
                vals.append(leaf(n))
            elif arity == 2:
                right = vals.pop()
                vals[-1] = ops[n.op](vals[-1], right)
            else:
                vals[-1] = ops[n.op](vals[-1])
    except StarError as e:
        if e.subterm is None:
            e.subterm = to_text(n)
        raise
    return vals[0]


# printer values are (pieces, precedence); leaves and unary nodes bind
# tightest, at 3. Pieces are a string or a tuple of pieces, joined once
# at the end: copying child text into each parent is quadratic in depth.
def _paren(v: tuple[Any, int], prec: int) -> Any:
    return v[0] if v[1] >= prec else ("(", v[0], ")")


def _infix(sym: str, prec: int) -> Callable:
    # the grammar is left-associative, so an equal-precedence right child
    # needs parentheses to survive a round trip
    return lambda a, b: ((_paren(a, prec), sym, _paren(b, prec + 1)), prec)


_TEXT_OPS = {
    "add": _infix("+", 1),
    "sub": _infix("-", 1),
    "mul": _infix("*", 2),
    "div": _infix("/", 2),
    "neg": lambda v: (("-", _paren(v, 3)), 3),
    "conj": lambda v: (("conj(", v[0], ")"), 3),
    "norm": lambda v: (("norm(", v[0], ")"), 3),
}


def _text_leaf(n: Node) -> tuple[str, int]:
    return (f"({n.a!r},{n.b!r})" if isinstance(n, Lit) else n.name), 3


def _join(pieces: Any) -> str:
    out, todo = [], [pieces]
    while todo:
        p = todo.pop()
        if type(p) is str:
            out.append(p)
        else:
            todo += reversed(p)
    return "".join(out)


def to_text(node: Node) -> str:
    """Render a tree back to the grammar; parse(to_text(t)) == t."""
    return _join(fold(node, _text_leaf, _TEXT_OPS)[0])


# ---------------------------------------------------------------------------
# a tree read at many points: one compiled reading per (tree, op table)

# A compiled subtree is read by its parent as a constant ("c"), as z
# itself ("z") or as a function of z ("f"). A node with a child that is
# not a constant becomes a function of z, made by the entry for how it
# reads its children, left to right; it calls them in that order, then
# its op, as the fold does.
_CLOSURES: dict[str, Callable] = {
    "z": lambda op, _: op,
    "f": lambda op, f: lambda z: op(f(z)),
    "cz": lambda op, a, _: lambda z: op(a, z),
    "cf": lambda op, a, g: lambda z: op(a, g(z)),
    "zc": lambda op, _, b: lambda z: op(z, b),
    "zz": lambda op, _a, _b: lambda z: op(z, z),
    "zf": lambda op, _, g: lambda z: op(z, g(z)),
    "fc": lambda op, f, b: lambda z: op(f(z), b),
    "fz": lambda op, f, _: lambda z: op(f(z), z),
    "ff": lambda op, f, g: lambda z: op(f(z), g(z)),
}


def _compile(
    node: Node, lit: Callable[[Lit], Any], ops: dict[str, Callable]
) -> Callable[[Any], Any] | None:
    """The tree as one function of z, folded once along its post-order:
    each literal is read once by ``lit``, and each subtree without z is
    evaluated once. None for a tree more than MAX_NESTING operator levels
    deep, since the nested functions recurse once per level."""
    stack: list[tuple[str, Any, int]] = []  # (how, value, depth)
    for arity, n in _post_order(node):
        if not arity:
            stack.append(("c", lit(n), 0) if isinstance(n, Lit) else ("z", None, 0))
            continue
        kids = stack[-arity:]
        del stack[-arity:]
        depth = 1 + max(d for _, _, d in kids)
        if depth > MAX_NESTING:
            return None
        how = "".join(h for h, _, _ in kids)
        args = [v for _, v, _ in kids]
        if how == "c" * arity:
            stack.append(("c", ops[n.op](*args), depth))
        else:
            stack.append(("f", _CLOSURES[how](ops[n.op], *args), depth))
    how, v, _ = stack[0]
    if how == "f":
        return v
    return (lambda z: z) if how == "z" else (lambda z: v)


# the last compiled reading, as (tree, op table, reading or None); the
# slot holds both keys alive, so ``is`` on them is an exact test
_compiled: tuple[Any, Any, Callable | None] = (None, None, None)


def read_at(
    node: Node, lit: Callable[[Lit], Any], ops: dict[str, Callable], z: Any
) -> Any:
    """The tree's value at z, under the reading whose literals are
    ``lit(n)`` and whose ops are ``ops``, the table ``fold`` takes.

    With z bound, this is the tree's compiled reading, kept for the last
    (tree, op table) since per-point callers read one tree at many
    points; the op table stands for the whole reading, ``lit`` included.
    With z unbound, for a tree too deep to compile, and again on any
    StarError, it is the annotating ``fold``, so that an error's class,
    message and subterm are the fold's.
    """
    global _compiled
    if z is not None:
        tree, table, run = _compiled
        if tree is not node or table is not ops:
            try:
                run = _compile(node, lit, ops)
            except StarError:
                # a literal or a subtree without z is refused: the fold
                # raises at every point, and names the subterm
                run = None
            _compiled = (node, ops, run)
        if run is not None:
            try:
                return run(z)
            except StarError:
                pass

    def leaf(n: Node) -> Any:
        if isinstance(n, Lit):
            return lit(n)
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z

    return fold(node, leaf, ops)


# ---------------------------------------------------------------------------
# classical interpretation (the pullback route)


def _refuse_zero_product(v: complex, w: complex) -> None:
    """Called with a product v * w that came out zero: StarUnderflowError
    when v and w are both nonzero, since the field has no zero divisors.
    The one product rule, under both routes' multiplication and c_mul."""
    if v and w:
        raise StarUnderflowError("the product of nonzero points underflows to zero")


def _classical_mul(left: complex, right: complex) -> complex:
    q = left * right
    if not q:
        _refuse_zero_product(left, right)
    return q


def _ldexp(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _rescaled_quotient(v: complex, w: complex, q: complex) -> complex:
    """Called with a quotient q = v / w by a nonzero w that came out zero,
    NaN or infinite; the one retry and underflow rule under both routes'
    division.

    Complex division overflows or underflows an intermediate at the ends
    of the float range, though the quotient may be representable. So, for
    a nonzero v and a finite w, divide again with v and w each scaled by a
    power of two that puts its larger part in [0.5, 1), and scale the
    parts back; each scaling is exact up to a part far below the larger.
    A finite nonzero retry is kept. Otherwise q stands, and a q of zero
    raises StarUnderflowError, since the exact quotient is nonzero."""
    if v and cmath.isfinite(v) and cmath.isfinite(w):
        kv = math.frexp(max(abs(v.real), abs(v.imag)))[1]
        kw = math.frexp(max(abs(w.real), abs(w.imag)))[1]
        try:
            r = _ldexp(_ldexp(v, -kv) / _ldexp(w, -kw), kv - kw)
        except OverflowError:  # the quotient is past the largest float
            r = 0j
        if r:
            return r
        if not q:
            raise StarUnderflowError("the quotient of a nonzero point underflows to zero")
    return q


def _classical_div(left: complex, right: complex) -> complex:
    if right == 0:
        raise StarDivisionError("division by zero")
    q = left / right
    if q and cmath.isfinite(q):
        return q
    return _rescaled_quotient(left, right, q)


def _classical_norm(v: complex) -> complex:
    """The modulus on the real axis. abs() raises once the modulus passes
    the largest float; that is math.hypot's inf, which the final guard
    refuses."""
    try:
        return complex(abs(v), 0.0)
    except OverflowError:
        return complex(math.inf, 0.0)


_CLASSICAL_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": _classical_mul,
    "div": _classical_div,
    "neg": operator.neg,
    "conj": complex.conjugate,
    "norm": _classical_norm,
}


def _classical_lit(n: Lit) -> complex:
    return complex(n.a, n.b)


def eval_classical(node: Node, z: complex | None = None) -> complex:
    """Evaluate the tree over the ordinary complex numbers.

    ``norm`` maps to the classical modulus (as a real-axis value). The
    variable must be bound when the tree mentions z.
    """
    return read_at(node, _classical_lit, _CLASSICAL_OPS, z)


# ---------------------------------------------------------------------------
# samplers

# the default bound on drawn preimage components, shared by every sampler
_DRAW_BOUND = 3.0

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
        return Lit(
            rng.uniform(-_DRAW_BOUND, _DRAW_BOUND),
            rng.uniform(-_DRAW_BOUND, _DRAW_BOUND),
        )
    if rng.random() < 0.25:
        return Unary(rng.choice(_UN_OPS), random_tree(rng, max_depth - 1, allow_z))
    op = rng.choice(_BIN_OPS)
    return Binary(
        op,
        random_tree(rng, max_depth - 1, allow_z),
        random_tree(rng, max_depth - 1, allow_z),
    )


# the modulus every subtree of a safe random tree keeps at z = 0
_SAFE_BOUND = 50.0


def safe_random_tree(
    rng: random.Random, max_depth: int, allow_z: bool = False
) -> Node:
    """A random tree whose every subtree stays classically representable.

    Each subtree's classical value at z = 0 is kept within 50 in
    modulus and denominators are kept at least 0.1 away from zero, so the
    tree evaluates without overflow on every built-in generator pair
    (images of preimages up to ~50 are safe even under exp). Rejection
    with bounded retries; falls back to a fresh leaf.
    """

    def leaf() -> Node:
        r = rng.random()
        if allow_z and r < 0.15:
            return Var()
        if r < 0.25:
            return rng.choice((Lit(0.0, 0.0), Lit(1.0, 0.0), Lit(0.0, 1.0)))
        return Lit(
            rng.uniform(-_DRAW_BOUND, _DRAW_BOUND),
            rng.uniform(-_DRAW_BOUND, _DRAW_BOUND),
        )

    def build(depth: int) -> Node:
        if depth <= 0 or rng.random() < 0.2:
            return leaf()
        if rng.random() < 0.25:
            return Unary(rng.choice(_UN_OPS), build(depth - 1))
        op = rng.choice(_BIN_OPS)
        for _ in range(20):
            left, right = build(depth - 1), build(depth - 1)
            if op == "div" and abs(eval_classical(right, 0j)) < 0.1:
                continue
            node = Binary(op, left, right)
            if abs(eval_classical(node, 0j)) <= _SAFE_BOUND:
                return node
        return leaf()

    return build(max_depth)

"""Expression trees over the two-coordinate field: parse, print, sample.

The concrete grammar (stable, documented verbatim in the README):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '(' a ',' b ')' | 'z' | 'i' | '1' | '0'
            | 'conj(' expr ')' | 'norm(' expr ')' | '-' factor | '(' expr ')'

A literal ``(a, b)`` gives the two coordinates as classical preimages.
Expressions nest at most ``MAX_NESTING`` levels deep, counted two ways.
Each parenthesis, ``conj(``, ``norm(`` and unary minus opens one level
of factors. Each operator node adds one level to the tree, chained
``+ - * /`` included. The parser, the printer and ``fold`` work on
explicit stacks, so none of them recurses however deep the caller is,
and the printer and ``fold`` take trees built in code of any depth; the
limits stay as the contract for parsed input, and the tree limit bounds
the one reading that recurses, the compiled one below.
``i`` is (0, 1), ``1`` is (1, 0), ``0`` is (0, 0). A leading '(' is a
literal exactly when an optionally signed number followed by a comma
comes next; otherwise it groups a subexpression.

``parse_expr`` is one scanner and one parser. The scanner reads the
whole text first, so a bad number or an unexpected character is refused
before any syntax error: a regex reads ASCII runs, a whole literal
``(a, b)`` as one token, and ``str``'s own classes (``isspace``,
``isdigit``, ``isalpha``, ``isalnum``) read any other character, so
that ``(٣,0)`` is a literal and U+3000 a space. The parser climbs
precedence over the token list and raises every ParseError, message and
offset.

This module knows nothing about generators: trees are pure data.
``fold`` is the one walk over a tree, iterative and in post-order; each
reading of a tree is a leaf function plus a table of ops over it. The
printer ``to_text`` is one, ``eval_classical`` over the ordinary complex
numbers (the pullback route) is another, and the direct route lives in
star_complex. Node ``==`` and ``hash`` compare the same post-orders.

The field's two rounding rules live here, ``_product`` and ``_divide``,
under both routes and star_complex's ``c_mul`` and ``c_div``: each
computes its result, decides whether the rule fires and refuses.

Both routes read a tree at a point z through ``read_at``. With z bound,
the tree is folded once into one function of z for that op table (its
literals read once, its subtrees without z evaluated once), kept for the
last (tree, op table) and called at each point of a grid. The fold
itself reads a tree once: for an unbound z, for a tree deeper than
``MAX_NESTING`` levels, and again at a point that raises a StarError,
so that the error names its subterm exactly as the fold does, or a
RecursionError, from a caller deep in the stack.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Union

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
# the scanner

_NUM = r"[0-9.]+(?:[eE][+-]?[0-9]+)?"
# one token and the whitespace after it: a whole literal (group 1, with
# sign, number, sign, number in groups 2-5), a symbol (6), a number (7)
# or a name (8). On every code point \s is str.isspace and \w is
# str.isalnum or "_", but \d is not str.isdigit: a number that starts or
# goes on beyond ASCII is left to the str rules. So a number alone must
# not be followed by a digit, a point, an exponent or a character beyond
# ASCII, which also keeps it from backtracking to a shorter match; in a
# literal only whitespace, "," or ")" can follow it.
_TOKEN = re.compile(
    rf"(?:(\(\s*([+-]?)\s*({_NUM})\s*,\s*([+-]?)\s*({_NUM})\s*\))|([()+\-*/,])"
    rf"|({_NUM}(?![0-9.]|[^\x00-\x7f]|[eE][+-]?(?:[0-9]|[^\x00-\x7f])))"
    rf"|([A-Za-z_]\w*))\s*"
)
_CALLS = ("conj", "norm")


def _str_token(src: str, i: int) -> tuple[int, int]:
    """The number (group 7) or name (8) at src[i] by the str rules, and
    the offset past it; ParseError on any other character."""
    c, j, n = src[i], i, len(src)
    if c.isdigit() or c == ".":
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
        return 7, j
    if c.isalpha() or c == "_":
        while j < n and (src[j].isalnum() or src[j] == "_"):
            j += 1
        return 8, j
    raise ParseError(f"unexpected character {c!r}", i)


_Lexeme = tuple[str, Any, int]


def _lex(src: str) -> list[_Lexeme]:
    """The whole text as (kind, text, offset) tokens, so that a bad
    number or an unexpected character is refused before any syntax
    error. A kind is the symbol itself, "num", "name", "lit" or "end",
    and the list ends in two "end" tokens. A literal ``(a, b)`` with
    finite parts is one "lit" token, its Lit in place of its text, at the
    offset of its "("; the "(" right after ``conj`` or ``norm`` is theirs,
    and is read alone."""
    toks: list[_Lexeme] = []
    append, match, pos, n = toks.append, _TOKEN.match, 0, len(src)
    while pos < n:
        m = match(src, pos)
        if m is None:
            if src[pos].isspace():
                pos += 1
                continue
            i = pos
            kind, pos = _str_token(src, i)
            text = src[i:pos]
        else:
            i, pos, kind = pos, m.end(), m.lastindex
            if kind == 1:
                try:
                    a, b = float(m[3]), float(m[5])
                except ValueError:  # refused below, as a bad number
                    a = b = math.inf
                if math.isfinite(a) and math.isfinite(b):
                    lit = Lit(-a if m[2] == "-" else a, -b if m[4] == "-" else b)
                    append(("lit", lit, i))
                else:  # its "(" alone, and the rest token by token
                    append(("(", "(", i))
                    pos = i + 1
                continue
            text = m[kind]
        if kind == 6:
            append((text, text, i))
        elif kind == 7:
            try:
                float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i) from None
            append(("num", text, i))
        else:
            append(("name", text, i))
            # conj and norm are the regex's, which reads the whitespace
            # after them too, so their "(" is at pos
            if text in _CALLS and src.startswith("(", pos):
                append(("(", "(", pos))
                pos += 1
    toks += [("end", "", n)] * 2
    return toks


# ---------------------------------------------------------------------------
# the parser

# each binary operator's precedence level, the index of its group
_LEVEL = {sym: level for level, syms in enumerate(_PRECEDENCE) for sym in syms}


def _got(tok: _Lexeme) -> str:
    kind, text, _ = tok
    return "end of input" if kind == "end" else repr("(" if kind == "lit" else text)


def _expect(tok: _Lexeme, sym: str) -> None:
    if tok[0] != sym:
        raise ParseError(f"expected {sym!r}, got {_got(tok)}", tok[2])


def _too_deep(offset: int) -> ParseError:
    return ParseError(f"expression nested more than {MAX_NESTING} levels deep", offset)


def _component(toks: list[_Lexeme], pos: int) -> tuple[float, int]:
    """The optionally signed number at toks[pos], and the position past it."""
    kind, text, offset = toks[pos]
    sign = 1.0
    if kind == "+" or kind == "-":
        sign = -1.0 if kind == "-" else 1.0
        pos += 1
        kind, text, offset = toks[pos]
    if kind != "num":
        raise ParseError("expected a number", offset)
    v = sign * float(text)
    if not math.isfinite(v):
        raise ParseError(f"literal component {text!r} overflows", offset)
    return v, pos + 1


def _parse(toks: list[_Lexeme]) -> Node:
    """The tree of a scanned text, by precedence climbing on explicit
    stacks, with no Python frame per nesting level.

    ``opened`` holds the factors still open, innermost last: a group, a
    ``conj(`` or ``norm(``, each with the chain it interrupts, and a unary
    minus. ``chain`` holds the current expression's operands still
    waiting for their right side, with their operators. Both limits are
    checked at the tokens a recursive descent would check them at: the
    factor count at each factor's first token, a tree depth at the
    operator, minus, ``conj`` or ``norm`` token of the node built."""
    limit, level_of = MAX_NESTING, _LEVEL.get
    opened: list[tuple[str, int, list]] = []
    chain: list[tuple[Node, int, int, str, int]] = []  # left, depth, level, op, offset
    pos = 0
    while True:
        # a factor starts at toks[pos]
        kind, text, offset = toks[pos]
        if len(opened) >= limit:
            raise _too_deep(offset)
        pos += 1
        if kind == "lit":
            node = text
        elif kind == "name":
            if text == "z":
                node = Var()
            elif text == "i":
                node = Lit(0.0, 1.0)
            elif text in _CALLS:
                _expect(toks[pos], "(")
                pos += 1
                opened.append((text, offset, chain))
                chain = []
                continue
            else:
                raise ParseError(f"unknown name {text!r}", offset)
        elif kind == "(":
            # a literal exactly when an optionally signed number and a
            # comma come next
            j = pos + 1 if toks[pos][0] in ("+", "-") else pos
            if toks[j][0] != "num" or toks[j + 1][0] != ",":
                opened.append(("(", offset, chain))
                chain = []
                continue
            a, pos = _component(toks, pos)
            b, pos = _component(toks, pos + 1)
            _expect(toks[pos], ")")
            pos += 1
            node = Lit(a, b)
        elif kind == "-":
            opened.append(("neg", offset, chain))
            continue
        elif kind == "num" and (text == "1" or text == "0"):
            node = Lit(1.0 if text == "1" else 0.0, 0.0)
        elif kind == "num":
            raise ParseError(
                f"bare number {text!r} is not a factor;"
                " write a literal pair like (a, b)",
                offset,
            )
        else:
            raise ParseError(f"expected a factor, got {_got(toks[pos - 1])}", offset)
        depth = 0
        # the factor is read: close what it completes
        while True:
            while opened and opened[-1][0] == "neg":
                node, depth = Unary("neg", node), depth + 1
                if depth > limit:
                    raise _too_deep(opened[-1][1])
                opened.pop()
            kind, text, offset = toks[pos]
            level = level_of(kind)
            while chain and (level is None or chain[-1][2] >= level):
                left, left_depth, _, op, op_offset = chain.pop()
                node, depth = Binary(op, left, node), 1 + max(left_depth, depth)
                if depth > limit:
                    raise _too_deep(op_offset)
            if level is not None:
                chain.append((node, depth, level, _SYM_OPS[kind], offset))
                pos += 1
                break
            if not opened:
                if kind != "end":
                    got = _got(toks[pos])
                    raise ParseError(f"unexpected {got} after the expression", offset)
                return node
            _expect(toks[pos], ")")
            pos += 1
            call, call_offset, chain = opened.pop()
            if call != "(":
                node, depth = Unary(call, node), depth + 1
                if depth > limit:
                    raise _too_deep(call_offset)


def parse_expr(src: str) -> Node:
    """Parse the grammar above into a tree; raises ParseError with offset."""
    return _parse(_lex(src))


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
    message and subterm are the fold's. A compiled reading that runs out
    of stack, since it takes one frame per tree level, is also folded.
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
            except (StarError, RecursionError):
                # the fold names a refused subterm and takes no frame
                # per tree level
                pass

    def leaf(n: Node) -> Any:
        if isinstance(n, Lit):
            return lit(n)
        if z is None:
            raise UnboundVariableError("z is not bound in this context")
        return z

    return fold(node, leaf, ops)


# ---------------------------------------------------------------------------
# the field's two rounding rules, under both routes and c_mul, c_div


def _product(v: complex, w: complex) -> complex:
    """v * w: the field's one product rule, under c_mul, both routes'
    mul and the grid products. A product of nonzero points that rounds to
    zero raises StarUnderflowError, since the field has no zero divisors."""
    q = v * w
    if not q and v and w:
        raise StarUnderflowError("the product of nonzero points underflows to zero")
    return q


def _ldexp(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


# an operand whose parts are both below this is divided on rescaled operands
_MIN_NORMAL = sys.float_info.min


def _divide(v: complex, w: complex) -> complex:
    """v / w by a nonzero w: the field's one quotient rule, under c_div
    and both routes' div, each of which refuses a zero w in its own words.

    Complex division overflows or underflows an intermediate at the ends
    of the float range, though the quotient may be representable, and
    with an operand whose parts are both subnormal it rounds a subnormal
    intermediate: the plain quotient of (0, 8.371095235526037e-65) by
    (5e-324, 2e-323) is 6% off, and that of (1e-323, 5e-324) by
    (-2.2185844075217563e-278, -9.475570601166854e-277) 4.5%. So the
    plain quotient is kept only when it is finite and nonzero and v and w
    each have a part at least _MIN_NORMAL. Otherwise, for a nonzero v and
    a finite w, divide again with v and w each scaled by a power of two
    that puts its larger part in [0.5, 1), and scale the parts back; each
    scaling is exact up to a part far below the larger. A finite nonzero
    retry is kept. Otherwise the plain quotient stands, and a plain
    quotient of zero raises StarUnderflowError, since the exact quotient
    is nonzero."""
    q = v / w
    if q and cmath.isfinite(q) and (
        abs(w.real) >= _MIN_NORMAL or abs(w.imag) >= _MIN_NORMAL
    ) and (abs(v.real) >= _MIN_NORMAL or abs(v.imag) >= _MIN_NORMAL):
        return q
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


# ---------------------------------------------------------------------------
# classical interpretation (the pullback route)


def _classical_div(left: complex, right: complex) -> complex:
    if right == 0:
        raise StarDivisionError("division by zero")
    return _divide(left, right)


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
    "mul": _product,
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

# the one draw bound on drawn preimage components, shared by every sampler
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

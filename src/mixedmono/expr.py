"""Scalar expression language over variables x1..xn.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-")? atom ("^" integer)?
    atom   := number | "x" integer | "pi" | func "(" expr ("," expr)? ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "abs" | "min" | "max"

so "^" binds tighter than unary minus, which binds tighter than "*" and "/".
Numbers are unsigned decimal literals with an optional exponent part; "pi" is
a reserved constant.  Offsets reported by ParseError index into the source
text.

Two extra unary names, "sign" and "step", are accepted on input although they
are not part of the public grammar: derivative trees use them to encode the
kink conventions of abs/min/max (d|u| = sign(u) u' with sign(0) = 0;
d min(u,v)/du = step(v-u) with step(0) = 1/2), and accepting them keeps
parse(to_string(e)) total on everything differentiate produces.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionError, EvalError, ParseError
from .interval import (BoxDomain, Interval, iv_abs, iv_add, iv_cos, iv_div, iv_exp, iv_max,
                       iv_min, iv_mul, iv_neg, iv_power, iv_sign, iv_sin, iv_step, iv_sub,
                       iv_widen)

# Slack for callers that want enclosures guaranteed outward of the exact
# range despite rounding; eval_interval itself defaults to no widening so
# that tight ranges (even powers, sine extrema) come out exact.
DEFAULT_SLACK = 1e-12

_UNARY_FUNCS = ("sin", "cos", "exp", "abs", "sign", "step")
_BINARY_FUNCS = ("min", "max")


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError("constants must be finite")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, matching the surface syntax x1..xn

    def __post_init__(self):
        if self.index < 1:
            raise DimensionError(f"variable index {self.index} outside 1..n")


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | abs | sign | step
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | min | max
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int  # stored exactly


Expr = Union[Const, Var, Unary, Binary, Power]

_ZERO = Const(0.0)
_ONE = Const(1.0)


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[a-zA-Z]+\d*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self) -> Expr:
        e = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            rhs = self.parse_term()
            e = Binary("add" if op == "+" else "sub", e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            rhs = self.parse_factor()
            e = Binary("mul" if op == "*" else "div", e, rhs)
        return e

    def parse_factor(self) -> Expr:
        negated = False
        if self.at_op("-"):
            self.advance()
            negated = True
        node, is_literal = self.parse_atom()
        powered = False
        if self.at_op("^"):
            self.advance()
            node = Power(node, self.parse_exponent())
            powered = True
        if negated:
            if is_literal and not powered and isinstance(node, Const):
                # a minus directly on a numeric literal folds into the constant;
                # -2^2 does not reach here (the power binds first)
                return Const(-node.value)
            return Unary("neg", node)
        return node

    def parse_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "number" or not re.fullmatch(r"\d+", val):
            raise ParseError("integer exponent expected after '^'", pos)
        self.advance()
        return sign * int(val)

    def parse_atom(self) -> tuple[Expr, bool]:
        """Returns (node, is_literal) where is_literal marks a bare number or pi."""
        kind, val, pos = self.advance()
        if kind == "number":
            return Const(float(val)), True
        if kind == "name":
            return self.parse_name(val, pos), val == "pi"
        if kind == "op" and val == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e, False
        raise ParseError(f"expected a number, variable, function, or '('", pos)

    def parse_name(self, val: str, pos: int) -> Expr:
        if val == "pi":
            return Const(math.pi)
        m = re.fullmatch(r"x(\d+)", val)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.n:
                raise DimensionError(f"variable x{index} outside the declared dimension {self.n}")
            return Var(index)
        if val in _UNARY_FUNCS:
            self.expect_op("(")
            arg = self.parse_expr()
            if self.at_op(","):
                _, _, cpos = self.peek()
                raise ParseError(f"{val} takes one argument", cpos)
            self.expect_op(")")
            return Unary(val, arg)
        if val in _BINARY_FUNCS:
            self.expect_op("(")
            left = self.parse_expr()
            kind2, _, pos2 = self.peek()
            if not self.at_op(","):
                raise ParseError(f"{val} takes two arguments", pos2)
            self.advance()
            right = self.parse_expr()
            self.expect_op(")")
            return Binary(val, left, right)
        raise ParseError(f"unknown name {val!r}", pos)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over x1..xn.

    Raises ParseError (with the source offset) on grammar violations and
    DimensionError when a variable index exceeds n.
    """
    if n < 0:
        raise DimensionError("dimension must be nonnegative")
    return _Parser(text, n).parse()


# -- printing ----------------------------------------------------------------

# precedence levels: add/sub = 1, mul/div = 2, unary minus = 3, power = 4, atom = 5

def _default_name(index: int) -> str:
    return f"x{index}"


def to_string(e: Expr, var_names: Callable[[int], str] = _default_name) -> str:
    """Render to text that parses back to a structurally equal tree."""
    s, _ = _render(e, var_names)
    return s


def _child(e: Expr, min_level: int, names) -> str:
    s, lvl = _render(e, names)
    return f"({s})" if lvl < min_level else s


def _const_text(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr, names) -> tuple[str, int]:
    if isinstance(e, Const):
        s = _const_text(e.value)
        return s, 3 if s.startswith("-") else 5
    if isinstance(e, Var):
        return names(e.index), 5
    if isinstance(e, Power):
        return f"{_child(e.base, 5, names)}^{e.exponent}", 4
    if isinstance(e, Unary):
        if e.op == "neg":
            # parenthesize a constant so the minus does not re-fold into it
            if isinstance(e.arg, Const):
                return f"-({_const_text(e.arg.value)})", 3
            return f"-{_child(e.arg, 4, names)}", 3
        return f"{e.op}({to_string(e.arg, names)})", 5
    if isinstance(e, Binary):
        if e.op in ("min", "max"):
            return f"{e.op}({to_string(e.left, names)}, {to_string(e.right, names)})", 5
        if e.op in ("add", "sub"):
            sym = " + " if e.op == "add" else " - "
            return f"{_child(e.left, 1, names)}{sym}{_child(e.right, 2, names)}", 1
        sym = "*" if e.op == "mul" else "/"
        return f"{_child(e.left, 2, names)}{sym}{_child(e.right, 3, names)}", 2
    raise TypeError(f"not an expression node: {e!r}")


# -- structure helpers ---------------------------------------------------------

def variables(e: Expr) -> set[int]:
    """Set of variable indices appearing in the tree."""
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Power):
        return variables(e.base)
    return set()


def is_smooth(e: Expr) -> bool:
    """True when the tree has no abs/min/max/sign/step nodes."""
    if isinstance(e, Unary):
        return e.op not in ("abs", "sign", "step") and is_smooth(e.arg)
    if isinstance(e, Binary):
        return e.op not in ("min", "max") and is_smooth(e.left) and is_smooth(e.right)
    if isinstance(e, Power):
        return is_smooth(e.base)
    return True


# -- evaluation ----------------------------------------------------------------

_isfinite = math.isfinite


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a finite point (index k of the point is variable x{k+1}).

    Compiles e on every call; code that evaluates one tree many times keeps
    the closure of compile_expr instead.
    """
    return compile_expr(e)(np.asarray(point, dtype=float).reshape(-1).tolist())


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Lower e once into a closure over a list of floats (x{k+1} is entry k).

    The closure raises EvalError for a non-finite point entry, division by
    zero, zero to a negative power, power or exp overflow, sin or cos of an
    infinity and a non-finite value, and DimensionError when the point has
    too few entries.
    """
    run = lower(e)

    def compiled(p: Sequence[float]) -> float:
        if not all(map(_isfinite, p)):
            raise EvalError("point entries must be finite")
        v = run(p)
        if not _isfinite(v):
            raise EvalError("non-finite value during evaluation")
        return v

    return compiled


def lower(e: Expr, slots: Sequence[int] | None = None) -> Callable[[Sequence[float]], float]:
    """Nested closures computing e at p, without the checks of compile_expr.

    x{j} reads p[j - 1], or p[slots[j - 1]] when slots is given, so that one
    list can feed a tree whose variables are picked from any of its entries.
    Operands are evaluated left to right, so the first failing node raises.
    """
    if isinstance(e, Const):
        c = e.value
        return lambda p: c
    if isinstance(e, Var):
        k = e.index - 1 if slots is None else slots[e.index - 1]

        def var(p):
            try:
                return p[k]
            except IndexError:
                raise DimensionError(
                    f"variable x{e.index} but the point has {len(p)} entries") from None
        return var
    if isinstance(e, Power):
        return _lower_power(lower(e.base, slots), e.exponent)
    if isinstance(e, Unary) and e.op in _LOWER_UNARY:
        return _LOWER_UNARY[e.op](lower(e.arg, slots))
    if isinstance(e, Binary) and e.op in _LOWER_BINARY:
        return _LOWER_BINARY[e.op](lower(e.left, slots), lower(e.right, slots))
    raise TypeError(f"not an expression node: {e!r}")


def _lower_power(a, n: int):
    def power(p):
        x = a(p)
        try:
            return x ** n
        except ZeroDivisionError:
            raise EvalError("zero raised to a negative power") from None
        except OverflowError:
            raise EvalError("power overflow") from None
    return power


def _lower_exp(a):
    def exp(p):
        u = a(p)
        try:
            return math.exp(u)
        except OverflowError:
            raise EvalError("exp overflow") from None
    return exp


def _lower_sign(a):
    def sign(p):
        u = a(p)
        return 0.0 if u == 0.0 else math.copysign(1.0, u)
    return sign


def _lower_step(a):
    def step(p):
        u = a(p)
        return 1.0 if u > 0.0 else (0.5 if u == 0.0 else 0.0)
    return step


def _lower_trig(fn, name: str):
    def lower_trig(a):
        def trig(p):
            u = a(p)
            try:
                return fn(u)
            except ValueError:  # math.sin and math.cos of an infinity
                raise EvalError(f"{name} of a non-finite value") from None
        return trig
    return lower_trig


def _lower_div(a, b):
    def div(p):
        x = a(p)
        y = b(p)
        if y == 0.0:
            raise EvalError("division by zero")
        return x / y
    return div


_LOWER_UNARY = {
    "neg": lambda a: lambda p: -a(p),
    "sin": _lower_trig(math.sin, "sin"),
    "cos": _lower_trig(math.cos, "cos"),
    "exp": _lower_exp,
    "abs": lambda a: lambda p: abs(a(p)),
    "sign": _lower_sign,
    "step": _lower_step,
}

_LOWER_BINARY = {
    "add": lambda a, b: lambda p: a(p) + b(p),
    "sub": lambda a, b: lambda p: a(p) - b(p),
    "mul": lambda a, b: lambda p: a(p) * b(p),
    "div": _lower_div,
    "min": lambda a, b: lambda p: min(a(p), b(p)),
    "max": lambda a, b: lambda p: max(a(p), b(p)),
}


# -- differentiation -------------------------------------------------------------

def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    if a == _ZERO:
        return _ZERO
    return Unary("neg", a)


def _add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return Binary("mul", a, b)


def _pow(a: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return a
    return Power(a, n)


def differentiate(e: Expr, j: int) -> Expr:
    """Symbolic partial derivative with respect to x{j} (1-based).

    Kink conventions make the result total: d|u| = sign(u) u' with
    sign(0) = 0, and d min(u,v)/du = step(v-u) with step(0) = 1/2 (max is
    symmetric).  sign and step themselves differentiate to 0.
    """
    if j < 1:
        raise DimensionError(f"variable index {j} outside 1..n")
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == j else _ZERO
    if isinstance(e, Power):
        du = differentiate(e.base, j)
        return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), du)
    if isinstance(e, Unary):
        du = differentiate(e.arg, j)
        if e.op == "neg":
            return _neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", e.arg), du)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", e.arg), du))
        if e.op == "exp":
            return _mul(Unary("exp", e.arg), du)
        if e.op == "abs":
            return _mul(Unary("sign", e.arg), du)
        if e.op in ("sign", "step"):
            return _ZERO  # piecewise-constant convention
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            da = differentiate(e.left, j)
            db = differentiate(e.right, j)
            return _add(da, db) if e.op == "add" else _sub(da, db)
        if e.op == "mul":
            da = differentiate(e.left, j)
            db = differentiate(e.right, j)
            return _add(_mul(da, e.right), _mul(e.left, db))
        if e.op == "div":
            da = differentiate(e.left, j)
            db = differentiate(e.right, j)
            num = _sub(_mul(da, e.right), _mul(e.left, db))
            return Binary("div", num, _pow(e.right, 2))
        if e.op in ("min", "max"):
            da = differentiate(e.left, j)
            db = differentiate(e.right, j)
            u, v = e.left, e.right
            if e.op == "min":
                wa, wb = _sub(v, u), _sub(u, v)
            else:
                wa, wb = _sub(u, v), _sub(v, u)
            return _add(_mul(Unary("step", wa), da), _mul(Unary("step", wb), db))
    raise TypeError(f"not an expression node: {e!r}")


# -- interval evaluation -----------------------------------------------------------

def eval_interval(e: Expr, box: BoxDomain, slack: float = 0.0) -> Interval:
    """Natural interval extension of e over the box.

    One call of the closure of lower_interval, widened outward by slack (see
    DEFAULT_SLACK); the default of zero keeps exact ranges exact.  Compiles
    e on every call; code that encloses one tree over many boxes keeps the
    closure instead.
    """
    if slack < 0.0:
        raise ValueError("slack must be nonnegative")
    run = lower_interval(e)
    return Interval(*iv_widen(*run(box.lower_corner().tolist(), box.upper_corner().tolist()),
                              slack))


def lower_interval(e: Expr) -> Callable[[Sequence[float], Sequence[float]], tuple[float, float]]:
    """Nested closures enclosing the range of e over a box given by its corners.

    The closure maps the lists lo and hi of the box's endpoints to the
    endpoints (lo, hi) of the enclosure, by the range rules of interval.py:
    even powers and sine/cosine are tight, 0 * inf is 0, and division by an
    interval containing zero yields infinite endpoints.  x{j} reads entry
    j - 1 of both lists.  Operands are enclosed left to right.  Raises DimensionError when the
    lists are too short, and the ValueError of Interval where an image is no
    interval (an overflow to [inf, inf], say).
    """
    if isinstance(e, Const):
        c = (e.value, e.value)
        return lambda lo, hi: c
    if isinstance(e, Var):
        k = e.index - 1

        def var(lo, hi):
            try:
                return lo[k], hi[k]
            except IndexError:
                raise DimensionError(
                    f"variable x{e.index} but the box has {len(lo)} axes") from None
        return var
    if isinstance(e, Power):
        return _lower_interval_power(lower_interval(e.base), e.exponent)
    if isinstance(e, Unary) and e.op in _INTERVAL_UNARY:
        return _lower_interval_unary(_INTERVAL_UNARY[e.op], lower_interval(e.arg))
    if isinstance(e, Binary) and e.op in _INTERVAL_BINARY:
        return _lower_interval_binary(_INTERVAL_BINARY[e.op], lower_interval(e.left),
                                      lower_interval(e.right))
    raise TypeError(f"not an expression node: {e!r}")


def _lower_interval_power(a, n: int):
    def power(lo, hi):
        alo, ahi = a(lo, hi)
        return iv_power(alo, ahi, n)
    return power


def _lower_interval_unary(rule, a):
    def unary(lo, hi):
        alo, ahi = a(lo, hi)
        return rule(alo, ahi)
    return unary


def _lower_interval_binary(rule, a, b):
    def binary(lo, hi):
        alo, ahi = a(lo, hi)
        blo, bhi = b(lo, hi)
        return rule(alo, ahi, blo, bhi)
    return binary


_INTERVAL_UNARY = {"neg": iv_neg, "sin": iv_sin, "cos": iv_cos, "exp": iv_exp, "abs": iv_abs,
                   "sign": iv_sign, "step": iv_step}
_INTERVAL_BINARY = {"add": iv_add, "sub": iv_sub, "mul": iv_mul, "div": iv_div, "min": iv_min,
                    "max": iv_max}

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

Three extra unary names, "sign", "step" and "jump", are accepted on input
although they are not part of the public grammar: derivative trees use them
to encode the kink conventions of abs/min/max (d|u| = sign(u) u' with
sign(0) = 0; d min(u,v)/du = step(v-u) with step(0) = 1/2) and the jumps of
sign and step (d step(u) = d sign(u) = jump(u) u'), and accepting them keeps
parse(to_string(e)) total on everything differentiate produces.  jump(u) is
0 at every point; its range over a box is [0, inf) where u can vanish.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import DimensionError, EvalError, ParseError
from .interval import (BoxDomain, Interval, iv_abs, iv_add, iv_cos, iv_div, iv_exp, iv_jump,
                       iv_max, iv_min, iv_mul, iv_neg, iv_power, iv_sign, iv_sin, iv_step,
                       iv_sub)

_UNARY_FUNCS = ("sin", "cos", "exp", "abs", "sign", "step", "jump")
_BINARY_FUNCS = ("min", "max")
# parse refuses an expression that nests deeper than this, in parentheses or in
# the chain of operations from its root to a leaf (a sum of n terms nests n - 1
# deep).  The parser and every pass over a tree recurse along it, and the
# second derivative that tv encloses nests up to about eight times as deep (a
# chain of divisions), so this keeps every command within Python's default
# recursion limit.
MAX_NESTING = 100


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
    op: str  # neg | sin | cos | exp | abs | sign | step | jump
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
_OPS = (Unary, Binary, Power)

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
    where the expression nests deeper than MAX_NESTING, and DimensionError
    when a variable index exceeds n.
    """
    if n < 0:
        raise DimensionError("dimension must be nonnegative")
    parser = _Parser(text, n)
    level = 0  # counted before the parser recurses into a parenthesis
    for _, val, pos in parser.tokens:
        level += (val == "(") - (val == ")")
        if level > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", pos)
    e = parser.parse()
    if _nesting(e) > MAX_NESTING:
        raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", 0)
    return e


def _nesting(e: Expr) -> int:
    """The operations on the longest chain from e to a leaf, counted level by
    level without recursion."""
    depth, level = 0, [e] if isinstance(e, _OPS) else []
    while level:
        depth += 1
        level = [c for node in level for c in vars(node).values() if isinstance(c, _OPS)]
    return depth


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


# -- evaluation ----------------------------------------------------------------

_isfinite = math.isfinite
# the helpers of sign, step, jump, min, max, exp, div (its divisor) and a power
# with exponent <= 0, which can map an infinity or a NaN to a finite value,
# raise this where such an operand is not finite, as compile_expr does for
# the final value
_NON_FINITE = "non-finite value during evaluation"


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a finite point (index k of the point is variable x{k+1}).

    Compiles e on every call; code that evaluates one tree many times keeps
    the closure of compile_expr instead.  No command calls it:
    perfbench/layers.py traces expr.evaluate by name, and its --trace run
    fails with AttributeError without it.
    """
    return compile_expr(e)([float(v) for v in point])


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """The checked evaluator of e: x{j} reads entry j - 1 of the point.

    Generates e once as straight-line Python, each variable's entry written
    in as a constant, and compiles it.  The generated function runs the
    program of _program as _straight_line writes it: each node once, in the
    order evaluation first reaches it, so its source nests no deeper than
    _INLINE_DEPTH for a deeper tree, a subtree that occurs twice is computed
    once, and the first failing node raises.  + - * neg abs are inlined, and
    the other ops call helpers that raise EvalError.

    The evaluator raises EvalError for a non-finite point entry, division by
    zero, zero to a negative power, power or exp overflow, sin or cos of an
    infinity, and a non-finite value, final or one that a later node would
    hide, and DimensionError, where evaluation first reaches a variable the
    point has no entry for.
    """
    reads, source = _straight_line(e)
    *lines, result = source.format("", {j: j - 1 for j in reads}).split("\n")
    src = "\n".join(
        ["def run(p):", "    try:"]
        + [f"        {line}" for line in lines]
        + [f"        return {result}",
           "    except IndexError:",
           f"        raise _short(p, {tuple(reads)}) from None"])
    run = _compiled(src, "run")

    def compiled(p: Sequence[float]) -> float:
        if not all(map(_isfinite, p)):
            raise EvalError("point entries must be finite")
        v = run(p)
        if not _isfinite(v):
            raise EvalError(_NON_FINITE)
        return v

    return compiled


def lower_decomposition(trees: Sequence[Expr], n: int) -> Callable[[Sequence], Callable]:
    """Compile once the kernel of g(x, y) = f(z) + c . (x - y), f_1 .. f_m being trees.

    factory(rows) binds the kernel to the rows of one decomposition, without
    compiling.  The rows have the one form of g that decomp._classified_row
    builds and DecompositionSpec.rows holds: row i is (first, terms), where
    first[j] is true when f_i reads x_{j+1} (false: y_{j+1}), and terms
    lists the pairs (j, c_ij) of its nonzero offsets, in increasing j.

    kernel(p, both) takes p = x + y, a list of exactly 2n floats, and
    returns [g_1(x, y), .., g_m(x, y)], followed by [g_1(y, x), ..,
    g_m(y, x)] when both is true.  It tests every entry of p for finiteness
    once, and forms each offset sum o_i = 0.0 + c_ij * (x_j - y_j) + .. over
    the terms of row i in order.  Then f_1 .. f_m run as straight-line code,
    each written from its program of _program and followed by a test that
    its value is finite; f_i reads x_j from the slot k = j - 1 or n + j - 1
    of p that its selector picks.  For g(y, x) the same code reads slot
    k - n, the other half of p (a negative index when k < n), and adds
    0.0 - o_i, the sum over y - x bit for bit.  Raises EvalError where an
    entry of p or a value of f_i is not finite, or where a node of f_i
    fails, f_1 to f_m for g(x, y) first.
    """
    m = len(trees)
    make = ["def make(rows):",
            "    " + "".join(f"(first{i}, terms{i}), " for i in range(m)) + "= rows"]
    kernel = ["    def kernel(p, both):",
              "        if not all(map(_isfinite, p)):",
              "            raise EvalError(\"point entries must be finite\")",
              "        d = (" + "".join(f"p[{j}] - p[{n + j}], " for j in range(n)) + ")"]
    for i in range(m):
        kernel += [f"        o{i} = 0.0", f"        for j, c in terms{i}:",
                   f"            o{i} += c * d[j]"]
    halves = {"v": [], "w": []}
    for i, e in enumerate(trees):
        reads, source = _straight_line(e)
        make += [f"    k{j}_{i} = {j - 1} if first{i}[{j - 1}] else {n + j - 1}" for j in reads]
        for half, names, shift in (("v", f"_{i}", ""), ("w", f"_{i}y", f" - {n}")):
            slots = {j: f"k{j}_{i}{shift}" for j in reads}
            *lines, result = source.format(names, slots).split("\n")
            halves[half] += [f"        {line}" for line in lines] + [
                f"        {half}{i} = {result}",
                f"        if not _isfinite({half}{i}): raise EvalError(_NON_FINITE)"]
    sums = ", ".join(f"v{i} + o{i}" for i in range(m))
    src = make + kernel + halves["v"] + ["        if not both:", f"            return [{sums}]"]
    src += halves["w"] + ["        return [" + sums + ", "
                          + ", ".join(f"w{i} + (0.0 - o{i})" for i in range(m)) + "]",
                          "    return kernel"]
    return _compiled("\n".join(src), "make")


# the deepest an inlined expression nests; a deeper node gets a line of its own
_INLINE_DEPTH = 32


def _straight_line(e: Expr) -> tuple[list[int], str]:
    """The program of e as a template of straight-line Python: (reads, source).

    source is format-ready: {0} is a suffix for the names it assigns and {1}
    maps each variable index j to the expression of the slot of p it reads,
    and its last line is the expression of e.  Each node is computed once,
    in the order evaluation first reaches it, and variable x{j} is read as
    p[{1[j]}].  A node used once is written inline in the expression of its
    user; a node used twice or more, or nested deeper than _INLINE_DEPTH,
    gets a line of its own that names it x{j}{0} (a variable) or t{k}{0} (an
    op).  Before such a line, every inline expression that evaluation reached
    earlier and that no user holds yet gets a line too, so the lines run the
    nodes in program order.  reads lists the indices j of the variables in
    that order.  The source holds only node kinds, integers and the repr of
    finite floats.
    """
    nodes, (root,) = _program((e,))
    uses = [0] * len(nodes)
    uses[root] = 1
    for node in nodes:
        if node[0] == "t":
            for a in node[3:]:
                uses[a] += 1
    texts: list[str] = []   # the name, literal or inline expression of each node
    depth: list[int] = []   # how deep that expression nests; 0 for a name or literal
    lines: list[str] = []
    reads: list[int] = []
    pending: list[int] = []  # the inline expressions no user holds yet, in program order
    for k, (kind, *rest) in enumerate(nodes):
        if kind == "c":
            text = repr(rest[0])
            texts.append(f"({text})" if text.startswith("-") else text)
            depth.append(0)
            continue
        if kind == "x":
            reads.append(rest[0])
            texts.append(f"p[{{1[{rest[0]}]}}]")
            depth.append(1)
            name = f"x{rest[0]}{{0}}"
        else:
            source, _, *args = rest
            while pending and pending[-1] in args:  # a node's inline operands top the stack
                pending.pop()
            texts.append(f"({source.format(*map(texts.__getitem__, args))})")
            depth.append(1 + max(map(depth.__getitem__, args)))
            name = f"t{k}{{0}}"
        pending.append(k)
        if uses[k] > 1 or depth[k] > _INLINE_DEPTH:
            for q in pending:
                held = name if q == k else f"t{q}{{0}}"
                lines.append(f"{held} = {texts[q]}")
                texts[q], depth[q] = held, 0
            pending.clear()
    lines.append(texts[root])
    return reads, "\n".join(lines)


def _compiled(src: str, name: str) -> Callable:
    """The function name that src defines, compiled with the helpers in scope."""
    namespace = dict(_HELPERS)
    exec(compile(src, "<mixedmono.expr>", "exec"), namespace)
    return namespace[name]


def _program(trees: Sequence[Expr]) -> tuple[list[tuple], list[int]]:
    """The shared-node program that both evaluators run: (nodes, roots).

    nodes holds every distinct subtree of the trees once, in the order
    evaluation first reaches it: trees in order, operands left to right,
    each operand before its node.  A node is ("c", value), ("x", j) or
    ("t", source, rule, *operands): the point source of an op, a format
    string over the names of its operands, its range rule from interval.py,
    and the indices in nodes of its operands.  roots[i] is the index of
    trees[i].  Constants are keyed by value and sign of zero, variables by
    index, and ops by kind and operands.
    """
    table: dict = {}
    nodes: list[tuple] = []
    roots = [_intern(e, table, nodes) for e in trees]
    return nodes, roots


def _intern(e: Expr, table: dict, nodes: list) -> int:
    """The index of e's node in nodes, appended after its operands where new."""
    if isinstance(e, Const):
        # 0.0 and -0.0 are equal but not interchangeable
        key, node = ("c", e.value, math.copysign(1.0, e.value)), ("c", e.value)
    elif isinstance(e, Var):
        key = node = ("x", operator.index(e.index))
    else:
        if isinstance(e, Power):
            n = int(e.exponent)
            args = (_intern(e.base, table, nodes),)
            key, (source, rule) = ("^", n, *args), (f"_pow({{}}, {n})", _power_rule(n))
        elif isinstance(e, Unary) and e.op in _UNARY:
            args = (_intern(e.arg, table, nodes),)
            key, (source, rule) = (e.op, *args), _UNARY[e.op]
        elif isinstance(e, Binary) and e.op in _BINARY:
            left = _intern(e.left, table, nodes)
            args = (left, _intern(e.right, table, nodes))
            key, (source, rule) = (e.op, *args), _BINARY[e.op]
        else:
            raise TypeError(f"not an expression node: {e!r}")
        node = ("t", source, rule, *args)
    if key not in table:
        table[key] = len(nodes)
        nodes.append(node)
    return table[key]


def _power_rule(n: int):
    def power(lo: float, hi: float) -> tuple[float, float]:
        return iv_power(lo, hi, n)
    return power


# each op kind's point source, over the names of its operands, and its range rule
_UNARY = {"neg": ("-{}", iv_neg), "abs": ("abs({})", iv_abs), "sin": ("_sin({})", iv_sin),
          "cos": ("_cos({})", iv_cos), "exp": ("_exp({})", iv_exp), "sign": ("_sign({})", iv_sign),
          "step": ("_step({})", iv_step), "jump": ("_jump({})", iv_jump)}
_BINARY = {"add": ("{} + {}", iv_add), "sub": ("{} - {}", iv_sub), "mul": ("{} * {}", iv_mul),
           "div": ("_div({}, {})", iv_div), "min": ("_min({}, {})", iv_min),
           "max": ("_max({}, {})", iv_max)}


def _short(p: Sequence[float], reads: tuple[int, ...]) -> DimensionError:
    """The error for the first variable x{j} of reads, in the order evaluation
    reads them, that p has no entry for."""
    n = len(p)
    j = next(j for j in reads if j > n)
    return DimensionError(f"variable x{j} but the point has {n} entries")


def _div(x: float, y: float) -> float:
    if y == 0.0:
        raise EvalError("division by zero")
    if not _isfinite(y):
        raise EvalError(_NON_FINITE)
    return x / y


def _pow(x: float, n: int) -> float:
    if n <= 0 and not _isfinite(x):
        raise EvalError(_NON_FINITE)
    try:
        return x ** n
    except ZeroDivisionError:
        raise EvalError("zero raised to a negative power") from None
    except OverflowError:
        raise EvalError("power overflow") from None


def _exp(u: float) -> float:
    if not _isfinite(u):
        raise EvalError(_NON_FINITE)
    try:
        return math.exp(u)
    except OverflowError:
        raise EvalError("exp overflow") from None


def _sin(u: float) -> float:
    try:
        return math.sin(u)
    except ValueError:  # math.sin of an infinity
        raise EvalError("sin of a non-finite value") from None


def _cos(u: float) -> float:
    try:
        return math.cos(u)
    except ValueError:  # math.cos of an infinity
        raise EvalError("cos of a non-finite value") from None


def _sign(u: float) -> float:
    if not _isfinite(u):
        raise EvalError(_NON_FINITE)
    return 0.0 if u == 0.0 else math.copysign(1.0, u)


def _step(u: float) -> float:
    if not _isfinite(u):
        raise EvalError(_NON_FINITE)
    return 1.0 if u > 0.0 else (0.5 if u == 0.0 else 0.0)


def _jump(u: float) -> float:
    if not _isfinite(u):
        raise EvalError(_NON_FINITE)
    return 0.0


def _min(u: float, v: float) -> float:
    if not (_isfinite(u) and _isfinite(v)):
        raise EvalError(_NON_FINITE)
    return v if v < u else u  # the builtin's tie rule: the left of equal operands


def _max(u: float, v: float) -> float:
    if not (_isfinite(u) and _isfinite(v)):
        raise EvalError(_NON_FINITE)
    return v if v > u else u


_HELPERS = {"_short": _short, "_div": _div, "_pow": _pow, "_exp": _exp, "_sin": _sin,
            "_cos": _cos, "_sign": _sign, "_step": _step, "_jump": _jump, "_min": _min,
            "_max": _max, "_isfinite": _isfinite, "_NON_FINITE": _NON_FINITE,
            "EvalError": EvalError}


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


def _power(a: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return a
    return Power(a, n)


def _zero_crossing(v: Expr) -> Expr:
    """jump(v) - jump(v): 0 at every point, the whole line where v can vanish."""
    return Binary("sub", Unary("jump", v), Unary("jump", v))


def differentiate(e: Expr, j: int) -> Expr:
    """Symbolic partial derivative with respect to x{j} (1-based).

    Kink conventions make the result total: d|u| = sign(u) u' with
    sign(0) = 0, and d min(u,v)/du = step(v-u) with step(0) = 1/2 (max is
    symmetric).  The jumps of sign and step are kept for enclosures:
    d sign(u) = d step(u) = jump(u) u', 0 at every point but [0, inf) over
    a box where u can vanish, since a nondecreasing jump has a nonnegative
    derivative of unknown size.  That of jump itself has no sign, so
    d jump(u) = (jump(u) - jump(u)) u', enclosed by the whole line there.
    d(u/v) and d(v^n), n < 0, subtract jump(v) - jump(v) too: across a pole
    no enclosure holds, and subtracting 0 keeps the sign of a zero.
    """
    if j < 1:
        raise DimensionError(f"variable index {j} outside 1..n")
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == j else _ZERO
    if isinstance(e, Power):
        du = differentiate(e.base, j)
        d = _mul(_mul(Const(float(e.exponent)), _power(e.base, e.exponent - 1)), du)
        return Binary("sub", d, _zero_crossing(e.base)) if e.exponent < 0 else d
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
            return _mul(Unary("jump", e.arg), du)
        if e.op == "jump":
            return _mul(_zero_crossing(e.arg), du)
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
            return Binary("sub", Binary("div", num, _power(e.right, 2)), _zero_crossing(e.right))
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

def eval_interval(e: Expr, box: BoxDomain) -> Interval:
    """Natural interval extension of e over the box.

    The one-tree case of lower_intervals, so exact ranges stay exact, the
    sign of a zero endpoint included.  Builds the node list of e on every
    call; code that encloses one tree over many boxes keeps the evaluator
    of lower_intervals instead.
    Raises the first failure that evaluation, operands left to right, meets:
    DimensionError for a variable the box lacks, or the ValueError of
    Interval where an image is no interval.
    No command calls it: perfbench/layers.py traces expr.eval_interval by
    name, and its --trace run fails with AttributeError without it.
    """
    (r,) = lower_intervals((e,))(box.lower_corner(), box.upper_corner())
    if isinstance(r, ValueError):
        raise r
    return Interval(*r)


def lower_intervals(trees: Sequence[Expr]) -> Callable[[Sequence[float], Sequence[float]], list]:
    """The program of _program, run as one flat list of nodes enclosing the ranges of trees.

    run(lo, hi) maps the lists of the box's endpoints to a list holding, for
    each tree in order, the endpoints (lo, hi) of its enclosure, or the
    ValueError of Interval where an image is no interval (an overflow to
    [inf, inf], say).  The range rules are those of interval.py: even powers
    and sine/cosine are tight, 0 * inf is 0, and division by an interval
    containing zero yields infinite endpoints.  x{j} reads entry j - 1 of
    both lists.

    Structurally equal subtrees, within a tree or across trees, are one
    node, enclosed once per call; constants and variables cost nothing.
    The list is built without compile, and run is one loop over its ops.
    A variable the box lacks holds its DimensionError before the loop, and
    a failure propagates through the nodes: a node holds the failure of its
    left operand, else that of its right operand, else the ValueError its
    rule raises.  So each tree gets the first failure that evaluation,
    operands left to right, meets in it, and run raises the DimensionError
    of the first tree, tree by tree, that gets one.
    """
    nodes, roots = _program(trees)
    top = len(nodes)
    slots = []  # where each node's value sits; x{j} sits at top + j - 1, after the nodes
    head = []   # the values known before the box: the constants
    ops = []    # (slot, rule, operand slot, operand slot or -1); a power's rule holds its exponent
    for k, (kind, *rest) in enumerate(nodes):
        slots.append(top + rest[0] - 1 if kind == "x" else k)
        head.append((rest[0], rest[0]) if kind == "c" else None)
        if kind == "t":
            _, rule, *args = rest
            ops.append((k, rule, slots[args[0]], slots[args[1]] if len(args) > 1 else -1))
    width = max((rest[0] for kind, *rest in nodes if kind == "x"), default=0)
    roots = [slots[r] for r in roots]

    def run(lo: Sequence[float], hi: Sequence[float]) -> list:
        v = [*head, *zip(lo, hi)]
        short = len(v) - top < width  # the box lacks a variable the trees read
        if short:
            v += [DimensionError(f"variable x{j} but the box has {len(lo)} axes")
                  for j in range(len(v) - top + 1, width + 1)]
        for k, rule, a, b in ops:
            try:
                alo, ahi = v[a]
                if b < 0:
                    v[k] = rule(alo, ahi)
                else:
                    blo, bhi = v[b]
                    v[k] = rule(alo, ahi, blo, bhi)
            except TypeError:  # an operand holds a failure, which is no pair
                v[k] = v[a] if isinstance(v[a], Exception) else v[b]
            except ValueError as exc:
                v[k] = exc
        out = [v[r] for r in roots]
        if short:
            for r in out:
                if isinstance(r, DimensionError):
                    raise r
        return out

    return run

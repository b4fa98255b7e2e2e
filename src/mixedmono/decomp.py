"""Decomposition functions built from Jacobian sign classification.

The construction realizes, per output i,

    g_i(x, y) = f_i(z) + (alpha_i - beta_i) . (x - y)

where z_j is x_j for CASE1/CASE2 entries and y_j for CASE3/CASE4 entries,
alpha_ij = |a_ij| + eps on CASE2 entries (else 0), and
beta_ij = -(|b_ij| + eps) on CASE3 entries (else 0).  On the diagonal
g(x, x) = f(x) exactly, g is nondecreasing in x and nonincreasing in y, and
evaluating at opposite box corners brackets the range of f over the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import DimensionError, EvalError, UnboundedDerivativeError
from .expr import to_string
from .interval import BoxDomain, Interval, iv_checked, iv_hull, iv_intersect, iv_mid
from .jacbounds import _CASE1, _CASE2, _CASE3, VectorField, classify


@dataclass(frozen=True, eq=False)
class DecompositionSpec:
    """Per-entry argument selectors and offset vectors of a decomposition.

    Each matrix is m row tuples of n entries, indexed [i][j].
    use_first[i][j] is True when row i feeds x_j (the first argument) into
    f_i, False when it feeds y_j.  alpha is nonnegative, beta nonpositive;
    both are zero on sign-stable entries.
    """

    use_first: tuple[tuple[bool, ...], ...]
    alpha: tuple[tuple[float, ...], ...]   # >= 0
    beta: tuple[tuple[float, ...], ...]    # <= 0
    epsilon: float

    def __post_init__(self):
        uf = tuple(tuple(map(bool, row)) for row in self.use_first)
        al = tuple(tuple(map(float, row)) for row in self.alpha)
        be = tuple(tuple(map(float, row)) for row in self.beta)
        if len({len(row) for row in uf + al + be}) != 1 or not len(uf) == len(al) == len(be):
            raise DimensionError("selector and offset matrices must share an (m, n) shape")
        # alpha - beta, the coefficient of x - y in g, is finite only where both are
        if not all(math.isfinite(a - b) for ra, rb in zip(al, be) for a, b in zip(ra, rb)):
            raise ValueError("offsets must be finite")
        if any(v < 0.0 for row in al for v in row) or any(v > 0.0 for row in be for v in row):
            raise ValueError("alpha must be nonnegative and beta nonpositive")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and nonnegative")
        object.__setattr__(self, "use_first", uf)
        object.__setattr__(self, "alpha", al)
        object.__setattr__(self, "beta", be)

    @property
    def m(self) -> int:
        return len(self.use_first)

    @property
    def n(self) -> int:
        return len(self.use_first[0])

    def selector(self, i: int, j: int) -> str:
        """'x' or 'y': which argument row i feeds into coordinate j (0-based)."""
        return "x" if self.use_first[i][j] else "y"


def _classified_row(i: int, row, epsilon: float) -> tuple[tuple[bool, ...], list]:
    """Selectors and offset terms of row i (0-based) of g, from the enclosures
    (a, b) of df_i/dx_1 .. df_i/dx_n.

    first[j] is True where f_i reads x_j (CASE1, CASE2).  terms lists
    (j, alpha_ij - beta_ij) for each sign-unstable entry, in increasing j:
    alpha_ij = |a| + eps on CASE2 and beta_ij = -(|b| + eps) on CASE3.
    Raises UnboundedDerivativeError on a (-inf, inf) entry or an offset that
    overflows, and propagates InvalidBoundsError from classify.
    """
    first, terms = [], []
    for j, (a, b) in enumerate(row):
        if a == -math.inf and b == math.inf:
            raise UnboundedDerivativeError(i + 1, j + 1)
        case = classify(a, b)
        if case is _CASE2 or case is _CASE3:
            c = abs(a if case is _CASE2 else b) + epsilon
            if c == math.inf:  # the endpoint is finite: only a large epsilon overflows it
                end = "a" if case is _CASE2 else "b"
                raise UnboundedDerivativeError(
                    i + 1, j + 1,
                    f"offset for f{i + 1}/x{j + 1} overflows: |{end}| + epsilon is not finite")
            terms.append((j, c))
        first.append(case is _CASE1 or case is _CASE2)
    return tuple(first), terms


def build_decomposition(jb: list[list[Interval]], epsilon: float = 0.0) -> DecompositionSpec:
    """Classify every enclosure of jb, the rows of jacobian_bounds, and
    assemble selectors and offsets.

    Raises UnboundedDerivativeError naming the first (-inf, inf) entry or
    overflowing offset, and propagates InvalidBoundsError from enclosures
    that are no interval.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and nonnegative")
    use_first, alpha, beta = [], [], []
    for i, entries in enumerate(jb):
        first, terms = _classified_row(i, [(iv.lo, iv.hi) for iv in entries], epsilon)
        al, be = [0.0] * len(entries), [0.0] * len(entries)
        for j, c in terms:
            if first[j]:
                al[j] = c
            else:
                be[j] = -c
        use_first.append(first)
        alpha.append(al)
        beta.append(be)
    return DecompositionSpec(use_first, alpha, beta, float(epsilon))


def decomposition_kernel(spec: DecompositionSpec,
                         f: VectorField) -> Callable[[list[float], bool], list[float]]:
    """The float-list kernel of g behind eval_decomposition, bound_box and the embedding.

    kernel(s, both) takes s = x + y, a list of 2n floats, and returns the list
    [g_1(x, y), .., g_m(x, y)], followed by [g_1(y, x), .., g_m(y, x)] when
    both is true.  Each f_i reads its arguments straight from s through the
    slots its selectors pick, and x - y and the offsets (alpha_i - beta_i) .
    (x - y) are computed once; g(y, x) uses the negated offsets.  Raises
    EvalError when an entry of s or a value of f_i is not finite.
    """
    if spec.m != f.m or spec.n != f.n:
        raise DimensionError("decomposition shape does not match the field")
    rows = []
    for i, (first, al, be) in enumerate(zip(spec.use_first, spec.alpha, spec.beta)):
        coef = [a - b for a, b in zip(al, be)]
        terms = [(j, c) for j, c in enumerate(coef) if c != 0.0]
        rows.append((*f.lowered(i, first), terms))
    return partial(_kernel, f.n, rows)


def _kernel(n: int, rows: list, s: list[float], both: bool) -> list[float]:
    """The kernel of decomposition_kernel, for the rows of g given as a list.

    Row i is (fx, fy, terms): the f.lowered pair of f_i and its nonzero
    offset terms (j, alpha_ij - beta_ij), in increasing j.
    """
    isfinite = math.isfinite
    if not all(map(isfinite, s)):
        raise EvalError("point entries must be finite")
    diff = [s[j] - s[n + j] for j in range(n)]
    out, offsets = [], []
    for fx, _, terms in rows:
        v = fx(s)
        if not isfinite(v):
            raise EvalError("non-finite value during evaluation")
        off = 0.0
        for j, c in terms:
            off += c * diff[j]
        offsets.append(off)
        out.append(v + off)
    if both:
        for (_, fy, _), off in zip(rows, offsets):
            v = fy(s)
            if not isfinite(v):
                raise EvalError("non-finite value during evaluation")
            out.append(v + (0.0 - off))  # 0.0 - off: the sum over y - x, signed zero included
    return out


def eval_decomposition(spec: DecompositionSpec, f: VectorField, x, y) -> list[float]:
    """g(x, y) componentwise, by one call of decomposition_kernel.

    No command calls it: perfbench/layers.py traces decomp.eval_decomposition
    by name, and its --trace run fails with AttributeError without it.
    """
    if len(x) != f.n or len(y) != f.n:
        raise DimensionError(f"arguments must have {f.n} entries")
    return decomposition_kernel(spec, f)([float(v) for v in x] + [float(v) for v in y], False)


def bound_box(spec: DecompositionSpec, f: VectorField, box: BoxDomain) -> list[Interval]:
    """Range bracket of f over the box: component i is [g_i(lo, hi), g_i(hi, lo)].

    The decomposition must have been built from an enclosure valid on this
    box (or a superset); that is the caller's obligation.  No command calls
    it: perfbench/layers.py traces decomp.bound_box by name, and its --trace
    run fails with AttributeError without it.
    """
    if box.n != f.n:
        raise DimensionError(f"arguments must have {f.n} entries")
    g = decomposition_kernel(spec, f)(box.lower_corner() + box.upper_corner(), True)
    return [Interval(a, b) for a, b in zip(g[:f.m], g[f.m:])]


def refine_bounds(f: VectorField, box: BoxDomain, depth: int, epsilon: float = 0.0,
                  slack: float = 1e-9) -> list[Interval]:
    """Divide-and-conquer range bounding by uniform bisection.

    Depth 0 is the bracket of bound_box on a decomposition rebuilt for this
    box.  Deeper levels split the widest axis at its midpoint, recurse one
    level shallower on each half, hull the child bounds componentwise, and
    intersect with this box's own depth-0 bound, so bounds are nested as
    depth grows.

    The recursion runs on lists of box endpoints and bracket endpoints, and
    makes Intervals only for the result.  On each box one run of the
    Jacobian's shared-node evaluator (VectorField.jacobian_ranges) gives all
    m*n enclosures widened by slack, the row classifier of
    build_decomposition turns them into the rows of g, and one call of the
    kernel behind decomposition_kernel gives the bracket, bit for bit the
    bracket of jacobian_bounds, build_decomposition and bound_box on that
    box.

    Args:
        f: vector field to bound.
        box: finite domain box.
        depth: number of bisection levels, >= 0.
        epsilon: offset margin passed to build_decomposition.
        slack: outward widening of the derivative enclosures; 0 keeps them
            as computed.

    Raises UnboundedDerivativeError if the top-level box has an unbounded
    entry or an offset that overflows; deeper recursion falls back to the
    parent bound instead.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if box.n != f.n:
        raise DimensionError(f"box has {box.n} axes but the field has n={f.n}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and nonnegative")
    if not slack >= 0.0:
        raise ValueError("slack must be nonnegative")
    bounds = _refine(f, box.lower_corner(), box.upper_corner(), depth, epsilon, slack)
    return [Interval(a, b) for a, b in bounds]


def _refine(f: VectorField, lo: list[float], hi: list[float], depth: int, epsilon: float,
            slack: float) -> list[tuple[float, float]]:
    parent = _bracket(f, lo, hi, epsilon, slack)
    if depth == 0:
        return parent
    widths = [b - a for a, b in zip(lo, hi)]
    k = widths.index(max(widths))  # the widest axis; ties go to the lowest index
    if widths[k] == 0.0:
        return parent  # fully degenerate box, nothing to split
    mid = iv_mid(lo[k], hi[k])
    children = []
    for clo, chi in ((lo, hi[:k] + [mid] + hi[k + 1:]), (lo[:k] + [mid] + lo[k + 1:], hi)):
        try:
            children.append(_refine(f, clo, chi, depth - 1, epsilon, slack))
        except UnboundedDerivativeError:
            # a child's entry can overflow to (-inf, inf) where the parent's
            # is half-bounded: keep the sound parent bound
            children.append(parent)
    return [iv_intersect(*iv_hull(*a, *b), *p) for a, b, p in zip(*children, parent)]


def _bracket(f: VectorField, lo: list[float], hi: list[float], epsilon: float,
             slack: float) -> list[tuple[float, float]]:
    """Depth-0 bracket endpoints over the box [lo, hi]."""
    rows = []
    for i, row in enumerate(f.jacobian_ranges(lo, hi, slack)):
        first, terms = _classified_row(i, row, epsilon)
        rows.append((*f.lowered(i, first), terms))
    g = _kernel(f.n, rows, lo + hi, True)
    return [iv_checked(a, b) for a, b in zip(g[:f.m], g[f.m:])]


def _fmt_coeff(c: float) -> str:
    return format(c, ".9g")


def format_decomposition(spec: DecompositionSpec, f: VectorField) -> list[str]:
    """Closed-form g_i as expression strings over x1..xn and y1..yn."""
    lines = []
    for i, comp in enumerate(f.components):
        row = spec.use_first[i]

        def name(index: int, row=row) -> str:
            return f"x{index}" if row[index - 1] else f"y{index}"

        s = to_string(comp, var_names=name)
        for j in range(spec.n):
            c = spec.alpha[i][j] - spec.beta[i][j]
            if c != 0.0:
                cs = _fmt_coeff(c)
                s += f" + {cs}*x{j + 1} - {cs}*y{j + 1}"
        lines.append(f"g{i + 1} = {s}")
    return lines

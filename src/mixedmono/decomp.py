"""Decomposition functions built from the signs of Jacobian enclosures.

The construction realizes, per output i,

    g_i(x, y) = f_i(z) + (alpha_i - beta_i) . (x - y)

from an enclosure (a_ij, b_ij) of each df_i/dx_j over a box.  The entry is
CASE1 where a_ij >= 0 and CASE4 where b_ij <= 0; a sign-unstable entry is
CASE2 where |a_ij| <= |b_ij| and CASE3 otherwise.  z_j is x_j on CASE1/CASE2
entries and y_j on CASE3/CASE4 entries, alpha_ij = |a_ij| + eps on CASE2
entries (else 0), and beta_ij = -(|b_ij| + eps) on CASE3 entries (else 0).
On the diagonal g(x, x) = f(x) exactly, g is nondecreasing in x and
nonincreasing in y, and evaluating at opposite box corners brackets the range
of f over the box.

g has one form, its rows: _classified_row, the one place that applies the
rule above, builds row i, (first, terms), from a box's enclosures, and a
DecompositionSpec holds the rows of one box.  One kernel evaluates g.
VectorField.g_factory compiles f_1 .. f_m once per field into straight-line
code (expr.lower_decomposition) that returns g(x, y) and g(y, x) together;
decomposition_kernel binds it to the rows of a spec and _bracket to the rows
of each box, and neither compiles anything.  eval_decomposition, bound_box,
refine_bounds and the embedding system all run it.

A box whose rows have no term is sign-stable in every entry, so f is
monotone in each variable there and its bracket is f at two corners:
refine_bounds does not bisect below it, because its halves would give the
same bracket again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DimensionError, UnboundedDerivativeError
from .expr import to_string
from .interval import BoxDomain, Interval, iv_checked, iv_hull, iv_intersect, iv_mid
from .jacbounds import VectorField


@dataclass(frozen=True, eq=False)
class DecompositionSpec:
    """The rows of a decomposition g, one (first, terms) per output f_i, as
    _classified_row builds them.

    first[j] is True when f_i reads x_{j+1}, False when it reads y_{j+1}.
    terms lists the pairs (j, alpha_ij - beta_ij) of its sign-unstable
    entries, j strictly increasing in 0..n-1 and each offset finite and
    positive; hand-made rows that break this raise ValueError.
    """

    rows: tuple[tuple[tuple[bool, ...], tuple[tuple[int, float], ...]], ...]

    def __post_init__(self):
        rows = tuple((tuple(map(bool, first)), tuple((j, float(c)) for j, c in terms))
                     for first, terms in self.rows)
        if len({len(first) for first, _ in rows}) != 1:
            raise ValueError("rows must select among one number n of arguments")
        n = len(rows[0][0])
        for _, terms in rows:
            js = [j for j, _ in terms]
            if any(not (isinstance(j, int) and 0 <= j < n) for j in js) or js != sorted(set(js)):
                raise ValueError("term indices must increase strictly within 0..n-1")
            if not all(0.0 < c < math.inf for _, c in terms):  # NaN fails too
                raise ValueError("offsets must be finite and positive")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0][0])


def _classified_row(i: int, row, epsilon: float) -> tuple[tuple[bool, ...], tuple]:
    """Selectors and offset terms of row i (0-based) of g, from the enclosures
    (a, b) of df_i/dx_1 .. df_i/dx_n: the one place the sign rule is applied.

    An entry with a >= 0 reads x_j (CASE1, b may be infinite) and one with
    b <= 0 reads y_j (CASE4); a point enclosure a = b is one of the two.  A
    sign-unstable entry reads x_j with the offset alpha_ij = |a| + eps where
    |a| <= |b| (CASE2, the tie among them), and y_j with -beta_ij = |b| + eps
    otherwise (CASE3).  terms lists (j, alpha_ij - beta_ij) in increasing j.
    Raises UnboundedDerivativeError on a (-inf, inf) entry or an offset that
    overflows.
    """
    first, terms = [], []
    for j, (a, b) in enumerate(row):
        if a >= 0.0:
            first.append(True)
        elif b <= 0.0:
            first.append(False)
        elif a == -math.inf and b == math.inf:
            raise UnboundedDerivativeError(i + 1, j + 1)
        else:
            reads_x = -a <= b
            c = (-a if reads_x else b) + epsilon
            if c == math.inf:  # the endpoint is finite: only a large epsilon overflows it
                raise UnboundedDerivativeError(
                    i + 1, j + 1, f"offset for f{i + 1}/x{j + 1} overflows: "
                    f"|{'a' if reads_x else 'b'}| + epsilon is not finite")
            terms.append((j, c))
            first.append(reads_x)
    return tuple(first), tuple(terms)


def build_decomposition(jb: list[list[tuple[float, float]]],
                        epsilon: float = 0.0) -> DecompositionSpec:
    """The rows of g from jb, the enclosures (a, b) of jacobian_bounds: one
    pass of _classified_row per row of jb.

    Raises UnboundedDerivativeError naming the first (-inf, inf) entry or
    overflowing offset, and the ValueError of iv_checked for an entry that
    is no interval.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and nonnegative")
    return DecompositionSpec(tuple(
        _classified_row(i, [iv_checked(float(a), float(b)) for a, b in row], epsilon)
        for i, row in enumerate(jb)))


def decomposition_kernel(spec: DecompositionSpec,
                         f: VectorField) -> Callable[[list[float], bool], list[float]]:
    """The float-list kernel of g behind eval_decomposition, bound_box and the embedding.

    kernel(p, both) takes p = x + y, a list of 2n floats, and returns the list
    [g_1(x, y), .., g_m(x, y)], followed by [g_1(y, x), .., g_m(y, x)] when
    both is true.  It is the field's one compiled kernel (f.g_factory, see
    expr.lower_decomposition) bound to spec.rows, so no spec compiles
    anything: each f_i reads its arguments straight from p through the
    slots its selectors pick, and its offset sum over x - y runs over its
    terms in increasing j.  Raises DimensionError when the shape of spec is
    not that of f, and EvalError when an entry of p or a value of f_i is not
    finite.
    """
    if spec.m != f.m or spec.n != f.n:
        raise DimensionError("decomposition shape does not match the field")
    return f.g_factory(spec.rows)


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
    box (or a superset); that is the caller's obligation.  Raises
    UnboundedDerivativeError where an endpoint overflows, as refine_bounds
    does: both check the bracket in _checked_bracket.  No command calls it:
    perfbench/layers.py traces decomp.bound_box by name, and its --trace run
    fails with AttributeError without it.
    """
    if box.n != f.n:
        raise DimensionError(f"arguments must have {f.n} entries")
    g = decomposition_kernel(spec, f)(box.lower_corner() + box.upper_corner(), True)
    return [Interval(a, b) for a, b in _checked_bracket(g, f.m)]


def refine_bounds(f: VectorField, box: BoxDomain, depth: int, epsilon: float = 0.0,
                  slack: float = 1e-9) -> list[Interval]:
    """Divide-and-conquer range bounding by uniform bisection.

    Depth 0 is the bracket of bound_box on a decomposition rebuilt for this
    box.  Deeper levels split the widest axis at its midpoint, recurse one
    level shallower on each half, hull the child bounds componentwise, and
    intersect with this box's own depth-0 bound, so bounds are nested as
    depth grows.  So at most 2^(depth+1) - 1 boxes get a bracket.

    A box where no row of g has an offset term is not split, whatever depth
    is left: its bound is its depth-0 bracket, f at two of its corners.
    Splitting it gives the same result.  Natural interval extension is
    inclusion isotone, so each half gets a subset of each enclosure and
    again no term.  The half that holds a corner chosen by the box's
    bracket evaluates f at that same float point, so the hull of the
    halves, intersected with the box's bracket, is that bracket.  A half
    whose entry overflows to the whole line raises, and the box's bracket
    is kept there anyway.  The one exception is a half whose bracket
    rounding disorders (f is monotone there only up to rounding): splitting
    raised ValueError there, and the box's bracket is returned instead.

    The recursion runs on lists of box endpoints and bracket endpoints, and
    makes Intervals only for the result.  On each box one run of the
    Jacobian's shared-node evaluator (VectorField.jacobian_ranges) gives all
    m*n enclosures widened by slack, _classified_row (the row builder of
    build_decomposition) turns them into the rows of g, and one call of the
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
    entry, an offset that overflows or a bracket endpoint that does; deeper
    recursion falls back to the parent bound instead.
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
    parent, live = _bracket(f, lo, hi, epsilon, slack)
    if depth == 0 or not live:
        return parent  # no row has a term: the halves would give the parent again
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
             slack: float) -> tuple[list[tuple[float, float]], bool]:
    """Depth-0 bracket endpoints over the box [lo, hi], and whether any row of
    g there has an offset term."""
    rows, live = [], False
    for i, row in enumerate(f.jacobian_ranges(lo, hi, slack)):
        first, terms = _classified_row(i, row, epsilon)
        rows.append((first, terms))
        if terms:
            live = True
    return _checked_bracket(f.g_factory(rows)(lo + hi, True), f.m), live


def _checked_bracket(g: list[float], m: int) -> list[tuple[float, float]]:
    """The endpoint pairs (g_i(lo, hi), g_i(hi, lo)) of the kernel output g.

    Raises UnboundedDerivativeError where an endpoint is not finite: each
    value of f_i is finite there, so its offset sum overflowed.  Where every
    endpoint is finite, raises the ValueError of Interval for the first pair
    whose lower endpoint exceeds its upper one.
    """
    bracket, disordered = [], None
    for i in range(m):
        a, b = g[i], g[m + i]
        if not (math.isfinite(a) and math.isfinite(b)):
            raise UnboundedDerivativeError(i + 1, None, f"bracket for f{i + 1} overflows: "
                                           f"f{i + 1} plus its offsets is not finite on the box")
        if a > b and disordered is None:
            disordered = a, b
        bracket.append((a, b))
    if disordered:
        iv_checked(*disordered)
    return bracket


def _fmt_coeff(c: float) -> str:
    return format(c, ".9g")


def format_decomposition(spec: DecompositionSpec, f: VectorField) -> list[str]:
    """Closed-form g_i as expression strings over x1..xn and y1..yn."""
    lines = []
    for i, (comp, (first, terms)) in enumerate(zip(f.components, spec.rows)):

        def name(index: int, first=first) -> str:
            return f"x{index}" if first[index - 1] else f"y{index}"

        s = to_string(comp, var_names=name)
        for j, c in terms:
            cs = _fmt_coeff(c)
            s += f" + {cs}*x{j + 1} - {cs}*y{j + 1}"
        lines.append(f"g{i + 1} = {s}")
    return lines

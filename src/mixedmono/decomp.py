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
from typing import Callable

import numpy as np

from .errors import DimensionError, EvalError, UnboundedDerivativeError
from .expr import to_string
from .interval import BoxDomain, Interval, iv_checked, iv_hull, iv_intersect
from .jacbounds import JacobianBounds, SignCase, VectorField, classify


@dataclass(frozen=True, eq=False)
class DecompositionSpec:
    """Per-entry argument selectors and offset vectors of a decomposition.

    use_first[i, j] is True when row i feeds x_j (the first argument) into
    f_i, False when it feeds y_j.  alpha is nonnegative, beta nonpositive;
    both are zero on sign-stable entries.
    """

    use_first: np.ndarray  # (m, n) bool
    alpha: np.ndarray      # (m, n) float, >= 0
    beta: np.ndarray       # (m, n) float, <= 0
    epsilon: float

    def __post_init__(self):
        uf = np.asarray(self.use_first, dtype=bool)
        al = np.asarray(self.alpha, dtype=float)
        be = np.asarray(self.beta, dtype=float)
        if uf.ndim != 2 or al.shape != uf.shape or be.shape != uf.shape:
            raise DimensionError("selector and offset matrices must share an (m, n) shape")
        if not np.all(np.isfinite(al)) or not np.all(np.isfinite(be)):
            raise ValueError("offsets must be finite")
        if np.any(al < 0.0) or np.any(be > 0.0):
            raise ValueError("alpha must be nonnegative and beta nonpositive")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and nonnegative")
        object.__setattr__(self, "use_first", uf)
        object.__setattr__(self, "alpha", al)
        object.__setattr__(self, "beta", be)

    @property
    def m(self) -> int:
        return self.use_first.shape[0]

    @property
    def n(self) -> int:
        return self.use_first.shape[1]

    def selector(self, i: int, j: int) -> str:
        """'x' or 'y': which argument row i feeds into coordinate j (0-based)."""
        return "x" if self.use_first[i, j] else "y"


def _classified(i: int, j: int, a: float, b: float,
                epsilon: float) -> tuple[bool, float, float]:
    """(use_first, alpha, beta) of entry (i, j), 0-based, with enclosure (a, b)."""
    if a == -math.inf and b == math.inf:
        raise UnboundedDerivativeError(i + 1, j + 1)
    case = classify(a, b)
    if case is SignCase.CASE2:
        return True, abs(a) + epsilon, 0.0
    if case is SignCase.CASE3:
        return False, 0.0, -(abs(b) + epsilon)
    return case is SignCase.CASE1, 0.0, 0.0


def build_decomposition(jb: JacobianBounds, epsilon: float = 0.0) -> DecompositionSpec:
    """Classify every enclosure and assemble selectors and offsets.

    Raises UnboundedDerivativeError naming the first (-inf, inf) entry, and
    propagates InvalidBoundsError from degenerate enclosures.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    m, n = jb.m, jb.n
    use_first = np.zeros((m, n), dtype=bool)
    alpha = np.zeros((m, n))
    beta = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            iv = jb.entry(i, j)
            use_first[i, j], alpha[i, j], beta[i, j] = _classified(i, j, iv.lo, iv.hi, epsilon)
    return DecompositionSpec(use_first, alpha, beta, float(epsilon))


def _row(f: VectorField, i: int, first: tuple[bool, ...], coef: list[float]):
    """One row of the kernel of g: the f.lowered pair of f_i for the selector
    row first, and the nonzero offset terms (j, alpha_ij - beta_ij)."""
    if not all(map(math.isfinite, coef)):
        raise ValueError("offsets must be finite")
    fx, fy = f.lowered(i, first)
    return fx, fy, tuple((j, c) for j, c in enumerate(coef) if c != 0.0)


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
    return _kernel(f.n, [_row(f, i, tuple(spec.use_first[i].tolist()),
                              (spec.alpha[i] - spec.beta[i]).tolist()) for i in range(f.m)])


def _kernel(n: int, rows: list) -> Callable[[list[float], bool], list[float]]:
    isfinite = math.isfinite

    def kernel(s: list[float], both: bool) -> list[float]:
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

    return kernel


def eval_decomposition(spec: DecompositionSpec, f: VectorField, x, y) -> np.ndarray:
    """g(x, y) componentwise, by one call of decomposition_kernel."""
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.size != f.n or ya.size != f.n:
        raise DimensionError(f"arguments must have {f.n} entries")
    return np.array(decomposition_kernel(spec, f)(xa.tolist() + ya.tolist(), False))


def bound_box(spec: DecompositionSpec, f: VectorField, box: BoxDomain) -> list[Interval]:
    """Range bracket of f over the box: component i is [g_i(lo, hi), g_i(hi, lo)].

    The decomposition must have been built from an enclosure valid on this
    box (or a superset); that is the caller's obligation.
    """
    if box.n != f.n:
        raise DimensionError(f"arguments must have {f.n} entries")
    g = decomposition_kernel(spec, f)(
        box.lower_corner().tolist() + box.upper_corner().tolist(), True)
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
    makes Intervals only for the result.  On each box the cached interval
    closures of the Jacobian (VectorField.jacobian_ranges) give the
    enclosures, classify and the per-row helper shared with
    decomposition_kernel turn them into the rows of g, and one kernel call
    gives the bracket, bit for bit the bracket of jacobian_bounds,
    build_decomposition and bound_box on that box.

    Args:
        f: vector field to bound.
        box: finite domain box.
        depth: number of bisection levels, >= 0.
        epsilon: offset margin passed to build_decomposition.
        slack: outward widening of the derivative enclosures; keep positive
            for fields with constant derivatives, pass 0 for exact bounds.

    Raises UnboundedDerivativeError if the top-level box has an unbounded
    entry; deeper recursion falls back to the parent bound instead.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if box.n != f.n:
        raise DimensionError(f"box has {box.n} axes but the field has n={f.n}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and nonnegative")
    bounds = _refine(f, box.lower_corner().tolist(), box.upper_corner().tolist(), depth,
                     epsilon, slack)
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
    mid = 0.5 * (lo[k] + hi[k])
    if not math.isfinite(mid):
        raise ValueError(f"box axis {k + 1} has no finite midpoint")
    children = []
    for clo, chi in ((lo, hi[:k] + [mid] + hi[k + 1:]), (lo[:k] + [mid] + lo[k + 1:], hi)):
        try:
            children.append(_refine(f, clo, chi, depth - 1, epsilon, slack))
        except UnboundedDerivativeError:
            children.append(parent)  # defensive: keep the sound parent bound
    return [iv_intersect(*iv_hull(*a, *b), *p) for a, b, p in zip(*children, parent)]


def _bracket(f: VectorField, lo: list[float], hi: list[float], epsilon: float,
             slack: float) -> list[tuple[float, float]]:
    """Depth-0 bracket endpoints over the box [lo, hi]."""
    entries = [[_classified(i, j, a, b, epsilon) for j, (a, b) in enumerate(row)]
               for i, row in enumerate(f.jacobian_ranges(lo, hi, slack))]
    rows = [_row(f, i, tuple(e[0] for e in row), [e[1] - e[2] for e in row])
            for i, row in enumerate(entries)]
    g = _kernel(f.n, rows)(lo + hi, True)
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
            c = spec.alpha[i, j] - spec.beta[i, j]
            if c != 0.0:
                cs = _fmt_coeff(c)
                s += f" + {cs}*x{j + 1} - {cs}*y{j + 1}"
        lines.append(f"g{i + 1} = {s}")
    return lines

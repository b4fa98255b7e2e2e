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
from .interval import BoxDomain, Interval, hull, intersect
from .jacbounds import JacobianBounds, SignCase, VectorField, classify, jacobian_bounds


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
            if iv.lo == -math.inf and iv.hi == math.inf:
                raise UnboundedDerivativeError(i + 1, j + 1)
            case = classify(iv.lo, iv.hi)
            use_first[i, j] = case in (SignCase.CASE1, SignCase.CASE2)
            if case is SignCase.CASE2:
                alpha[i, j] = abs(iv.lo) + epsilon
            elif case is SignCase.CASE3:
                beta[i, j] = -(abs(iv.hi) + epsilon)
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
    n = f.n
    rows = []
    for i in range(f.m):
        first = spec.use_first[i].tolist()
        coef = (spec.alpha[i] - spec.beta[i]).tolist()
        rows.append((f.lowered(i, tuple(j if first[j] else n + j for j in range(n))),
                     f.lowered(i, tuple(n + j if first[j] else j for j in range(n))),
                     tuple((j, c) for j, c in enumerate(coef) if c != 0.0)))
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


def _depth0(f: VectorField, box: BoxDomain, epsilon: float, slack: float) -> list[Interval]:
    jb = jacobian_bounds(f, box, slack=slack)
    spec = build_decomposition(jb, epsilon)
    return bound_box(spec, f, box)


def refine_bounds(f: VectorField, box: BoxDomain, depth: int, epsilon: float = 0.0,
                  slack: float = 1e-9) -> list[Interval]:
    """Divide-and-conquer range bounding.

    Depth 0 is bound_box on a decomposition rebuilt for this box.  Deeper
    levels split the widest axis at its midpoint, recurse one level shallower
    on each half, hull the child bounds componentwise, and intersect with
    this box's own depth-0 bound, so bounds are nested as depth grows.

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
    parent = _depth0(f, box, epsilon, slack)
    if depth == 0:
        return parent
    axis = box.widest_axis()
    if box[axis - 1].width == 0.0:
        return parent  # fully degenerate box, nothing to split
    children = []
    for half in box.split(axis):
        try:
            children.append(refine_bounds(f, half, depth - 1, epsilon, slack))
        except UnboundedDerivativeError:
            children.append(parent)  # defensive: keep the sound parent bound
    merged = [hull(a, b) for a, b in zip(*children)]
    return [intersect(h, p) for h, p in zip(merged, parent)]


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

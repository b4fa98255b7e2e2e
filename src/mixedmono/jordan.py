"""Total variation, monotone splits, and variation-based decompositions for scalar functions.

Two computation paths:

* smooth expressions: the derivative's sign changes are localized (coarse
  scan plus bisection), then |f'| is integrated piecewise by adaptive
  quadrature, with the pieces cached per function;
* expressions with kinks (abs/min/max): dyadic partition sums augmented with
  bisection-localized interior extrema, doubled until successive estimates
  stabilize.  The converged partition is kept with the running sums of
  |Δf| over its nodes, so the Jordan split reads f+ at any point of the
  domain from one partition by prefix sums.

The splits here complement the Jacobian-based construction in decomp: they
need no derivative enclosures, only bounded variation, at the price of a
generally wider bracket.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, EvalError, NonConvergenceError
from .expr import Expr, compile_expr, differentiate, is_smooth, parse, variables
from .interval import Interval

_SCAN_CELLS = 1024
_LOCALIZE_WIDTH = 1e-12
_PARTITION_START = 8
DEFAULT_MAX_CELLS = 2 ** 20


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use: the import costs more than
    the rest of the package, and only the smooth path needs it."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _bisect_sign_change(deriv: Callable[[float], float], a: float, b: float,
                        fa: float, fb: float) -> float:
    """Locate a sign change of deriv inside (a, b) to within _LOCALIZE_WIDTH."""
    for _ in range(100):
        if b - a <= _LOCALIZE_WIDTH:
            break
        m = 0.5 * (a + b)
        fm = deriv(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class _SignProfile:
    """Piecewise sign structure of f' over a window, with cached |f'| integrals."""

    def __init__(self, deriv: Callable[[float], float], lo: float, hi: float, tol: float):
        self.deriv = deriv
        self.lo, self.hi, self.tol = lo, hi, tol
        grid = np.linspace(lo, hi, _SCAN_CELLS + 1)
        vals = np.array([deriv(t) for t in grid])
        pts = [lo]
        for k in range(_SCAN_CELLS):
            a, b = float(grid[k]), float(grid[k + 1])
            fa, fb = float(vals[k]), float(vals[k + 1])
            if fa == 0.0 and a > pts[-1]:
                pts.append(a)
            if fa * fb < 0.0:
                c = self._bisect(a, b, fa, fb)
                if c > pts[-1]:
                    pts.append(c)
        if hi > pts[-1]:
            pts.append(hi)
        self.points = np.array(pts)
        count = len(pts) - 1
        self.signs = np.zeros(count)
        self.piece_tv = np.zeros(count)
        eps_piece = tol / (2.0 * max(count, 1))
        err_total = 0.0
        for k in range(count):
            a, b = pts[k], pts[k + 1]
            self.signs[k] = _sgn(deriv(0.5 * (a + b)))
            val, err = self._quad_abs(a, b, eps_piece)
            self.piece_tv[k] = val
            err_total += err
        if err_total > tol:
            raise NonConvergenceError(
                f"quadrature error {err_total:.3g} exceeds tolerance {tol:.3g}")
        neg = np.where(self.signs < 0.0, self.piece_tv, 0.0)
        self.cum = np.concatenate([[0.0], np.cumsum(self.piece_tv)])
        self.cum_neg = np.concatenate([[0.0], np.cumsum(neg)])

    def _bisect(self, a: float, b: float, fa: float, fb: float) -> float:
        return _bisect_sign_change(self.deriv, a, b, fa, fb)

    def _quad_abs(self, a: float, b: float, epsabs: float) -> tuple[float, float]:
        if b <= a:
            return 0.0, 0.0
        out = quad(lambda t: abs(self.deriv(t)), a, b, epsabs=epsabs, limit=200,
                   full_output=1)
        return float(out[0]), float(out[1])

    def _locate(self, a: float, b: float) -> tuple[int, int]:
        pts = self.points
        last = len(pts) - 2
        ka = min(max(int(np.searchsorted(pts, a, side="right")) - 1, 0), last)
        kb = min(max(int(np.searchsorted(pts, b, side="left")) - 1, 0), last)
        return ka, kb

    def _ranged(self, a: float, b: float, negative_only: bool) -> float:
        a = max(float(a), self.lo)
        b = min(float(b), self.hi)
        if b <= a:
            return 0.0
        pts = self.points
        piece = np.where(self.signs < 0.0, self.piece_tv, 0.0) if negative_only else self.piece_tv
        cum = self.cum_neg if negative_only else self.cum
        eps = self.tol / 4.0
        ka, kb = self._locate(a, b)

        def partial(u: float, v: float, k: int) -> float:
            if negative_only and self.signs[k] >= 0.0:
                return 0.0
            return self._quad_abs(u, v, eps)[0]

        if ka == kb:
            if a == pts[ka] and b == pts[ka + 1]:
                return float(piece[ka])
            return partial(a, b, ka)
        head = float(piece[ka]) if a == pts[ka] else partial(a, pts[ka + 1], ka)
        tail = float(piece[kb]) if b == pts[kb + 1] else partial(pts[kb], b, kb)
        return head + float(cum[kb] - cum[ka + 1]) + tail

    def tv(self, a: float, b: float) -> float:
        return self._ranged(a, b, negative_only=False)

    def neg_tv(self, a: float, b: float) -> float:
        """Variation contributed by the decreasing pieces only."""
        return self._ranged(a, b, negative_only=True)


@dataclass(eq=False)
class ScalarFunction:
    """A scalar expression of x1 on a finite interval, or on the whole line.

    domain=None marks the whole-line case used by the base-point construction
    in unbounded_decomposition.
    """

    expr: Expr
    domain: Optional[Interval] = None
    _f: Callable[[list[float]], float] = field(init=False, repr=False, compare=False)
    _df: Optional[Callable[[list[float]], float]] = field(default=None, init=False, repr=False,
                                                          compare=False)
    _prof: Optional[_SignProfile] = field(default=None, init=False, repr=False, compare=False)
    _partition_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _split_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unbounded_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        used = variables(self.expr)
        if used - {1}:
            raise DimensionError("scalar functions may only use x1")
        if self.domain is not None and not self.domain.is_finite():
            raise ValueError("domain must be finite (or None for the whole line)")
        self._f = compile_expr(self.expr)

    @classmethod
    def from_string(cls, text: str, lo: float, hi: float) -> "ScalarFunction":
        return cls(parse(text, 1), Interval(lo, hi))

    @classmethod
    def on_reals(cls, text: str) -> "ScalarFunction":
        return cls(parse(text, 1), None)

    def __call__(self, x: float) -> float:
        return self._f([float(x)])

    @property
    def smooth(self) -> bool:
        return is_smooth(self.expr)

    def derivative(self, t: float) -> float:
        if self._df is None:
            self._df = compile_expr(differentiate(self.expr, 1))
        return self._df([float(t)])

    def _profile(self, lo: float, hi: float, tol: float) -> _SignProfile:
        pr = self._prof
        if pr is not None and pr.lo <= lo and hi <= pr.hi and pr.tol <= tol:
            return pr
        new_lo = lo if pr is None else min(lo, pr.lo)
        new_hi = hi if pr is None else max(hi, pr.hi)
        new_tol = tol if pr is None else min(tol, pr.tol)
        self._prof = _SignProfile(self.derivative, new_lo, new_hi, new_tol)
        return self._prof


def _check_sub(f: ScalarFunction, sub: Interval):
    if not sub.is_finite():
        raise ValueError("variation is computed over finite intervals only")
    if f.domain is not None and not f.domain.contains_interval(sub):
        raise ValueError(
            f"[{sub.lo}, {sub.hi}] is outside the domain [{f.domain.lo}, {f.domain.hi}]")


def _interior_extrema(f: ScalarFunction, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Extremum locations detected from discrete slope sign changes, bisected on f'.

    Plain dyadic sums lose 2*slope*dist(extremum, grid) per extremum, and that
    distance can survive several doublings when the extremum sits just past a
    grid point; pinning each detected extremum removes the loss entirely.

    Zero counts as a slope sign of its own, so a cell whose two end values
    are equal is still bracketed.  An extremum inside the first or the last
    cell changes no slope sign, so those two cells are also bracketed by the
    signs of f' at their ends.
    """
    signs = np.sign(np.diff(vals))
    found = []

    def bracket(lo: float, hi: float, fallback: Optional[float]):
        try:
            da, db = f.derivative(lo), f.derivative(hi)
            if da * db < 0.0:
                found.append(_bisect_sign_change(f.derivative, lo, hi, da, db))
            elif fallback is not None:
                found.append(fallback)
        except EvalError:
            pass

    for k in range(len(signs) - 1):
        if signs[k] != signs[k + 1]:
            bracket(float(xs[k]), float(xs[k + 2]), float(xs[k + 1]))
    bracket(float(xs[0]), float(xs[1]), None)
    bracket(float(xs[-2]), float(xs[-1]), None)
    return found


class _Partition(NamedTuple):
    """A converged partition of [a, b]: its sorted nodes (the dyadic grid and
    the pinned extrema), f at each node, and cum[k], the sum of |Δf| over the
    first k cells, so cum[-1] is the variation over [a, b]."""

    nodes: list[float]
    vals: list[float]
    cum: list[float]


def _partition(f: ScalarFunction, a: float, b: float, tol: float, max_cells: int) -> _Partition:
    key = (a, b, tol, max_cells)
    cached = f._partition_cache.get(key)
    if cached is not None:
        return cached
    cells = _PARTITION_START
    prev = None
    small_diffs = 0
    while cells <= max_cells:
        xs = np.linspace(a, b, cells + 1)
        vals = np.array([f(x) for x in xs])
        extra = _interior_extrema(f, xs, vals)
        if extra:
            xs = np.concatenate([xs, extra])
            order = np.argsort(xs, kind="stable")
            xs = xs[order]
            vals = np.concatenate([vals, [f(x) for x in extra]])[order]
        cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)))])
        tv = float(cum[-1])
        if prev is not None:
            # one small difference can be a stall (a missed extremum keeps its
            # grid distance across a doubling), so demand two in a row
            small_diffs = small_diffs + 1 if abs(tv - prev) < tol else 0
            if small_diffs >= 2:
                part = f._partition_cache[key] = _Partition(xs.tolist(), vals.tolist(),
                                                            cum.tolist())
                return part
        prev = tv
        cells *= 2
    raise NonConvergenceError(
        f"partition sums did not stabilize to {tol:.3g} within {max_cells} cells")


def total_variation(f: ScalarFunction, sub: Interval, tol: float = 1e-8,
                    max_cells: int = DEFAULT_MAX_CELLS) -> float:
    """Total variation of f over sub.

    Smooth path integrates |f'| piecewise between localized sign changes;
    the kink path (abs/min/max in the tree) doubles dyadic partition sums,
    each augmented with the extrema detected at that resolution, until
    successive estimates differ by less than tol, raising
    NonConvergenceError at the cell cap.  The kink path's value is the last
    running sum of the converged partition, which jordan_split reads too.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _check_sub(f, sub)
    if sub.width == 0.0:
        return 0.0
    if f.smooth:
        return f._profile(sub.lo, sub.hi, tol).tv(sub.lo, sub.hi)
    return _partition(f, sub.lo, sub.hi, tol, max_cells).cum[-1]


@dataclass(eq=False)
class JordanSplit:
    """Monotone split f = f_plus + f_minus anchored at the domain's lower end.

    f_plus is nondecreasing with f_plus(lo) = 0; f_minus = f - f_plus is
    nonincreasing.  Evaluations are memoized; tol is the variation tolerance
    they were computed with.
    """

    fplus: Callable[[float], float]
    fminus: Callable[[float], float]
    tol: float


def jordan_split(f: ScalarFunction, tol: float = 1e-8,
                 max_cells: int = DEFAULT_MAX_CELLS) -> JordanSplit:
    """Split a finite-domain function of bounded variation into monotone halves.

    f_plus(x) is the variation of f over [lo, x].  On the kink path it is
    read from the partition that total_variation converged on over the whole
    domain: cum[k] + |f(x) - f(p_k)|, where p_k is the last node <= x.  At a
    node that is the prefix sum; elsewhere it is the variation of the
    partition refined by x.  So no second partition is built, f_plus is
    nondecreasing over the nodes, and f_plus(hi) is the total variation bit
    for bit.  The smooth path integrates |f'| over [lo, x] from the cached
    sign profile.  max_cells caps the kink path's partition, as in
    total_variation.
    """
    if f.domain is None:
        raise ValueError("a finite domain is required for a two-sided split")
    domain = f.domain
    # computing the full variation both validates bounded variation and warms caches
    total_variation(f, domain, tol, max_cells)
    if f.smooth or domain.width == 0.0:
        def variation_to(x: float) -> float:
            return total_variation(f, Interval(domain.lo, x), tol, max_cells)
    else:
        part = _partition(f, domain.lo, domain.hi, tol, max_cells)

        def variation_to(x: float) -> float:
            k = bisect_right(part.nodes, x) - 1
            return part.cum[k] + abs(f(x) - part.vals[k])
    memo: dict[float, float] = {}

    def fplus(x: float) -> float:
        x = float(x)
        if not domain.contains(x):
            raise ValueError(f"{x} outside the domain [{domain.lo}, {domain.hi}]")
        if x not in memo:
            memo[x] = variation_to(x)
        return memo[x]

    def fminus(x: float) -> float:
        return f(x) - fplus(x)

    return JordanSplit(fplus, fminus, tol)


def bv_decomposition_eval(f: ScalarFunction, x: float, y: float, tol: float = 1e-8) -> float:
    """Two-argument decomposition value g(x, y) from the variation structure.

    Smooth path: g(x, y) = f(x) + delta(x) - delta(y) where delta doubles the
    variation of the decreasing pieces from the domain's lower end.  Kink
    path: g(x, y) = f_plus(x) + f_minus(y) from the Jordan split.  Both agree
    with f on the diagonal, are nondecreasing in x and nonincreasing in y,
    and bracket f over [lo, hi] via g(lo, hi) <= f <= g(hi, lo).
    """
    if f.domain is None:
        raise ValueError("use unbounded_decomposition for whole-line functions")
    x, y = float(x), float(y)
    for v in (x, y):
        if not f.domain.contains(v):
            raise ValueError(f"{v} outside the domain [{f.domain.lo}, {f.domain.hi}]")
    if f.smooth:
        prof = f._profile(f.domain.lo, f.domain.hi, tol)
        lo = f.domain.lo
        return f(x) + 2.0 * prof.neg_tv(lo, x) - 2.0 * prof.neg_tv(lo, y)
    split = f._split_cache.get(tol)
    if split is None:
        split = jordan_split(f, tol)
        f._split_cache[tol] = split
    return split.fplus(x) + split.fminus(y)


@dataclass(eq=False)
class UnboundedSplit:
    """Whole-line split g(x, y) = g1(x) + g2(y) + f(0), assembled around 0.

    g1 is nondecreasing with g1 <= 0 left of 0 and g1 >= 0 right of it; g2 is
    nonincreasing with the opposite signs.  Both absorb the normalization
    h = f - f(0), whose value at 0 vanishes.
    """

    g1: Callable[[float], float]
    g2: Callable[[float], float]
    f_base: float
    tol: float


def unbounded_split(f: ScalarFunction, tol: float = 1e-8) -> UnboundedSplit:
    """Base-point construction for functions declared on the whole line.

    Requires bounded variation on every compact interval; each evaluation
    computes variation between the argument and the base point 0.
    """
    if f.domain is not None:
        raise ValueError("function must be declared on the whole line (domain=None)")
    cached = f._unbounded_cache.get(tol)
    if cached is not None:
        return cached
    f0 = f(0.0)

    def tv(a: float, b: float) -> float:
        return total_variation(f, Interval(a, b), tol)

    def g1(x: float) -> float:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("arguments must be finite")
        if x >= 0.0:
            return tv(0.0, x)
        return (f(x) - f0) - tv(x, 0.0)

    def g2(y: float) -> float:
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("arguments must be finite")
        if y >= 0.0:
            return (f(y) - f0) - tv(0.0, y)
        return tv(y, 0.0)

    out = UnboundedSplit(g1, g2, f0, tol)
    f._unbounded_cache[tol] = out
    return out


def unbounded_decomposition(f: ScalarFunction, x: float, y: float, tol: float = 1e-8) -> float:
    """g(x, y) = g1(x) + g2(y) + f(0); agrees with f on the diagonal."""
    s = unbounded_split(f, tol)
    return s.g1(x) + s.g2(y) + s.f_base

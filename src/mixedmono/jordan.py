"""Total variation, monotone splits, and variation-based decompositions for scalar functions.

One engine serves every function: dyadic partition sums, each augmented with
the interior extrema detected at that resolution (bisected on f'), doubled
until two successive estimates in a row differ by less than tol.  For a
smooth function the ladder may also stop only once its sum reaches a floor:
the partition sum over the zeros and bisected sign changes of f' on a fixed
scan grid, a lower bound on the variation as every partition sum is.  The
converged partition is kept with the running sums of |Δf| over its nodes,
so the variation, the Jordan split at any point of the domain, and the
whole-line construction are all read from it by prefix sums.

The splits here complement the Jacobian-based construction in decomp: they
need no derivative enclosures, only bounded variation, at the price of a
generally wider bracket.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from .errors import DimensionError, EvalError, NonConvergenceError
from .expr import Expr, compile_expr, differentiate, is_smooth, parse, variables
from .interval import Interval

_SCAN_CELLS = 1024
_LOCALIZE_WIDTH = 1e-12
_PARTITION_START = 8
# the ladder needs two small differences in a row, so it cannot stop before
# its third sum: a smaller cell cap can only end in NonConvergenceError
MIN_CELLS = 4 * _PARTITION_START
DEFAULT_MAX_CELLS = 2 ** 20


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use.  Nothing in the package
    calls it: perfbench/layers.py traces jordan.quad by name, and its --trace
    run fails with AttributeError without it.  It goes with that layer."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def linspace(a: float, b: float, cells: int) -> list[float]:
    """The cells + 1 evenly spaced points from a to b, bit for bit those of
    numpy.linspace(a, b, cells + 1): k*step + a with the last set to b, and
    (k/cells)*(b - a) + a where step underflows to 0."""
    step = (b - a) / cells
    if step == 0.0:
        xs = [(k / cells) * (b - a) + a for k in range(cells + 1)]
    else:
        xs = [k * step + a for k in range(cells + 1)]
    xs[-1] = b
    return xs


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
    _df_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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
        """f'(t), memoized: the ladder's grids nest in the scan's, and the
        bisections of one extremum at successive levels pass through the same
        midpoints, so about half of a smooth partition's calls repeat a point."""
        t = float(t)
        d = self._df_memo.get(t)
        if d is None:
            if self._df is None:
                self._df = compile_expr(differentiate(self.expr, 1))
            d = self._df_memo[t] = self._df([t])
        return d


def _check_tol(tol: float):
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _check_sub(f: ScalarFunction, sub: Interval):
    if not sub.is_finite():
        raise ValueError("variation is computed over finite intervals only")
    if f.domain is not None and not f.domain.contains_interval(sub):
        raise ValueError(
            f"[{sub.lo}, {sub.hi}] is outside the domain [{f.domain.lo}, {f.domain.hi}]")


def _interior_extrema(f: ScalarFunction, xs: list[float], vals: list[float]) -> list[float]:
    """Extremum locations detected from discrete slope sign changes, bisected on f'.

    Plain dyadic sums lose 2*slope*dist(extremum, grid) per extremum, and that
    distance can survive several doublings when the extremum sits just past a
    grid point; pinning each detected extremum removes the loss entirely.

    Zero counts as a slope sign of its own, so a cell whose two end values
    are equal is still bracketed.  An extremum inside the first or the last
    cell changes no slope sign, so those two cells are also bracketed by the
    signs of f' at their ends.
    """
    signs = [(v > u) - (v < u) for u, v in zip(vals, vals[1:])]
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
            bracket(xs[k], xs[k + 2], xs[k + 1])
    bracket(xs[0], xs[1], None)
    bracket(xs[-2], xs[-1], None)
    return found


class _Partition(NamedTuple):
    """A converged partition of [a, b]: its sorted nodes (the dyadic grid and
    the pinned extrema), f at each node, and cum[k], the sum of |Δf| over the
    first k cells, so cum[-1] is the variation over [a, b]."""

    nodes: list[float]
    vals: list[float]
    cum: list[float]

    def variation_to(self, f: ScalarFunction, x: float) -> float:
        """cum[k] + |f(x) - f(p_k)|, p_k the last node <= x: the prefix sum at a
        node, and elsewhere the sum of the partition refined by x."""
        k = bisect_right(self.nodes, x) - 1
        return self.cum[k] + abs(f(x) - self.vals[k])


def _variation_floor(f: ScalarFunction, a: float, b: float) -> float:
    """Partition sum of f over a, b and the zeros and bisected sign changes of
    f' on _SCAN_CELLS cells: a lower bound on the variation, as every
    partition sum is, that already resolves every extremum the scan sees."""
    grid = linspace(a, b, _SCAN_CELLS)
    d = [f.derivative(t) for t in grid]
    pts = [a]
    for k in range(_SCAN_CELLS):
        if d[k] == 0.0:
            pts.append(grid[k])
        elif d[k] * d[k + 1] < 0.0:
            pts.append(_bisect_sign_change(f.derivative, grid[k], grid[k + 1], d[k], d[k + 1]))
    pts.append(b)
    vals = [f(t) for t in pts]
    return sum(abs(v - u) for u, v in zip(vals, vals[1:]))


def _partition(f: ScalarFunction, a: float, b: float, tol: float, max_cells: int) -> _Partition:
    key = (a, b, tol, max_cells)
    cached = f._partition_cache.get(key)
    if cached is not None:
        return cached
    if a == b:
        return _Partition([a], [f(a)], [0.0])
    # two coarse sums can agree while both alias a fast oscillation, so a
    # smooth function's ladder also has to reach the scan's floor
    floor = _variation_floor(f, a, b) - tol if f.smooth else -math.inf
    cells = _PARTITION_START
    prev = None
    small_diffs = 0
    while cells <= max_cells:
        xs = linspace(a, b, cells)
        vals = [f(x) for x in xs]
        extra = _interior_extrema(f, xs, vals)
        if extra:
            # sorted stably by node: an extremum equal to a grid point stays after it
            pairs = sorted(zip(xs + extra, vals + [f(x) for x in extra]), key=lambda p: p[0])
            xs, vals = [x for x, _ in pairs], [v for _, v in pairs]
        cum = list(accumulate((abs(v - u) for u, v in zip(vals, vals[1:])), initial=0.0))
        tv = cum[-1]
        if prev is not None:
            # one small difference can be a stall (a missed extremum keeps its
            # grid distance across a doubling), so demand two in a row
            small_diffs = small_diffs + 1 if abs(tv - prev) < tol else 0
            if small_diffs >= 2 and tv >= floor:
                part = f._partition_cache[key] = _Partition(xs, vals, cum)
                return part
        prev = tv
        cells *= 2
    raise NonConvergenceError(
        f"partition sums did not stabilize to {tol:.3g} within {max_cells} cells")


def total_variation(f: ScalarFunction, sub: Interval, tol: float = 1e-8,
                    max_cells: int = DEFAULT_MAX_CELLS) -> float:
    """Total variation of f over sub.

    Doubles dyadic partition sums over sub, each augmented with the extrema
    detected at that resolution, until two successive estimates in a row
    differ by less than tol and, for a smooth f, the estimate is within tol
    of the floor from the scan of f'.  Raises NonConvergenceError at the
    cell cap max_cells, and ValueError unless 0 < tol < inf and max_cells
    is at least MIN_CELLS.  The value is the last running sum of the
    converged partition, which jordan_split reads too.
    """
    _check_tol(tol)
    if max_cells < MIN_CELLS:
        raise ValueError(f"max_cells must be at least {MIN_CELLS}, got {max_cells}")
    _check_sub(f, sub)
    if sub.width == 0.0:
        return 0.0
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

    f_plus(x) is the variation of f over [lo, x], read from the partition
    that total_variation converged on over the whole domain:
    cum[k] + |f(x) - f(p_k)|, where p_k is the last node <= x.  At a node
    that is the prefix sum; elsewhere it is the variation of the partition
    refined by x.  So no second partition is built, f_plus is nondecreasing
    over the nodes, and f_plus(hi) is the total variation bit for bit.
    max_cells caps the partition, and must be at least MIN_CELLS, as in
    total_variation.
    """
    if f.domain is None:
        raise ValueError("a finite domain is required for a two-sided split")
    domain = f.domain
    # validates tol and max_cells, and converges the partition that the split reads
    total_variation(f, domain, tol, max_cells)
    part = _partition(f, domain.lo, domain.hi, tol, max_cells)
    memo: dict[float, float] = {}

    def fplus(x: float) -> float:
        x = float(x)
        if not domain.contains(x):
            raise ValueError(f"{x} outside the domain [{domain.lo}, {domain.hi}]")
        if x not in memo:
            memo[x] = part.variation_to(f, x)
        return memo[x]

    def fminus(x: float) -> float:
        return f(x) - fplus(x)

    return JordanSplit(fplus, fminus, tol)


def bv_decomposition_eval(f: ScalarFunction, x: float, y: float, tol: float = 1e-8) -> float:
    """Two-argument decomposition value g(x, y) = f_plus(x) + f_minus(y).

    The halves come from the Jordan split, built once per tol and kept on f.
    g agrees with f on the diagonal, is nondecreasing in x and nonincreasing
    in y, and brackets f over [lo, hi] via g(lo, hi) <= f <= g(hi, lo).
    """
    if f.domain is None:
        raise ValueError("use unbounded_decomposition for whole-line functions")
    split = f._split_cache.get(tol)
    if split is None:
        split = f._split_cache[tol] = jordan_split(f, tol)
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

    Requires bounded variation on every compact interval.  g1 and g2 read
    the variation between their argument and the base point 0 from one
    partition of a window [lo, hi] around 0, by the prefix read of
    jordan_split.  An argument outside the window grows that side to at
    least twice its reach, and the window is partitioned again; so a sweep
    over arguments builds a few partitions, not one per argument.  Raises
    ValueError unless 0 < tol < inf.
    """
    if f.domain is not None:
        raise ValueError("function must be declared on the whole line (domain=None)")
    _check_tol(tol)
    cached = f._unbounded_cache.get(tol)
    if cached is not None:
        return cached
    f0 = f(0.0)
    lo = hi = 0.0
    part = _partition(f, lo, hi, tol, DEFAULT_MAX_CELLS)

    def from_0(x: float) -> float:
        """Variation of f over [0, x], or minus that over [x, 0] when x < 0."""
        nonlocal lo, hi, part
        if not math.isfinite(x):
            raise ValueError("arguments must be finite")
        if not lo <= x <= hi:
            lo, hi = (min(x, 2.0 * lo), hi) if x < lo else (lo, max(x, 2.0 * hi))
            part = _partition(f, lo, hi, tol, DEFAULT_MAX_CELLS)
        return part.variation_to(f, x) - part.variation_to(f, 0.0)

    def g1(x: float) -> float:
        x = float(x)
        v = from_0(x)
        return v if x >= 0.0 else (f(x) - f0) + v

    def g2(y: float) -> float:
        y = float(y)
        v = from_0(y)
        return (f(y) - f0) - v if y >= 0.0 else -v

    out = UnboundedSplit(g1, g2, f0, tol)
    f._unbounded_cache[tol] = out
    return out


def unbounded_decomposition(f: ScalarFunction, x: float, y: float, tol: float = 1e-8) -> float:
    """g(x, y) = g1(x) + g2(y) + f(0); agrees with f on the diagonal."""
    s = unbounded_split(f, tol)
    return s.g1(x) + s.g2(y) + s.f_base

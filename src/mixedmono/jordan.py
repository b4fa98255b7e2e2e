"""Total variation, monotone splits, and variation-based decompositions for scalar functions.

One engine serves every function: a partition of [a, b], from MIN_CELLS
equal cells, whose cells are certified by interval enclosures of f' and f''.
A one-signed enclosure of f' makes a cell monotone, so |Δf| is its exact
variation.  A one-signed enclosure of f'' makes f' monotone, so the cell is
monotone too, or its one extremum is pinned as a node by bisection on f'.
Every other cell carries a bound on the variation that |Δf| misses there,
and the cell with the largest bound is split until the bounds sum to at most
tol.  The partition is kept as a JordanSplit, with the running sums of |Δf|
over its nodes, so the variation, f⁺ and f⁻ at any point of the domain, the
decomposition g(x, y) = f⁺(x) + f⁻(y), and the whole-line construction are
all read from it by prefix sums.

The splits here complement the Jacobian-based construction in decomp: they
need only bounded variation, at the price of a generally wider bracket.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, count
from typing import Callable, Optional

from .errors import DimensionError, EvalError, NonConvergenceError, UnboundedDerivativeError
from .expr import Expr, parse, variables
from .interval import Interval, iv_mid
from .jacbounds import VectorField

# the partition starts from this many equal cells, so the cell cap must hold them
MIN_CELLS = 32
DEFAULT_MAX_CELLS = 2 ** 20
# a sign change of f' is bisected at least this often, even where f' is too
# small at the bracket's ends to show how much variation the bracket hides
_LEAST_STEPS = 10


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use.  Nothing in the package
    calls it: perfbench/layers.py traces jordan.quad by name, and its --trace
    run fails with AttributeError without it.  It goes with that layer."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def linspace(a: float, b: float, cells: int) -> list[float]:
    """The cells + 1 evenly spaced points from a to b, bit for bit those of
    numpy.linspace(a, b, cells + 1): k*step + a with the last set to b, and
    (k/cells)*(b - a) + a where step underflows to 0.  Where b - a overflows,
    and numpy's points are NaN, 2*(0.5*a + k*h) with h = (0.5*b - 0.5*a)/cells."""
    step = (b - a) / cells
    if step == 0.0:
        xs = [(k / cells) * (b - a) + a for k in range(cells + 1)]
    elif step == math.inf:
        h = (0.5 * b - 0.5 * a) / cells
        xs = [2.0 * (0.5 * a + k * h) for k in range(cells + 1)]
    else:
        xs = [k * step + a for k in range(cells + 1)]
    xs[-1] = b
    return xs


@dataclass(eq=False)
class ScalarFunction:
    """A scalar expression of x1 on a finite interval, or on the whole line.

    domain=None marks the whole-line case used by the base-point construction
    in unbounded_decomposition.  f and each derivative used are one-component
    VectorFields, the one owner of their compiled forms: f, then the field of
    each derivative, built on first use from the Jacobian tree of the last.
    """

    expr: Expr
    domain: Optional[Interval] = None
    _fields: list = field(default_factory=list, init=False, repr=False, compare=False)
    _f: Callable[[list[float]], float] = field(init=False, repr=False, compare=False)
    _partition_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unbounded_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        used = variables(self.expr)
        if used - {1}:
            raise DimensionError("scalar functions may only use x1")
        if self.domain is not None and not self.domain.is_finite():
            raise ValueError("domain must be finite (or None for the whole line)")
        self._fields.append(VectorField(1, (self.expr,)))
        self._f = self._fields[0].compiled[0]

    @classmethod
    def from_string(cls, text: str, lo: float, hi: float) -> "ScalarFunction":
        return cls(parse(text, 1), Interval(lo, hi))

    @classmethod
    def on_reals(cls, text: str) -> "ScalarFunction":
        return cls(parse(text, 1), None)

    def __call__(self, x: float) -> float:
        return self._f([float(x)])

    def _field(self, order: int) -> VectorField:
        """The field of the order-th derivative, built on first use."""
        while len(self._fields) <= order:
            self._fields.append(VectorField(1, self._fields[-1].jacobian[0]))
        return self._fields[order]

    def derivative(self, t: float) -> float:
        """f'(t)."""
        return self._field(1).compiled[0]([float(t)])

    def enclosure(self, order: int, lo: float, hi: float) -> tuple[float, float]:
        """An enclosure of f' (order 1) or f'' (order 2) over [lo, hi]: the
        Jacobian range of the field of order - 1, the whole line where it fails."""
        return self._field(order - 1).jacobian_ranges((lo,), (hi,), 0.0)[0][0]


def _check_tol(tol: float):
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _finite(v: float, what: str, *at: float) -> float:
    """v where it is finite, else UnboundedDerivativeError naming what.format(*at)."""
    if math.isfinite(v):
        return v
    raise UnboundedDerivativeError(1, None, what.format(*at) + " overflows the largest float")


def _check_sub(f: ScalarFunction, sub: Interval):
    if not sub.is_finite():
        raise ValueError("variation is computed over finite intervals only")
    if f.domain is not None and not f.domain.contains_interval(sub):
        raise ValueError(
            f"[{sub.lo}, {sub.hi}] is outside the domain [{f.domain.lo}, {f.domain.hi}]")


def _narrow(f: ScalarFunction, a: float, b: float, share: float):
    """The bracket (a, b, f'(a), f'(b)) of a sign change of f' between a and b.

    None where f'(a) and f'(b) do not have opposite signs.  Else bisects
    _LEAST_STEPS times, then until 2*max(|f'(a)|, |f'(b)|)*(b - a) < share
    or the bracket is one ulp wide; (m, m, 0, 0) where f'(m) = 0 at a
    midpoint m.  Raises EvalError where f' does."""
    da, db = f.derivative(a), f.derivative(b)
    if not (da < 0.0 < db or db < 0.0 < da):
        return None
    for k in count():
        m = iv_mid(a, b)
        if not a < m < b or k >= _LEAST_STEPS and 2.0 * max(abs(da), abs(db)) * (b - a) < share:
            break
        dm = f.derivative(m)
        if dm == 0.0:
            return m, m, 0.0, 0.0
        if (dm < 0.0) == (da < 0.0):
            a, da = m, dm
        else:
            b, db = m, dm
    return a, b, da, db


def _certify(f: ScalarFunction, x0: float, x1: float, dv: float, share: float):
    """(bound, pin) for the cell [x0, x1], over which f changes by dv: at most
    how much variation |dv| misses there, and the extremum pinned in it, or None.

    A one-signed enclosure of f' gives bound 0, and so does one of f'', which
    makes f' monotone, unless f' changes sign between the ends; then _narrow
    pins that one extremum, and 2*max|f'|*width of its bracket bounds what
    the two halves miss.  Otherwise f' lies in [lo, hi] over the width w, so
    the variation is at most max(-lo, hi)*w, 2*hi*w - dv and dv - 2*lo*w.
    """
    w = x1 - x0
    lo, hi = f.enclosure(1, x0, x1)
    if lo >= 0.0 or hi <= 0.0:
        return 0.0, None
    clo, chi = f.enclosure(2, x0, x1)
    if clo >= 0.0 or chi <= 0.0:
        try:
            found = _narrow(f, x0, x1, share)
            if found is None:
                return 0.0, None
            a, b, da, db = found
            return 2.0 * max(abs(da), abs(db)) * (b - a), iv_mid(a, b)
        except EvalError:
            pass
    return max(0.0, min(max(-lo, hi) * w, 2.0 * hi * w - dv, dv - 2.0 * lo * w) - abs(dv)), None


def _split_points(f: ScalarFunction, x0: float, x1: float, share: float) -> list[float]:
    """Where to split [x0, x1]: at both ends of the bracket that _narrow leaves
    around a sign change of f', which gives it a narrow cell of its own; else
    at the midpoint.  Only points inside the cell count."""
    try:
        found = _narrow(f, x0, x1, share)
    except EvalError:
        found = None
    points = sorted({found[0], found[1]}) if found else [iv_mid(x0, x1)]
    return [x for x in points if x0 < x < x1]


@dataclass(eq=False)
class JordanSplit:
    """Monotone split f = f⁺ + f⁻ of [a, b], read from a certified partition.

    nodes are its sorted nodes (the start grid, the splits and the pins),
    vals f at each node, and cum[k] the sum of |Δf| over the first k cells,
    so cum[-1] is within tol below the variation.  f⁺ is nondecreasing with
    f⁺(a) = 0 and f⁺(b) = cum[-1]; f⁻ = f - f⁺ is nonincreasing.  Each read
    raises UnboundedDerivativeError where its value passes the largest float.
    """

    f: ScalarFunction
    nodes: list[float]
    vals: list[float]
    cum: list[float]
    tol: float

    def fplus(self, x: float) -> float:
        """cum[k] + |f(x) - vals[k]|, p_k the last node <= x: the prefix sum at
        a node, and elsewhere the variation of the partition refined by x."""
        x = float(x)
        nodes = self.nodes
        if not nodes[0] <= x <= nodes[-1]:
            raise ValueError(f"{x} outside the domain [{nodes[0]}, {nodes[-1]}]")
        k = bisect_right(nodes, x) - 1
        return _finite(self.cum[k] + abs(self.f(x) - self.vals[k]), "f+({:.9g})", x)

    def fminus(self, x: float) -> float:
        return _finite(self.f(x) - self.fplus(x), "f-({:.9g})", x)

    def g(self, x: float, y: float) -> float:
        """The decomposition g(x, y) = f⁺(x) + f⁻(y).  It agrees with f on the
        diagonal, is nondecreasing in x and nonincreasing in y, and brackets f
        over [a, b] via g(a, b) <= f <= g(b, a)."""
        return _finite(self.fplus(x) + self.fminus(y), "g({:.9g}, {:.9g})", x, y)


def _partition(f: ScalarFunction, a: float, b: float, tol: float, max_cells: int) -> JordanSplit:
    """The partition of [a, b] whose cells' bounds sum to at most tol.

    max_cells caps the cells of the start grid and its splits; a pin adds a
    node inside a cell that is certified.  A pin stops below tol/2 times its
    cell's share of [a, b], so all pins miss at most tol/2.  A cell too
    narrow to split keeps its bound, unless that bound is infinite: then it
    raises UnboundedDerivativeError.  Raises NonConvergenceError where the
    bounds still sum to more than tol at the cap, or with no cell to split.
    """
    key = (a, b, tol, max_cells)
    cached = f._partition_cache.get(key)
    if cached is not None:
        return cached
    if a == b:
        return JordanSplit(f, [a], [f(a)], [0.0], tol)
    nodes = {x: f(x) for x in linspace(a, b, MIN_CELLS)}
    share = 0.5 * tol / (b - a)
    xs = list(nodes)
    cells = len(xs) - 1
    fixed = total = 0.0  # the bounds of the cells that stay whole; of all cells
    heap = []  # (-bound, x0, x1) for each cell that may be split
    while True:
        for x0, x1 in zip(xs, xs[1:]):
            bound, pin = _certify(f, x0, x1, nodes[x1] - nodes[x0], share * (x1 - x0))
            total += bound
            if pin is not None:
                nodes[pin] = f(pin)
                fixed += bound
            elif bound > 0.0:
                heapq.heappush(heap, (-bound, x0, x1))
        if not total > tol or not heap or cells >= max_cells:
            # the running total drifts by rounding, and is NaN once an
            # infinite bound leaves the heap: sum afresh before stopping
            total = fixed + math.fsum(-nb for nb, _, _ in heap)
            if not total > tol:
                break
            if not heap or cells >= max_cells:
                raise NonConvergenceError(
                    f"partition sums did not stabilize to {tol:.3g} within {max_cells} cells")
        nb, x0, x1 = heapq.heappop(heap)
        xs = _split_points(f, x0, x1, share * (x1 - x0))[:max_cells - cells]
        if xs:
            total += nb  # the bounds of its parts replace its own
            for x in xs:
                nodes[x] = f(x)
            cells += len(xs)
            xs = [x0, *xs, x1]
        elif nb == -math.inf:
            # f' has no finite enclosure even on a cell too narrow to split, so
            # the bounds can never sum to tol: f has a pole or a 0/0 there
            raise UnboundedDerivativeError(1, 1, f"f' is unbounded near x1 = {x0:.9g}, "
                                                 "on a cell too narrow to split")
        else:
            fixed -= nb
    xs = sorted(nodes)
    vals = [nodes[x] for x in xs]
    cum = list(accumulate((abs(v - u) for u, v in zip(vals, vals[1:])), initial=0.0))
    part = f._partition_cache[key] = JordanSplit(f, xs, vals, cum, tol)
    return part


def total_variation(f: ScalarFunction, sub: Interval, tol: float = 1e-8,
                    max_cells: int = DEFAULT_MAX_CELLS) -> float:
    """Total variation of f over sub, to within tol from below.

    The last running sum of the certified partition of sub, which
    jordan_split reads too.  Raises NonConvergenceError where the bounds on
    what its cells miss sum to more than tol at the cell cap max_cells,
    UnboundedDerivativeError where f' is unbounded on a cell too narrow to
    split (a pole, or a 0/0 like x1/x1) or the sum passes the largest float,
    and ValueError unless 0 < tol < inf and max_cells is at least MIN_CELLS.
    """
    _check_tol(tol)
    if max_cells < MIN_CELLS:
        raise ValueError(f"max_cells must be at least {MIN_CELLS}, got {max_cells}")
    _check_sub(f, sub)
    if sub.width == 0.0:
        return 0.0
    return _finite(_partition(f, sub.lo, sub.hi, tol, max_cells).cum[-1],
                   "total variation over [{:.9g}, {:.9g}]", sub.lo, sub.hi)


def jordan_split(f: ScalarFunction, tol: float = 1e-8,
                 max_cells: int = DEFAULT_MAX_CELLS) -> JordanSplit:
    """The Jordan split of a finite-domain function of bounded variation.

    It is the partition that total_variation converged on over the whole
    domain, so no second partition is built, f⁺ is nondecreasing over the
    nodes, and f⁺(hi) is the total variation bit for bit.  max_cells caps
    the partition, and must be at least MIN_CELLS, as in total_variation.
    """
    if f.domain is None:
        raise ValueError("a finite domain is required for a two-sided split")
    # validates tol and max_cells, and converges the partition returned below
    total_variation(f, f.domain, tol, max_cells)
    return _partition(f, f.domain.lo, f.domain.hi, tol, max_cells)


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
    the variation between their argument and the base point 0 from the
    partition of one window per side of 0, [-r, 0] or [0, r'], as the
    difference of its f⁺ at both; so a read on one side never depends on
    reads on the other.  An argument outside its side's window grows that
    window to at least twice its reach, capped at the largest float, and
    partitions it again; so a sweep over arguments builds a few partitions,
    not one per argument.  Raises ValueError unless 0 < tol < inf; g1 and g2
    raise UnboundedDerivativeError where their value passes the largest float.
    """
    if f.domain is not None:
        raise ValueError("function must be declared on the whole line (domain=None)")
    _check_tol(tol)
    cached = f._unbounded_cache.get(tol)
    if cached is not None:
        return cached
    f0 = f(0.0)
    reach = [0.0, 0.0]  # the windows [-reach[0], 0] and [0, reach[1]]
    parts = [None, None]  # their partitions, made on the first read of each side

    def from_0(x: float) -> float:
        """Variation of f over [0, x], or minus that over [x, 0] when x < 0."""
        if not math.isfinite(x):
            raise ValueError("arguments must be finite")
        side = x >= 0.0  # indexes the lists as 0 or 1
        if parts[side] is None or abs(x) > reach[side]:
            r = reach[side] = max(abs(x), min(2.0 * reach[side], sys.float_info.max))
            lo, hi = (0.0, r) if side else (-r, 0.0)
            parts[side] = _partition(f, lo, hi, tol, DEFAULT_MAX_CELLS)
        return parts[side].fplus(x) - parts[side].fplus(0.0)

    def g1(x: float) -> float:
        x = float(x)
        v = from_0(x)
        return _finite(v if x >= 0.0 else (f(x) - f0) + v, "g1({:.9g})", x)

    def g2(y: float) -> float:
        y = float(y)
        v = from_0(y)
        return _finite((f(y) - f0) - v if y >= 0.0 else -v, "g2({:.9g})", y)

    out = UnboundedSplit(g1, g2, f0, tol)
    f._unbounded_cache[tol] = out
    return out


def unbounded_decomposition(f: ScalarFunction, x: float, y: float, tol: float = 1e-8) -> float:
    """g(x, y) = g1(x) + g2(y) + f(0); agrees with f on the diagonal.
    Raises UnboundedDerivativeError where a term or the sum is not finite."""
    s = unbounded_split(f, tol)
    return _finite(s.g1(x) + s.g2(y) + s.f_base, "g({:.9g}, {:.9g})", x, y)

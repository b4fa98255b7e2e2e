"""Interval range rules on float endpoints, checked endpoint pairs, and finite boxes.

The range rules are the iv_* functions below; expr.lower_intervals runs
them.  An Interval is a checked endpoint pair with no arithmetic of its own,
and a BoxDomain is one finite Interval per axis.  The only order used
anywhere in this package is the positive-orthant one: p <= q componentwise.
Intervals may have infinite endpoints (never both of the same sign); boxes
are always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError

_INF = math.inf
_TWO_PI = 2.0 * math.pi


def _fpow(x: float, n: int) -> float:
    # float ** int raises OverflowError instead of returning inf
    try:
        return x ** n
    except OverflowError:
        return _INF if (x > 0.0 or n % 2 == 0) else -_INF


def _fexp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _contains_angle(lo: float, hi: float, theta: float) -> bool:
    """Is theta + 2*pi*k inside [lo, hi] for some integer k?"""
    k = math.ceil((lo - theta) / _TWO_PI)
    return theta + k * _TWO_PI <= hi


def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _step(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return 0.0
    return 0.5


# -- range rules on endpoints ---------------------------------------------------
#
# Each rule takes the float endpoints of valid intervals and returns the
# endpoints (lo, hi) of the image.  A rule whose image can leave the valid
# intervals (overflow to [inf, inf], say) checks it and raises the ValueError
# that Interval itself raises.  These rules are the package's one interval
# arithmetic: each op node of the shared-node program of expr._program holds
# its rule, which expr.lower_intervals calls, and decomp's bisection hulls
# and intersects its brackets with iv_hull and iv_intersect.

def iv_checked(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) when they are the endpoints of an Interval; Interval's ValueError otherwise."""
    if lo <= hi and lo != _INF and hi != -_INF:  # NaN fails lo <= hi
        return lo, hi
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"interval lower endpoint {lo} exceeds upper endpoint {hi}")
    raise ValueError("interval endpoints must not both be infinite with the same sign")


def iv_neg(lo: float, hi: float) -> tuple[float, float]:
    return -hi, -lo


def iv_add(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return iv_checked(alo + blo, ahi + bhi)


def iv_sub(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return iv_checked(alo - bhi, ahi - blo)


def iv_mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    p, q, r, s = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    if p != p or q != q or r != r or s != s:
        # 0 * +-inf: the exact product over the interval is 0
        p, q, r, s = (0.0 if v != v else v for v in (p, q, r, s))
    # min and max of (p, q, r, s), the first of equal values winning as in
    # the builtins (which keeps the sign of a zero result)
    lo = hi = p
    for v in (q, r, s):
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    return iv_checked(lo, hi)


def iv_div(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    if blo > 0.0 or bhi < 0.0:
        return iv_mul(alo, ahi, *iv_checked(1.0 / bhi, 1.0 / blo))
    # divisor touches or straddles zero: extended-real result
    if blo == 0.0 and bhi > 0.0:
        if alo >= 0.0:
            return iv_checked(alo / bhi, _INF)
        if ahi <= 0.0:
            return iv_checked(-_INF, ahi / bhi)
    elif bhi == 0.0 and blo < 0.0:
        if alo >= 0.0:
            return iv_checked(-_INF, alo / blo)
        if ahi <= 0.0:
            return iv_checked(ahi / blo, _INF)
    return -_INF, _INF


def iv_power(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Tight image of x^n (exact range, not repeated products)."""
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        return iv_div(1.0, 1.0, *iv_power(lo, hi, -n))
    if n % 2 == 1:
        return iv_checked(_fpow(lo, n), _fpow(hi, n))
    a, b = abs(lo), abs(hi)
    top = _fpow(max(a, b), n)
    if lo <= 0.0 <= hi:
        return iv_checked(0.0, top)
    return iv_checked(_fpow(min(a, b), n), top)


def iv_abs(lo: float, hi: float) -> tuple[float, float]:
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def iv_exp(lo: float, hi: float) -> tuple[float, float]:
    return iv_checked(_fexp(lo), _fexp(hi))


def iv_sin(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    a, b = math.sin(lo), math.sin(hi)
    top = 1.0 if _contains_angle(lo, hi, 0.5 * math.pi) else max(a, b)
    bottom = -1.0 if _contains_angle(lo, hi, -0.5 * math.pi) else min(a, b)
    return bottom, top


def iv_cos(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    a, b = math.cos(lo), math.cos(hi)
    top = 1.0 if _contains_angle(lo, hi, 0.0) else max(a, b)
    bottom = -1.0 if _contains_angle(lo, hi, math.pi) else min(a, b)
    return bottom, top


def iv_min(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return min(alo, blo), min(ahi, bhi)


def iv_max(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return max(alo, blo), max(ahi, bhi)


def iv_sign(lo: float, hi: float) -> tuple[float, float]:
    return _sgn(lo), _sgn(hi)


def iv_step(lo: float, hi: float) -> tuple[float, float]:
    return _step(lo), _step(hi)


def iv_jump(lo: float, hi: float) -> tuple[float, float]:
    """Image of the derivative of a unit jump at 0: a nonnegative mass, of
    unknown size, where the range holds 0, and nothing elsewhere."""
    return (0.0, _INF) if lo <= 0.0 <= hi else (0.0, 0.0)


def iv_hull(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return min(alo, blo), max(ahi, bhi)


def iv_intersect(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    lo, hi = max(alo, blo), min(ahi, bhi)
    if lo > hi:
        raise ValueError(f"intervals [{alo}, {ahi}] and [{blo}, {bhi}] are disjoint")
    return lo, hi


def iv_mid(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi]: where lo + hi overflows, the sum of the
    halves, which cannot, and lies in [lo, hi]."""
    m = 0.5 * (lo + hi)
    return m if math.isfinite(m) else 0.5 * lo + 0.5 * hi


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], checked by iv_checked; endpoints may be
    infinite but never NaN.  Its arithmetic is the iv_* rules on lo and hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = iv_checked(float(self.lo), float(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, v: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= v <= self.hi + slack

    def contains_interval(self, other: "Interval", slack: float = 0.0) -> bool:
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


def leq_orthant(p: Sequence[float], q: Sequence[float]) -> bool:
    """Componentwise p <= q (the positive-orthant partial order)."""
    if len(p) != len(q):
        raise DimensionError(f"cannot order {len(p)} entries against {len(q)}")
    return all(a <= b for a, b in zip(p, q))


@dataclass(frozen=True)
class BoxDomain:
    """Finite axis-aligned box, one Interval per coordinate."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs:
            raise DimensionError("box needs at least one axis")
        for k, iv in enumerate(ivs):
            if not iv.is_finite():
                raise ValueError(f"box axis {k + 1} must be finite, got [{iv.lo}, {iv.hi}]")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[float, float]]) -> "BoxDomain":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def __getitem__(self, k: int) -> Interval:
        return self.intervals[k]

    def lower_corner(self) -> list[float]:
        return [iv.lo for iv in self.intervals]

    def upper_corner(self) -> list[float]:
        return [iv.hi for iv in self.intervals]

    def widths(self) -> list[float]:
        return [iv.width for iv in self.intervals]

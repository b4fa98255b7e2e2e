"""Vector fields, derivative enclosures over boxes, and the four-way sign classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InvalidBoundsError
from .expr import Expr, compile_expr, differentiate, lower, lower_interval, parse, variables
from .interval import BoxDomain, Interval, iv_widen


@dataclass(frozen=True)
class VectorField:
    """f: R^n -> R^m given componentwise as expression trees over x1..xn.

    The compiled components, the Jacobian trees with their interval
    closures, and the slot-lowered closures are built on first use and kept
    on the instance.
    """

    n: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DimensionError("vector field needs at least one component")
        for i, c in enumerate(comps):
            used = variables(c)
            if used and max(used) > self.n:
                raise DimensionError(
                    f"component f{i + 1} uses x{max(used)} but the field has n={self.n}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_strings(cls, texts: Sequence[str], n: int) -> "VectorField":
        return cls(n, tuple(parse(t, n) for t in texts))

    @property
    def m(self) -> int:
        return len(self.components)

    @cached_property
    def compiled(self) -> tuple[Callable[[Sequence[float]], float], ...]:
        """compile_expr of each component."""
        return tuple(compile_expr(c) for c in self.components)

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Row i holds the trees of df_{i+1}/dx_1 .. df_{i+1}/dx_n."""
        return tuple(tuple(differentiate(c, j) for j in range(1, self.n + 1))
                     for c in self.components)

    @cached_property
    def jacobian_interval(self) -> tuple[tuple[Callable, ...], ...]:
        """lower_interval of each tree of jacobian, in the same layout."""
        return tuple(tuple(lower_interval(d) for d in row) for row in self.jacobian)

    def jacobian_ranges(self, lo: Sequence[float], hi: Sequence[float],
                        slack: float) -> list[list[tuple[float, float]]]:
        """Endpoints of each df_i/dx_j enclosed over the box [lo, hi], widened by slack.

        An entry whose range is no interval (it overflows to [inf, inf], say)
        is enclosed by the whole line, which is always sound.
        """
        if slack < 0.0:
            raise ValueError("slack must be nonnegative")
        return [[iv_widen(*_enclose(d, lo, hi), slack) for d in row]
                for row in self.jacobian_interval]

    def lowered(self, i: int, first: tuple[bool, ...]) -> tuple[Callable, Callable]:
        """f_{i+1} lowered onto a list x + y of 2n floats, built once per (i, first).

        The first closure reads x_j where first[j] is true and y_j elsewhere;
        the second reads the swapped slots, so it computes the same selection
        from y + x.
        """
        pair = self._lowered.get((i, first))
        if pair is None:
            n, comp = self.n, self.components[i]
            pair = self._lowered[(i, first)] = (
                lower(comp, tuple(j if u else n + j for j, u in enumerate(first))),
                lower(comp, tuple(n + j if u else j for j, u in enumerate(first))))
        return pair

    @cached_property
    def _lowered(self) -> dict:
        return {}

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        p = np.asarray(point, dtype=float).reshape(-1).tolist()
        return np.array([fn(p) for fn in self.compiled])


def _enclose(d: Callable, lo: Sequence[float], hi: Sequence[float]) -> tuple[float, float]:
    try:
        return d(lo, hi)
    except ValueError:
        return -math.inf, math.inf


class SignCase(Enum):
    """The four derivative-enclosure classes.

    CASE1: a >= 0, sign-stable nonnegative          -> z takes the first argument
    CASE2: a < 0 < b (or b infinite), |a| <= |b|    -> first argument plus alpha offset
    CASE3: a < 0 < b (or a infinite), |a| >  |b|    -> second argument plus beta offset
    CASE4: b <= 0, sign-stable nonpositive          -> z takes the second argument
    """

    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"


def classify(a: float, b: float) -> SignCase:
    """Deterministic case for an open enclosure (a, b) of a partial derivative.

    a >= 0 wins CASE1 even with b infinite; b <= 0 wins CASE4 likewise; the
    sign-unstable tie |a| = |b| goes to CASE2.
    """
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        raise InvalidBoundsError("enclosure endpoints must not be NaN")
    if math.isinf(a) and math.isinf(b):
        raise InvalidBoundsError("enclosure (-inf, inf) cannot be classified")
    if a >= b:
        raise InvalidBoundsError(f"enclosure needs a < b, got ({a}, {b})")
    if a >= 0.0:
        return SignCase.CASE1
    if b <= 0.0:
        return SignCase.CASE4
    return SignCase.CASE2 if abs(a) <= abs(b) else SignCase.CASE3


@dataclass(frozen=True)
class JacobianBounds:
    """m x n open enclosures (a_ij, b_ij) of df_i/dx_j over a box."""

    entries: tuple[tuple[Interval, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Interval:
        """0-based row/column access."""
        return self.entries[i][j]

    def unbounded_entries(self) -> list[tuple[int, int]]:
        """0-based (i, j) positions whose enclosure is (-inf, inf)."""
        out = []
        for i, row in enumerate(self.entries):
            for j, iv in enumerate(row):
                if iv.lo == -math.inf and iv.hi == math.inf:
                    out.append((i, j))
        return out


def jacobian_bounds(f: VectorField, box: BoxDomain, slack: float = 1e-9) -> JacobianBounds:
    """Enclose every df_i/dx_j over the box by natural interval extension.

    Each entry is the cached interval closure of the tree f.jacobian[i][j]
    over the box (f.jacobian_ranges), widened outward by slack; slack > 0
    also keeps constant derivatives nondegenerate so they classify cleanly.
    Unbounded entries (infinite endpoints) are recorded, not raised;
    downstream constructions decide whether they are fatal.
    """
    if box.n != f.n:
        raise DimensionError(f"box has {box.n} axes but the field has n={f.n}")
    ranges = f.jacobian_ranges(box.lower_corner().tolist(), box.upper_corner().tolist(), slack)
    return JacobianBounds(tuple(tuple(Interval(a, b) for a, b in row) for row in ranges))

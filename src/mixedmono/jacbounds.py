"""Vector fields, derivative enclosures over boxes, and the four-way sign classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .errors import DimensionError, InvalidBoundsError
from .expr import (Expr, checked, differentiate, lower_factory, lower_intervals, parse,
                   variables)
from .interval import BoxDomain, Interval


@dataclass(frozen=True)
class VectorField:
    """f: R^n -> R^m given componentwise as expression trees over x1..xn.

    The compiled factory of each component, the evaluators it binds, and
    the Jacobian trees with their shared-node interval evaluator are built
    on first use and kept on the instance.  It is the one owner of these
    forms: jordan.ScalarFunction reads f, f' and f'' through one field each.
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
    def _factories(self) -> tuple[Callable, ...]:
        """lower_factory of each component: the one compile of each tree."""
        return tuple(lower_factory(c) for c in self.components)

    @cached_property
    def compiled(self) -> tuple[Callable[[Sequence[float]], float], ...]:
        """Each component evaluated with the checks of compile_expr."""
        return tuple(checked(make(range(self.n))) for make in self._factories)

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Row i holds the trees of df_{i+1}/dx_1 .. df_{i+1}/dx_n."""
        return tuple(tuple(differentiate(c, j) for j in range(1, self.n + 1))
                     for c in self.components)

    @cached_property
    def jacobian_interval(self) -> Callable[[Sequence[float], Sequence[float]], list]:
        """lower_intervals of the trees of jacobian, row by row: one shared-node list."""
        return lower_intervals([d for row in self.jacobian for d in row])

    def jacobian_ranges(self, lo: Sequence[float], hi: Sequence[float],
                        slack: float) -> list[list[tuple[float, float]]]:
        """Endpoints of each df_i/dx_j enclosed over the box [lo, hi], widened by slack.

        One run of jacobian_interval encloses all m*n entries, each shared
        subtree once.  An entry whose range is no interval (it overflows to
        [inf, inf], say) is enclosed by the whole line, which is always
        sound; the other entries keep their enclosures.
        """
        if not slack >= 0.0:
            raise ValueError("slack must be nonnegative")
        flat = [(-math.inf, math.inf) if isinstance(r, ValueError) else r
                for r in self.jacobian_interval(lo, hi)]
        if slack:  # a widened interval is an interval: no check per entry
            flat = [(a - slack, b + slack) for a, b in flat]
        n = self.n
        return [flat[k:k + n] for k in range(0, len(flat), n)]

    def lowered(self, i: int, first: tuple[bool, ...]) -> tuple[Callable, Callable]:
        """f_{i+1} bound onto a list x + y of 2n floats, once per (i, first).

        The first function reads x_j where first[j] is true and y_j elsewhere;
        the second reads the swapped slots, so it computes the same selection
        from y + x.  Both bind the one factory of f_{i+1}, so no selector row
        compiles anything.
        """
        pair = self._lowered.get((i, first))
        if pair is None:
            n, make = self.n, self._factories[i]
            pair = self._lowered[(i, first)] = (
                make(tuple(j if u else n + j for j, u in enumerate(first))),
                make(tuple(n + j if u else j for j, u in enumerate(first))))
        return pair

    @cached_property
    def _lowered(self) -> dict:
        return {}

    def evaluate(self, point: Sequence[float]) -> list[float]:
        p = [float(v) for v in point]
        return [fn(p) for fn in self.compiled]


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


# module globals: looking a member up on the Enum class costs more than the
# rest of classify
_CASE1, _CASE2, _CASE3, _CASE4 = SignCase.CASE1, SignCase.CASE2, SignCase.CASE3, SignCase.CASE4


def classify(a: float, b: float) -> SignCase:
    """Deterministic case for an open enclosure (a, b) of a partial derivative.

    a >= 0 wins CASE1 even with b infinite; b <= 0 wins CASE4 likewise; the
    sign-unstable tie |a| = |b| goes to CASE2.  A finite point enclosure
    a == b, a constant derivative enclosed with no slack, is sign-stable.
    """
    if a < b and (a > -math.inf or b < math.inf):  # neither NaN, not (-inf, inf)
        if a >= 0.0:
            return _CASE1
        if b <= 0.0:
            return _CASE4
        return _CASE2 if abs(a) <= abs(b) else _CASE3
    if a == b and math.isfinite(a):
        return _CASE1 if a >= 0.0 else _CASE4
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        raise InvalidBoundsError("enclosure endpoints must not be NaN")
    if math.isinf(a) and math.isinf(b):
        raise InvalidBoundsError("enclosure (-inf, inf) cannot be classified")
    raise InvalidBoundsError(f"enclosure needs a < b, got ({a}, {b})")


def jacobian_bounds(f: VectorField, box: BoxDomain, slack: float = 1e-9) -> list[list[Interval]]:
    """Enclose every df_i/dx_j over the box by natural interval extension.

    Returns the m rows of n open enclosures: entry [i][j] encloses
    df_{i+1}/dx_{j+1}.  It is the enclosure of the tree f.jacobian[i][j]
    over the box by the cached shared-node evaluator (f.jacobian_ranges),
    widened outward by slack.  With slack = 0 a constant derivative c has the point
    enclosure (c, c), which classify takes as sign-stable.
    Unbounded entries (infinite endpoints) are recorded, not raised;
    downstream constructions decide whether they are fatal.
    """
    if box.n != f.n:
        raise DimensionError(f"box has {box.n} axes but the field has n={f.n}")
    ranges = f.jacobian_ranges(box.lower_corner(), box.upper_corner(), slack)
    return [[Interval(a, b) for a, b in row] for row in ranges]

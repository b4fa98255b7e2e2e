"""Embedding systems and reach tubes.

Stacking a decomposition g into xdot = g(x, y), ydot = g(y, x) doubles the
state and makes the flow order-preserving; integrating the stacked system
from (box lower corner, box upper corner) then brackets every trajectory of
the original field started inside the box, as long as the decomposition's
enclosure stays valid along the way.

Classical RK4 runs on Python lists of 2n floats (0.5*h and h/6 formed
first, the stage sum taken left to right), and the ReachTube holds those
lists: its times, and one row of n floats per time for each of lower and
upper.  Each stage makes one call of EmbeddingSystem.rhs, which returns
g(x, y) and g(y, x) from one call of the field's compiled kernel
(decomp.decomposition_kernel, compiled once per field): it checks the state
once, forms the offsets once, and runs f_1 .. f_m as straight-line code for
each half, with no call per component.  The design follows immrax
(Harapanahalli, Jafarpour & Coogan, 2023), which builds the embedding system
from an inclusion function and compiles it once, through JAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BlowupError, DimensionError, EvalError
from .decomp import DecompositionSpec, decomposition_kernel
from .interval import leq_orthant
from .jacbounds import VectorField

DEFAULT_STEP = 1e-3
MAGNITUDE_CAP = 1e12  # a state entry past it is divergence


@dataclass(eq=False)
class EmbeddingSystem:
    """The 2n-dimensional stacked system for a square field and its decomposition;
    a field that is not square raises DimensionError when the system is built."""

    field: VectorField
    spec: DecompositionSpec

    def __post_init__(self):
        f = self.field
        if f.m != f.n:
            raise DimensionError(f"embedding needs a square field, got m={f.m}, n={f.n}")
        self._kernel = decomposition_kernel(self.spec, f)

    @property
    def n(self) -> int:
        return self.field.n

    def rhs(self, state: Sequence[float]) -> list[float]:
        """g(x, y) followed by g(y, x), for state = x + y, a sequence of 2n floats.

        A list goes to the kernel as it is, so its entries must be floats, as
        those of every RK4 stage are; any other sequence is copied to one."""
        if len(state) != 2 * self.field.n:
            raise DimensionError(f"arguments must have {self.field.n} entries")
        if type(state) is not list:
            state = list(map(float, state))
        return self._kernel(state, True)


@dataclass(eq=False)
class ReachTube:
    """Componentwise bounds lower(t) <= x(t) <= upper(t) on a shared time grid."""

    times: list[float]          # N times, starting at 0, strictly increasing
    lower: list[list[float]]    # N rows of n floats
    upper: list[list[float]]    # N rows of n floats
    step: float

    @property
    def n(self) -> int:
        return len(self.lower[0])

    def final(self) -> tuple[float, list[float], list[float]]:
        return self.times[-1], self.lower[-1], self.upper[-1]


def _rk4_step(rhs, state: list[float], h: float) -> list[float]:
    hh = 0.5 * h
    k1 = rhs(state)
    k2 = rhs([v + hh * d for v, d in zip(state, k1)])
    k3 = rhs([v + hh * d for v, d in zip(state, k2)])
    k4 = rhs([v + h * d for v, d in zip(state, k3)])
    h6 = h / 6.0
    return [v + h6 * (((a + 2.0 * b) + 2.0 * c) + d)
            for v, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _whole_steps(t_end: float, step: float) -> int:
    ratio = t_end / step
    near = round(ratio)
    if abs(ratio - near) <= 1e-9 * max(1.0, abs(near)):
        return int(near)
    return int(ratio)


def integrate_embedding(system: EmbeddingSystem, x_lo: Sequence[float],
                        x_hi: Sequence[float], t_end: float,
                        step: float = DEFAULT_STEP) -> ReachTube:
    """Integrate the stacked system from (x_lo, x_hi) with classical RK4.

    The tube has floor(t_end/step) + 1 rows when step divides t_end; a
    remainder appends one extra row at t_end.  t_end = 0 yields the single
    initial row.  Raises BlowupError when any state magnitude passes
    MAGNITUDE_CAP, or a stage evaluation fails, at the time of the step.
    """
    n = system.n
    lo, hi = [float(v) for v in x_lo], [float(v) for v in x_hi]
    if len(lo) != n or len(hi) != n:
        raise DimensionError(f"initial corners must have {n} entries")
    if not leq_orthant(lo, hi):
        raise ValueError("initial box needs x_lo <= x_hi componentwise")
    if not 0.0 < step < math.inf:  # NaN fails the comparison too
        raise ValueError("step must be positive and finite")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    cap = MAGNITUDE_CAP
    state = lo + hi
    if not all(abs(v) <= cap for v in state):  # NaN fails the comparison too
        raise BlowupError(0.0)
    # count whole steps float-tolerantly so divisible horizons get exactly
    # floor(t_end/step) of them; a remainder takes one more step, to t_end
    whole = _whole_steps(t_end, step)
    times = [0.0] + [k * step for k in range(1, whole + 1)]
    widths = [step] * whole
    rem = t_end - whole * step
    if rem > 1e-9 * step:
        times.append(t_end)
        widths.append(rem)
    rhs = system.rhs
    states = [state]
    for t, h in zip(times[1:], widths):
        try:
            state = _rk4_step(rhs, state, h)
        except EvalError:
            # overflow inside a stage evaluation is divergence, not a usage error
            raise BlowupError(t) from None
        for v in state:
            if not abs(v) <= cap:
                raise BlowupError(t)
        states.append(state)
    return ReachTube(times, [s[:n] for s in states], [s[n:] for s in states], float(step))

"""Embedding systems and reach tubes.

Stacking a decomposition g into xdot = g(x, y), ydot = g(y, x) doubles the
state and makes the flow order-preserving; integrating the stacked system
from (box lower corner, box upper corner) then brackets every trajectory of
the original field started inside the box, as long as the decomposition's
enclosure stays valid along the way.

The right-hand side returns g(x, y) and g(y, x) from one call of
decomp.decomposition_kernel, which works on plain float lists: each RK4
stage converts the state once, checks it once and computes x - y and the
offsets once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BlowupError, DimensionError, EvalError
from .decomp import DecompositionSpec, decomposition_kernel
from .interval import leq_orthant
from .jacbounds import VectorField

DEFAULT_STEP = 1e-3
DEFAULT_CAP = 1e12


@dataclass(eq=False)
class EmbeddingSystem:
    """The 2n-dimensional stacked system for a square field and its decomposition."""

    field: VectorField
    spec: DecompositionSpec

    @property
    def n(self) -> int:
        return self.field.n

    @cached_property
    def _kernel(self):
        return decomposition_kernel(self.spec, self.field)

    def rhs(self, state: np.ndarray) -> np.ndarray:
        """(g(x, y), g(y, x)) for state = (x, y)."""
        s = np.asarray(state, dtype=float).reshape(-1).tolist()
        if len(s) != 2 * self.field.n:
            raise DimensionError(f"arguments must have {self.field.n} entries")
        return np.array(self._kernel(s, True))


def build_embedding(f: VectorField, spec: DecompositionSpec) -> EmbeddingSystem:
    if f.m != f.n:
        raise DimensionError(f"embedding needs a square field, got m={f.m}, n={f.n}")
    if spec.m != f.m or spec.n != f.n:
        raise DimensionError("decomposition shape does not match the field")
    return EmbeddingSystem(f, spec)


@dataclass(eq=False)
class ReachTube:
    """Componentwise bounds lower(t) <= x(t) <= upper(t) on a shared time grid."""

    times: np.ndarray   # (N,), starts at 0, strictly increasing
    lower: np.ndarray   # (N, n)
    upper: np.ndarray   # (N, n)
    step: float
    method: str = "rk4"

    @property
    def n(self) -> int:
        return self.lower.shape[1]

    def final(self) -> tuple[float, np.ndarray, np.ndarray]:
        return float(self.times[-1]), self.lower[-1], self.upper[-1]


def _rk4_step(rhs, state: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_state(state: np.ndarray, t: float, cap: float):
    if not np.all(np.isfinite(state)) or np.any(np.abs(state) > cap):
        raise BlowupError(t)


def _integrate(rhs, state0: np.ndarray, t_end: float, step: float, cap: float):
    """Fixed-step RK4 path recording; returns (times, states)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    state = np.array(state0, dtype=float)
    _check_state(state, 0.0, cap)
    times = [0.0]
    states = [state]
    # count whole steps float-tolerantly so divisible horizons get exactly
    # floor(t_end/step) of them
    whole = _whole_steps(t_end, step)
    t = 0.0
    for k in range(whole):
        t = (k + 1) * step
        state = _step_checked(rhs, state, step, t, cap)
        times.append(t)
        states.append(state)
    rem = t_end - whole * step
    if rem > 1e-9 * step:
        state = _step_checked(rhs, state, rem, t_end, cap)
        times.append(t_end)
        states.append(state)
    return np.array(times), np.array(states)


def _step_checked(rhs, state, h, t, cap):
    try:
        nxt = _rk4_step(rhs, state, h)
    except EvalError:
        # overflow inside a stage evaluation is divergence, not a usage error
        raise BlowupError(t) from None
    _check_state(nxt, t, cap)
    return nxt


def _whole_steps(t_end: float, step: float) -> int:
    ratio = t_end / step
    near = round(ratio)
    if abs(ratio - near) <= 1e-9 * max(1.0, abs(near)):
        return int(near)
    return int(ratio)


def integrate_embedding(system: EmbeddingSystem, x_lo: Sequence[float],
                        x_hi: Sequence[float], t_end: float,
                        step: float = DEFAULT_STEP,
                        magnitude_cap: float = DEFAULT_CAP) -> ReachTube:
    """Integrate the stacked system from (x_lo, x_hi) with classical RK4.

    The tube has floor(t_end/step) + 1 rows when step divides t_end; a
    remainder appends one extra row at t_end.  t_end = 0 yields the single
    initial row.  Raises BlowupError when any state magnitude passes
    magnitude_cap.
    """
    n = system.n
    lo = np.asarray(x_lo, dtype=float).reshape(-1)
    hi = np.asarray(x_hi, dtype=float).reshape(-1)
    if lo.size != n or hi.size != n:
        raise DimensionError(f"initial corners must have {n} entries")
    if not leq_orthant(lo, hi):
        raise ValueError("initial box needs x_lo <= x_hi componentwise")
    times, states = _integrate(system.rhs, np.concatenate([lo, hi]), t_end, step, magnitude_cap)
    return ReachTube(times, states[:, :n], states[:, n:], float(step))


def sample_flow(f: VectorField, x0: Sequence[float], t_end: float,
                step: float = DEFAULT_STEP,
                magnitude_cap: float = DEFAULT_CAP) -> np.ndarray:
    """Final state of the plain field from x0, using the same RK4 stepping."""
    if f.m != f.n:
        raise DimensionError(f"flows need a square field, got m={f.m}, n={f.n}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != f.n:
        raise DimensionError(f"initial state must have {f.n} entries")
    _, states = _integrate(lambda s: f.evaluate(s), x, t_end, step, magnitude_cap)
    return states[-1]

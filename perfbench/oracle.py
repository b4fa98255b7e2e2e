"""Independent checks of each op's output.

Nothing here calls mixedmono.  Expressions are evaluated by a numpy
translation of their text, linear flows by the matrix exponential, nonlinear
flows by a separate fixed-step integrator on a finer step, and total
variation by fine partition sums.  Each check returns a Verdict: whether the
output passed, why not, and the width ratio of the reported enclosure to an
independently computed reference range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from inputs import Op

# printed numbers carry nine significant digits
_PRINT_REL = 1e-8
# reach tubes come from RK4, the references from expm or a finer RK4
_REACH_REL = 1e-7
# the variation is asked for to 1e-8 and printed to nine digits
_TV_REL = 1e-7
_TV_CELLS = 2 ** 18
_SAMPLES = 2 ** 16


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    width_ratio: Optional[float] = None


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


# -- numpy translation of the expression language ----------------------------------

_NAMESPACE = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "min": np.minimum, "max": np.maximum, "pi": np.pi}


def translate(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """f(X) for X of shape (n, k): x1..xn become X[0]..X[n-1], '^' becomes '**'.

    '^' binds tighter than unary minus in both languages, and exponents are
    integer literals, so the operator swap keeps the meaning.
    """
    src = re.sub(r"\bx(\d+)\b", lambda m: f"X[{int(m.group(1)) - 1}]", text).replace("^", "**")
    code = compile(src, "<expr>", "eval")

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            v = eval(code, dict(_NAMESPACE, X=x))
        return np.broadcast_to(np.asarray(v, dtype=float), x.shape[1:])

    return f


def _field(op: Op) -> Callable[[np.ndarray], np.ndarray]:
    comps = [translate(e) for e in op.exprs]
    return lambda x: np.stack([c(x) for c in comps])


def _covers(lo, hi, ref_lo, ref_hi, rel) -> bool:
    """[lo, hi] contains [ref_lo, ref_hi] up to rel times the magnitudes involved."""
    scale = 1.0 + np.maximum(np.abs(ref_lo), np.abs(ref_hi))
    return bool(np.all(lo <= ref_lo + rel * scale) and np.all(hi >= ref_hi - rel * scale))


def _box_grid(box: list[tuple[float, float]], total: int) -> np.ndarray:
    per_axis = max(2, int(round(total ** (1.0 / len(box)))))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


# -- reach -------------------------------------------------------------------------

def _row_times(op: Op) -> np.ndarray:
    steps = int(round(op.t_end / op.step))
    return np.arange(steps + 1) * op.step


def _linear_parts(op: Op) -> tuple[np.ndarray, np.ndarray]:
    """A and b of an affine field f(x) = A x + b, read off the translation."""
    f = _field(op)
    n = op.n
    pts = np.concatenate([np.zeros((n, 1)), np.eye(n)], axis=1)
    vals = f(pts)
    b = vals[:, 0]
    a = vals[:, 1:] - b[:, None]
    probe = np.linspace(-1.0, 1.0, 3 * n).reshape(n, 3)
    if not np.allclose(f(probe), a @ probe + b[:, None], rtol=1e-12, atol=1e-12):
        raise ValueError(f"{op.label}: field is not affine")
    return a, b


def _linear_hull(op: Op, times: np.ndarray):
    """Interval hull of the exact image of the initial box at each time."""
    a, b = _linear_parts(op)
    n = op.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = a, b
    x_lo, x_hi = (np.asarray(v, dtype=float) for v in op.x0)
    lo = np.empty((len(times), n))
    hi = np.empty((len(times), n))
    for k, t in enumerate(times):
        e = expm(aug * t)
        m, c = e[:n, :n], e[:n, n]
        pos, neg = np.maximum(m, 0.0), np.minimum(m, 0.0)
        lo[k] = pos @ x_lo + neg @ x_hi + c
        hi[k] = pos @ x_hi + neg @ x_lo + c
    return lo, hi


def _trajectories(op: Op, times: np.ndarray, substeps: int = 4):
    """States at each row time of flows from a grid over the initial box.

    Classical RK4 on a step `substeps` times finer than the program's,
    vectorized over all starting points.
    """
    f = _field(op)
    x = _box_grid(list(zip(*op.x0)), 256)
    out = [x]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / substeps
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    states = np.stack(out)                  # (rows, n, points)
    return states.min(axis=2), states.max(axis=2)


def check_reach(op: Op, out: str) -> Verdict:
    lines = out.strip().splitlines()
    n = op.n
    if not lines or lines[0] != "t," + ",".join(
            [f"lower_{j}" for j in range(1, n + 1)] + [f"upper_{j}" for j in range(1, n + 1)]):
        return _fail("missing or malformed CSV header")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    times = _row_times(op)
    if rows.shape != (len(times), 2 * n + 1):
        return _fail(f"expected {len(times)} rows of {2 * n + 1} columns, got {rows.shape}")
    if not np.allclose(rows[:, 0], times, rtol=_PRINT_REL, atol=1e-12):
        return _fail("row times differ from the step grid")
    lower, upper = rows[:, 1:n + 1], rows[:, n + 1:]
    if np.any(lower > upper):
        k = int(np.argwhere(lower > upper)[0][0])
        return _fail(f"lower > upper at t = {times[k]:g}")
    if op.linear:
        ref_lo, ref_hi = _linear_hull(op, times)
    else:
        dom = np.array(op.box)
        if np.any(lower < dom[:, 0]) or np.any(upper > dom[:, 1]):
            k = int(np.argwhere((lower < dom[:, 0]) | (upper > dom[:, 1]))[0][0])
            return _fail(f"tube leaves [domain] at t = {times[k]:g}")
        ref_lo, ref_hi = _trajectories(op, times)
    for k in range(len(times)):
        if not _covers(lower[k], upper[k], ref_lo[k], ref_hi[k], _REACH_REL):
            return _fail(f"tube misses the reference flow at t = {times[k]:g}")
    ratio = float(np.sum(upper[-1] - lower[-1]) / np.sum(ref_hi[-1] - ref_lo[-1]))
    return Verdict(True, width_ratio=ratio)


# -- bound -------------------------------------------------------------------------

def check_bound(op: Op, out: str) -> Verdict:
    brackets = []
    for i, line in enumerate(out.strip().splitlines(), start=1):
        m = re.fullmatch(rf"f{i} ∈ \[(\S+), (\S+)\]", line)
        if m is None:
            return _fail(f"unexpected line {line!r}")
        brackets.append((float(m.group(1)), float(m.group(2))))
    if len(brackets) != len(op.exprs):
        return _fail(f"expected {len(op.exprs)} brackets, got {len(brackets)}")
    lo, hi = np.array(brackets).T
    if np.any(lo > hi):
        return _fail("bracket with lo > hi")
    vals = _field(op)(_box_grid(op.box, _SAMPLES))
    ref_lo, ref_hi = vals.min(axis=1), vals.max(axis=1)
    if not _covers(lo, hi, ref_lo, ref_hi, _PRINT_REL):
        return _fail("bracket misses part of the dense-sample range")
    return Verdict(True, width_ratio=float(np.sum(hi - lo) / np.sum(ref_hi - ref_lo)))


# -- tv ----------------------------------------------------------------------------

def _zoom_extremum(f, lo: float, hi: float, largest: bool) -> float:
    """Where f peaks (or dips) in [lo, hi], found by three rounds of grid search."""
    for _ in range(3):
        xs = np.linspace(lo, hi, 1025)
        vals = f(xs[None, :])
        j = int(np.argmax(vals) if largest else np.argmin(vals))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, 1024)]
    return float(xs[j])


def _partition_tv(op: Op):
    """Variation from a to each output grid point, and the values of f used.

    A partition sum over 2^18 cells, with a point added at each extremum
    that the cells straddle.  Between consecutive points f is then
    monotone, so the sum of |differences| is the variation up to rounding,
    unless two extrema share one of the 2^18 cells.
    """
    f = translate(op.exprs[0])
    (a, b), = op.box
    xs = np.linspace(a, b, _TV_CELLS + 1)
    fx = f(xs[None, :])
    d = np.diff(fx)
    # cells where f moves, and the places where its direction flips (with
    # any flat cells between the last cell one way and the first the other)
    moves = np.flatnonzero(d != 0.0)
    up = d[moves] > 0.0
    flips = np.flatnonzero(up[:-1] != up[1:])
    extra = np.array([_zoom_extremum(f, xs[moves[j]], xs[moves[j + 1] + 1], up[j])
                      for j in flips])
    pts = np.concatenate([xs, extra])
    vals = np.concatenate([fx, f(extra[None, :])])
    order = np.argsort(pts, kind="stable")
    pts, vals = pts[order], vals[order]
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)))])
    at = np.searchsorted(pts, xs[::_TV_CELLS // (op.grid - 1)])
    return cum[at], vals


def check_tv(op: Op, out: str) -> Verdict:
    lines = out.strip().splitlines()
    if len(lines) != 3 + op.grid or not lines[0].startswith("TV = ") or lines[2] != "x f+ f-":
        return _fail("unexpected tv output layout")
    tv = float(lines[0][5:])
    m = re.match(r"bounds: f ∈ \[(\S+), (\S+)\]", lines[1])
    if m is None:
        return _fail("missing bounds line")
    b_lo, b_hi = float(m.group(1)), float(m.group(2))
    grid = np.array([[float(v) for v in ln.split()] for ln in lines[3:]])
    xs, fplus, fminus = grid.T
    (a, b), = op.box
    grid_x = np.linspace(a, b, op.grid)
    if not np.allclose(xs, grid_x, rtol=_PRINT_REL, atol=1e-12):
        return _fail("grid points differ from linspace(a, b, grid)")

    ref, fx = _partition_tv(op)
    slack = _TV_REL * (1.0 + np.abs(ref))
    if not abs(tv - ref[-1]) <= slack[-1]:
        return _fail(f"TV = {tv:.9g}, partition sum {ref[-1]:.9g}")
    if np.any(np.abs(fplus - ref) > slack):
        return _fail("f+ differs from the variation from a to x")

    f_at = translate(op.exprs[0])(grid_x[None, :])
    mag = 1.0 + np.maximum(np.abs(fplus), np.abs(fminus))
    if np.any(np.abs(fplus + fminus - f_at) > 2 * _PRINT_REL * mag):
        return _fail("f+ + f- differs from f on the grid")
    if np.any(np.diff(fplus) < -_PRINT_REL * mag[1:]):
        return _fail("f+ decreases on the grid")
    if np.any(np.diff(fminus) > _PRINT_REL * mag[1:]):
        return _fail("f- increases on the grid")

    span = 1.0 + abs(b_lo) + abs(b_hi)
    if (abs(b_lo - (fplus[0] + fminus[-1])) > 2 * _PRINT_REL * span
            or abs(b_hi - (fplus[-1] + fminus[0])) > 2 * _PRINT_REL * span):
        return _fail("bounds differ from f+(a) + f-(b) and f+(b) + f-(a)")
    ref_lo, ref_hi = float(fx.min()), float(fx.max())
    if not _covers(b_lo, b_hi, ref_lo, ref_hi, _PRINT_REL):
        return _fail("variation bracket misses part of the dense-sample range")
    return Verdict(True, width_ratio=(b_hi - b_lo) / (ref_hi - ref_lo))


CHECKS = {"reach": check_reach, "bound": check_bound, "tv": check_tv}


def check(op: Op, rc: int, out: str) -> Verdict:
    if rc != 0:
        return _fail(f"exit code {rc}")
    try:
        return CHECKS[op.command](op, out)
    except ValueError as exc:
        return _fail(f"unreadable output: {exc}")

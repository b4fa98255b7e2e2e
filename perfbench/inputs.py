"""Workload inputs, generated from the seed.

Every workload is a fixed list of templates.  The seed only changes the
numbers in each template: coefficients and box edges by a few per cent, or
the scale and shift of a `tv` function.  So the structure of every input,
and with it the cost of an op, is the same for every seed.  Two inputs do not depend on the seed: the
known faults kept in `reach` and `tv_kink` (see README.md).
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class Op:
    """One CLI call of a workload, with what the oracle needs to check it."""

    label: str
    command: str                      # reach | bound | tv
    exprs: list[str]                  # f1..fm over x1..xn
    box: list[tuple[float, float]]    # [domain] for reach/bound, [(a, b)] for tv
    args: list[str] = field(default_factory=list)
    config: Optional[str] = None      # INI text to write to a file
    config_path: Optional[str] = None  # or a config file of the repository
    x0: Optional[tuple[list[float], list[float]]] = None  # reach initial box
    t_end: float = 0.0
    step: float = 0.0
    linear: bool = False
    grid: int = 0                     # tv grid points
    known_fault: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.box)


def _num(v: float) -> str:
    return format(v, ".6g")


def _lin(coefs: list[float], names: list[str], const: float = 0.0) -> str:
    """'c1*n1 - c2*n2 + c0' with the signs folded into the operators."""
    parts = []
    for c, name in zip(coefs, names):
        if c == 0.0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{_num(abs(c))}*{name}"))
    if const != 0.0:
        parts.append(("-" if const < 0 else "+", _num(abs(const))))
    text = "".join(f" {s} {t}" for s, t in parts).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _ini(exprs: list[str], box: list[tuple[float, float]], options: dict) -> str:
    lines = ["[system]", f"dim = {len(box)}"]
    lines += [f'f{i} = "{e}"' for i, e in enumerate(exprs, start=1)]
    lines += ["", "[domain]"]
    lines += [f"x{j} = [{_num(lo)}, {_num(hi)}]" for j, (lo, hi) in enumerate(box, start=1)]
    if options:
        lines += ["", "[options]"] + [f"{k} = {v}" for k, v in options.items()]
    return "\n".join(lines) + "\n"


class _Draw:
    """Seeded perturbations of nominal values."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def near(self, nominal: float, rel: float = 0.1) -> float:
        """nominal scaled by a factor in [1 - rel, 1 + rel], to six significant digits."""
        return float(_num(nominal * (1.0 + self.rng.uniform(-rel, rel))))

    def shift(self, nominal: float, amount: float) -> float:
        return float(_num(nominal + self.rng.uniform(-amount, amount)))


# -- reach -----------------------------------------------------------------------

def _reach_op(label, exprs, box, t_end, step, linear, x0=None, fault=None) -> Op:
    args = ["--t-end", _num(t_end), "--step", _num(step)]
    if x0 is not None:
        args += ["--x0-lo", ",".join(_num(v) for v in x0[0]),
                 "--x0-hi", ",".join(_num(v) for v in x0[1])]
    else:
        x0 = ([lo for lo, _ in box], [hi for _, hi in box])
    return Op(label, "reach", exprs, box, args, config=_ini(exprs, box, {}),
              x0=x0, t_end=t_end, step=step, linear=linear, known_fault=fault)


def _repo_reach_op(label: str, path: str, t_end: float, root: Path) -> Op:
    """A config of the repository, run with its own step and a shorter horizon."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string((root / path).read_text(encoding="utf-8"))
    dim = int(cp["system"]["dim"])
    exprs = [cp["system"][f"f{i}"].strip().strip('"') for i in range(1, dim + 1)]
    box = []
    for j in range(1, dim + 1):
        lo, hi = cp["domain"][f"x{j}"].strip().strip("[]").split(",")
        box.append((float(lo), float(hi)))
    step = float(cp["options"]["step"])
    return Op(label, "reach", exprs, box, ["--t-end", _num(t_end)], config_path=path,
              x0=([lo for lo, _ in box], [hi for _, hi in box]),
              t_end=t_end, step=step, linear=True)


def _matrix_field(a: list[list[float]], b: list[float]) -> list[str]:
    names = [f"x{j + 1}" for j in range(len(a))]
    return [_lin(row, names, c) for row, c in zip(a, b)]


def reach_inputs(seed: int, root: Path) -> list[Op]:
    d = _Draw("reach", seed)
    ops = [
        _repo_reach_op("decay.ini", "configs/decay.ini", 0.3, root),
        _repo_reach_op("coupled.ini", "configs/coupled.ini", 0.17, root),
    ]
    # linear, 1-D to a 6-D chain
    ops.append(_reach_op(
        "affine1", _matrix_field([[-d.near(0.8)]], [d.shift(0.3, 0.1)]),
        [(d.shift(0.0, 0.1), d.shift(1.0, 0.1))], 1.08, 0.004, True))
    w, damp = d.near(1.5), d.near(0.2)
    ops.append(_reach_op(
        "rotation2", _matrix_field([[-damp, w], [-w, -damp]], [0.0, 0.0]),
        [(0.5, 1.0), (-0.25, 0.25)], 1.0, 0.00625, True))
    ops.append(_reach_op(
        "cooperative2", _matrix_field([[d.near(0.3), d.near(0.2)], [d.near(0.1), d.near(0.4)]],
                                      [d.shift(0.0, 0.2), d.shift(0.0, 0.2)]),
        [(0.0, 0.5), (0.5, 1.0)], 1.0, 0.00625, True))
    a3 = [[-1.0, 0.4, -0.2], [0.3, -0.8, 0.5], [-0.4, 0.2, -1.2]]
    ops.append(_reach_op(
        "mixed3", _matrix_field([[d.near(v) for v in row] for row in a3],
                                [d.shift(0.1, 0.1) for _ in range(3)]),
        [(0.0, 0.2), (0.4, 0.6), (-0.2, 0.0)], 0.5, 0.005, True))
    a4 = [[-0.6, 0.3, 0.0, -0.2], [0.2, -0.9, 0.4, 0.0],
          [0.0, -0.3, -0.5, 0.3], [0.1, 0.0, -0.2, -0.7]]
    ops.append(_reach_op(
        "mixed4", _matrix_field([[d.near(v) for v in row] for row in a4], [0.0] * 4),
        [(0.9, 1.1), (-0.1, 0.1), (0.4, 0.6), (-0.6, -0.4)], 0.5, 0.00625, True))
    chain = [[0.0] * 6 for _ in range(6)]
    for i in range(6):
        chain[i][i] = -d.near(1.0)
        if i:
            chain[i][i - 1] = d.near(0.8)
    ops.append(_reach_op(
        "chain6", _matrix_field(chain, [d.shift(0.5, 0.1)] + [0.0] * 5),
        [(0.0, 0.1)] * 6, 0.5, 0.0078125, True))
    # mildly nonlinear, horizons short enough that the tube stays in [domain]
    ops.append(_reach_op(
        "pendulum", ["x2", f"-{_num(d.near(1.0))}*sin(x1) - {_num(d.near(0.3))}*x2"],
        [(-1.0, 1.0), (-1.0, 1.0)], 0.4, 0.0025, False,
        x0=([d.shift(0.3, 0.05), -0.1], [d.shift(0.4, 0.05), 0.0])))
    ops.append(_reach_op(
        "vanderpol", ["x2", f"-x1 + {_num(d.near(0.3))}*(1 - x1^2)*x2"],
        [(-1.0, 1.0), (-1.0, 1.0)], 0.4, 0.0025, False,
        x0=([0.2, d.shift(0.1, 0.05)], [0.3, d.shift(0.2, 0.05)])))
    ops.append(_reach_op(
        "quadratic2", [f"-x1 + {_num(d.near(0.3))}*x2^2", f"-{_num(d.near(0.5))}*x2 + 0.2*x1*x2"],
        [(-1.0, 1.0), (-1.0, 1.0)], 0.5, 0.003125, False,
        x0=([0.1, 0.1], [d.shift(0.3, 0.05), d.shift(0.3, 0.05)])))
    ops.append(_reach_op(
        "trig3", [f"-x1 + {_num(d.near(0.2))}*cos(x2)", f"-x2 + {_num(d.near(0.2))}*sin(x3)",
                  f"-x3 + {_num(d.near(0.1))}*exp(x1/2)"],
        [(-1.0, 1.0)] * 3, 0.57, 0.005, False,
        x0=([0.0, 0.1, 0.2], [0.1, d.shift(0.2, 0.02), 0.3])))
    # known fault: the Jacobian is enclosed once over [domain] and the tube
    # leaves it; at t = 2 lower_1 = 2.667 > upper_1 = 1.667 and x1(2) = 11/3
    # from (1, 0) lies outside the tube, yet the command exits 0
    ops.append(_reach_op(
        "enclosure_exit", ["x2^2", "-1"], [(0.0, 1.0), (0.0, 1.0)], 2.0, 0.01, False,
        fault="tube leaves [domain], where the Jacobian enclosure holds"))
    return ops


# -- bound -----------------------------------------------------------------------

def _bound_op(label, exprs, box, depth, slack=None) -> Op:
    options = {} if slack is None else {"slack": slack}
    return Op(label, "bound", exprs, box, ["--depth", str(depth)],
              config=_ini(exprs, box, options))


def bound_inputs(seed: int, root: Path) -> list[Op]:
    d = _Draw("bound", seed)
    half = d.near(3.0)
    return [
        _bound_op("smooth1", [f"x1*sin({_num(d.near(2.0))}*x1) + {_num(d.near(0.1))}*x1^2"],
                  [(-half, half)], 7, slack=0),
        _bound_op("kink1", [f"abs(x1^2 - {_num(d.near(1.0))}) + {_num(d.shift(0.0, 0.3))}*x1"],
                  [(-2.0, d.near(2.0))], 7),
        _bound_op("smooth2", [f"sin(x1)*cos(x2) + {_num(d.near(0.5))}*x1*x2",
                              f"exp({_num(d.near(0.5))}*x1) - x2^2"],
                  [(-1.0, d.near(1.5)), (d.shift(-1.0, 0.2), 1.0)], 6),
        _bound_op("kink2", [f"max(x1, x2^2 - {_num(d.near(0.5))})",
                            f"min(x1*x2, {_num(d.near(0.3))}) + abs(x1 - x2)"],
                  [(-1.0, 1.0), (d.shift(-1.0, 0.2), d.shift(1.0, 0.2))], 6),
        _bound_op("smooth3", [f"sin(x1)*x2 - x3^2",
                              f"x1*x2*x3 + cos({_num(d.near(1.0))}*x2)",
                              f"exp(x1/4) - x2*x3"],
                  [(-1.0, 1.0), (-1.0, d.near(1.0)), (d.shift(-1.0, 0.2), 1.0)], 5),
        _bound_op("kink3", [f"abs(x1 - {_num(d.near(0.5))}*x2) + x3",
                            f"max(x1*x3, {_num(d.shift(0.0, 0.2))}) - x2"],
                  [(-1.0, 1.0), (-1.0, 1.0), (d.shift(-1.0, 0.2), 1.0)], 6),
        _bound_op("smooth4", [f"x1*x2 - x3*x4", f"sin(x1 + x4) + {_num(d.near(0.3))}*x2^2"],
                  [(-1.0, 1.0), (-1.0, 1.0), (d.shift(-1.0, 0.2), 1.0), (-1.0, 1.0)], 6),
        _bound_op("kink4", [f"max(x1 + x2, x3 - x4)", f"abs(x1*x4) - min(x2, {_num(d.near(0.5))}*x3)"],
                  [(-1.0, 1.0), (-1.0, d.near(1.0)), (-1.0, 1.0), (-1.0, 1.0)], 6),
    ]


# -- tv --------------------------------------------------------------------------

def _tv_op(label, expr, a, b, grid=9, fault=None) -> Op:
    """grid - 1 is a power of two, so the oracle's 2^18-cell partition lines up."""
    args = ["--expr", expr, "--a", repr(float(a)), "--b", repr(float(b)), "--grid", str(grid)]
    return Op(label, "tv", [expr], [(float(a), float(b))], args, grid=grid, known_fault=fault)


def _scaler(d: "_Draw"):
    """Seeded c*body + e: scales and shifts a function, keeping its extrema in place."""
    def scaled(body: str) -> str:
        return f"{_num(d.near(1.0, 0.2))}*{body} + {_num(d.shift(0.0, 0.5))}"
    return scaled


def tv_smooth_inputs(seed: int, root: Path) -> list[Op]:
    scaled = _scaler(_Draw("tv_smooth", seed))
    return [
        _tv_op("xsinx", scaled("x1*sin(x1)"), -10.0, 10.0),
        _tv_op("two_tones", scaled("(sin(3*x1) + 0.5*cos(5*x1))"), 0.0, 2 * math.pi),
        _tv_op("cubic", scaled("(x1^3 - 3*x1)"), -2.0, 2.0),
        _tv_op("gauss_wave", scaled("exp(-x1^2)*cos(4*x1)"), -3.0, 3.0),
        _tv_op("sin_squared", scaled("(sin(x1)^2 + 0.05*x1)"), 0.0, 9.0),
        _tv_op("rational", scaled("x1/(1 + x1^2)"), -5.0, 5.0),
        _tv_op("quartic", scaled("(x1^4 - 4*x1^2 + 0.3*x1)"), -2.5, 2.5),
    ]


def tv_kink_inputs(seed: int, root: Path) -> list[Op]:
    # The seed scales and shifts each function but leaves its extrema where
    # they are.  Each extremum either sits on a grid point or lies more than
    # 1/25 of [a, x] inside every [a, x] the split is evaluated on; the
    # partition path can miss one nearer an end (see README.md).
    scaled = _scaler(_Draw("tv_kink", seed))
    return [
        _tv_op("abs_xsinx", scaled("abs(x1*sin(x1))"), -5.5, 5.5, grid=5),
        _tv_op("max_waves", scaled("max(sin(3*x1), cos(x1))"), -1.1, 2.3, grid=5),
        _tv_op("abs_parabola", scaled("abs(x1^2 - 1.21)"), -3.0, 3.0),
        _tv_op("clipped", scaled("(min(x1^2, 1) + 0.4*x1)"), -2.0, 2.0, grid=17),
        _tv_op("abs_sin", scaled("abs(sin(x1))"), 0.0, 7.0),
        _tv_op("vee", scaled("(abs(x1 - 0.3) + 0.2*x1)"), -2.0, 2.0, grid=17),
        # known fault: the partition path stops after two small differences in
        # a row; the 8-, 16- and 32-cell sums all miss the 0.002-wide spike, so
        # it prints TV = 0 although f(0.3001) = 1 and the true TV is 2
        _tv_op("narrow_spike", "max(0, 1 - 1000*abs(x1 - 0.3001))", -1.0, 1.0,
               fault="partition sums stop before they resolve a narrow spike"),
    ]


WORKLOADS = {
    "reach": reach_inputs,
    "bound": bound_inputs,
    "tv_smooth": tv_smooth_inputs,
    "tv_kink": tv_kink_inputs,
}


def make_inputs(workload: str, seed: int, root: Path) -> list[Op]:
    return WORKLOADS[workload](seed, root)

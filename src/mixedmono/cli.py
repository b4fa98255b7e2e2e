"""Command-line interface: decompose | bound | reach | tv over INI run configs.

Config layout::

    [system]
    dim = 2
    f1 = "-x1 + x2"
    f2 = "x1 - x2"

    [domain]
    x1 = [0, 1]
    x2 = [0, 1]

    [options]
    epsilon = 0
    slack = 1e-09
    depth = 0
    step = 0.001
    t_end = 1
    tol = 1e-08
    format = text

All [options] keys are optional.  Exit codes: 0 success, 1 config or usage
error, 2 unbounded derivative enclosure, 3 integration blowup, 4
non-convergence, 5 an evaluation error (division by zero, overflow, sin or
cos of an infinity) at a point the command evaluates.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .decomp import build_decomposition, format_decomposition, refine_bounds
from .embed import build_embedding, integrate_embedding
from .errors import (BlowupError, ConfigError, EvalError, NonConvergenceError, ParseError,
                     ToolkitError, UnboundedDerivativeError)
from .interval import BoxDomain, Interval
from .jacbounds import VectorField, classify, jacobian_bounds
from .jordan import DEFAULT_MAX_CELLS, ScalarFunction, jordan_split, total_variation

_OPTION_KEYS = ("epsilon", "slack", "depth", "step", "t_end", "tol", "format")


@dataclass
class Options:
    epsilon: float = 0.0
    slack: float = 1e-9
    depth: int = 0
    step: float = 1e-3
    t_end: float = 1.0
    tol: float = 1e-8
    fmt: str = "text"


@dataclass
class RunConfig:
    dim: int
    expressions: tuple[str, ...]
    field: VectorField
    domain: BoxDomain
    options: Options


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _unquote(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    return s


_INTERVAL_RE = re.compile(r"^\[\s*([^,\s\]]+)\s*,\s*([^,\s\]]+)\s*\]$")


def _parse_interval_value(key: str, raw: str) -> Interval:
    m = _INTERVAL_RE.match(_unquote(raw))
    if not m:
        raise ConfigError(f"{key}: expected an interval like [lo, hi], got {raw!r}")
    try:
        lo, hi = float(m.group(1)), float(m.group(2))
    except ValueError:
        raise ConfigError(f"{key}: endpoints must be numbers, got {raw!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{key}: domain must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ConfigError(f"{key}: lower endpoint {lo} exceeds upper endpoint {hi}")
    return Interval(lo, hi)


def _float_option(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"options.{key}: not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"options.{key}: must be finite")
    return v


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    if not cp.has_section("system"):
        raise ConfigError("missing [system] section")
    if not cp.has_section("domain"):
        raise ConfigError("missing [domain] section")

    system = dict(cp.items("system"))
    if "dim" not in system:
        raise ConfigError("system.dim is required")
    try:
        dim = int(system.pop("dim"))
    except ValueError:
        raise ConfigError("system.dim must be an integer") from None
    if dim < 1:
        raise ConfigError("system.dim must be at least 1")

    exprs = []
    i = 1
    while f"f{i}" in system:
        exprs.append(_unquote(system.pop(f"f{i}")))
        i += 1
    if not exprs:
        raise ConfigError("at least f1 is required in [system]")
    if system:
        raise ConfigError(f"unexpected [system] keys: {sorted(system)}")

    try:
        vf = VectorField.from_strings(exprs, dim)
    except ToolkitError as exc:
        raise ConfigError(f"bad expression: {exc}") from None

    domain_items = dict(cp.items("domain"))
    ivs = []
    for j in range(1, dim + 1):
        key = f"x{j}"
        if key not in domain_items:
            raise ConfigError(f"[domain] is missing {key}")
        ivs.append(_parse_interval_value(key, domain_items.pop(key)))
    if domain_items:
        raise ConfigError(f"unexpected [domain] keys: {sorted(domain_items)}")
    box = BoxDomain(tuple(ivs))

    opts = Options()
    if cp.has_section("options"):
        for key, raw in cp.items("options"):
            if key not in _OPTION_KEYS:
                raise ConfigError(f"unexpected [options] key: {key}")
            if key == "format":
                fmt = _unquote(raw)
                if fmt not in ("text", "csv"):
                    raise ConfigError(f"options.format must be text or csv, got {fmt!r}")
                opts.fmt = fmt
            elif key == "depth":
                try:
                    opts.depth = int(raw)
                except ValueError:
                    raise ConfigError("options.depth must be an integer") from None
                if opts.depth < 0:
                    raise ConfigError("options.depth must be nonnegative")
            else:
                v = _float_option(key, raw)
                if key == "epsilon" and v < 0.0:
                    raise ConfigError("options.epsilon must be nonnegative")
                if key == "slack" and v < 0.0:
                    raise ConfigError("options.slack must be nonnegative")
                if key == "step" and v <= 0.0:
                    raise ConfigError("options.step must be positive")
                if key == "t_end" and v < 0.0:
                    raise ConfigError("options.t_end must be nonnegative")
                if key == "tol" and v <= 0.0:
                    raise ConfigError("options.tol must be positive")
                setattr(opts, key, v)

    return RunConfig(dim, tuple(exprs), vf, box, opts)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def format_config(cfg: RunConfig) -> str:
    lines = ["[system]", f"dim = {cfg.dim}"]
    for i, text in enumerate(cfg.expressions, start=1):
        lines.append(f'f{i} = "{text}"')
    lines.append("")
    lines.append("[domain]")
    for j, iv in enumerate(cfg.domain.intervals, start=1):
        lines.append(f"x{j} = [{iv.lo!r}, {iv.hi!r}]")
    lines.append("")
    o = cfg.options
    lines.extend([
        "[options]",
        f"epsilon = {o.epsilon!r}",
        f"slack = {o.slack!r}",
        f"depth = {o.depth}",
        f"step = {o.step!r}",
        f"t_end = {o.t_end!r}",
        f"tol = {o.tol!r}",
        f"format = {o.fmt}",
    ])
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------------


def cmd_decompose(args) -> int:
    cfg = parse_config(args.config)
    fmt = args.format or cfg.options.fmt
    jb = jacobian_bounds(cfg.field, cfg.domain, slack=cfg.options.slack)
    spec = build_decomposition(jb, cfg.options.epsilon)
    g_lines = format_decomposition(spec, cfg.field)
    out = []
    if fmt == "csv":
        out.append("i,j,a,b,case,z,alpha,beta,g")
        for i in range(spec.m):
            g_expr = g_lines[i].split(" = ", 1)[1]
            for j in range(spec.n):
                iv = jb.entry(i, j)
                case = classify(iv.lo, iv.hi)
                out.append(",".join([
                    str(i + 1), str(j + 1), _fmt(iv.lo), _fmt(iv.hi), case.value,
                    spec.selector(i, j), _fmt(spec.alpha[i, j]), _fmt(spec.beta[i, j]),
                    f'"{g_expr}"',
                ]))
    else:
        for i in range(spec.m):
            for j in range(spec.n):
                iv = jb.entry(i, j)
                case = classify(iv.lo, iv.hi)
                out.append(
                    f"f{i + 1}/x{j + 1}: a={_fmt(iv.lo)} b={_fmt(iv.hi)} "
                    f"case={case.value} z={spec.selector(i, j)} "
                    f"alpha={_fmt(spec.alpha[i, j])} beta={_fmt(spec.beta[i, j])}")
            out.append(g_lines[i])
    print("\n".join(out))
    return 0


def _grid_minmax(field: VectorField, box: BoxDomain, total: int = 10000):
    per_axis = max(2, int(round(total ** (1.0 / box.n))))
    axes = [np.linspace(iv.lo, iv.hi, per_axis) for iv in box.intervals]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1).tolist()
    lows, highs = [], []
    for comp in field.compiled:
        vals = np.array([comp(p) for p in pts])
        lows.append(float(vals.min()))
        highs.append(float(vals.max()))
    return lows, highs


def cmd_bound(args) -> int:
    cfg = parse_config(args.config)
    fmt = args.format or cfg.options.fmt
    depth = cfg.options.depth if args.depth is None else args.depth
    if depth < 0:
        raise ConfigError("depth must be nonnegative")
    bounds = refine_bounds(cfg.field, cfg.domain, depth,
                           epsilon=cfg.options.epsilon, slack=cfg.options.slack)
    check = _grid_minmax(cfg.field, cfg.domain) if args.check else None
    out = []
    if fmt == "csv":
        header = "i,lo,hi" + (",grid_lo,grid_hi,enclosed" if check else "")
        out.append(header)
        for i, iv in enumerate(bounds):
            row = f"{i + 1},{_fmt(iv.lo)},{_fmt(iv.hi)}"
            if check:
                ok = iv.lo <= check[0][i] and check[1][i] <= iv.hi
                row += f",{_fmt(check[0][i])},{_fmt(check[1][i])},{'yes' if ok else 'no'}"
            out.append(row)
    else:
        for i, iv in enumerate(bounds):
            out.append(f"f{i + 1} ∈ [{_fmt(iv.lo)}, {_fmt(iv.hi)}]")
            if check:
                ok = iv.lo <= check[0][i] and check[1][i] <= iv.hi
                out.append(f"check f{i + 1}: grid range [{_fmt(check[0][i])}, "
                           f"{_fmt(check[1][i])}] enclosed={'yes' if ok else 'no'}")
    print("\n".join(out))
    return 0


def _parse_vector(flag: str, raw: str, n: int) -> np.ndarray:
    parts = [p.strip() for p in raw.split(",")]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {raw!r}") from None
    if len(vals) != n:
        raise ConfigError(f"{flag}: expected {n} entries, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{flag}: entries must be finite")
    return np.array(vals)


def cmd_reach(args) -> int:
    cfg = parse_config(args.config)
    t_end = cfg.options.t_end if args.t_end is None else args.t_end
    step = cfg.options.step if args.step is None else args.step
    if step <= 0.0:
        raise ConfigError("step must be positive")
    if t_end < 0.0:
        raise ConfigError("t_end must be nonnegative")
    n = cfg.dim
    x_lo = cfg.domain.lower_corner() if args.x0_lo is None else _parse_vector("--x0-lo", args.x0_lo, n)
    x_hi = cfg.domain.upper_corner() if args.x0_hi is None else _parse_vector("--x0-hi", args.x0_hi, n)
    if np.any(x_lo > x_hi):
        raise ConfigError("initial box needs x0-lo <= x0-hi componentwise")

    jb = jacobian_bounds(cfg.field, cfg.domain, slack=cfg.options.slack)
    spec = build_decomposition(jb, cfg.options.epsilon)
    system = build_embedding(cfg.field, spec)
    tube = integrate_embedding(system, x_lo, x_hi, t_end, step=step)

    header = "t," + ",".join(f"lower_{j + 1}" for j in range(n)) \
        + "," + ",".join(f"upper_{j + 1}" for j in range(n))
    rows = [header]
    for k in range(len(tube.times)):
        cells = [_fmt(tube.times[k])]
        cells += [_fmt(v) for v in tube.lower[k]]
        cells += [_fmt(v) for v in tube.upper[k]]
        rows.append(",".join(cells))
    text = "\n".join(rows) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tv(args) -> int:
    if args.expr is not None:
        if args.config is not None:
            raise ConfigError("pass either a config file or --expr, not both")
        if args.a is None or args.b is None:
            raise ConfigError("--expr needs --a and --b endpoints")
        if not (math.isfinite(args.a) and math.isfinite(args.b)):
            raise ConfigError("--a and --b must be finite")
        if args.a > args.b:
            raise ConfigError(f"--a {args.a} exceeds --b {args.b}")
        fmt = args.format or "text"
        tol = 1e-8 if args.tol is None else args.tol
        try:
            f = ScalarFunction.from_string(_unquote(args.expr), args.a, args.b)
        except ToolkitError as exc:
            raise ConfigError(f"bad expression: {exc}") from None
    else:
        if args.config is None:
            raise ConfigError("tv needs a config file or --expr with --a/--b")
        cfg = parse_config(args.config)
        if cfg.dim != 1 or cfg.field.m != 1:
            raise ConfigError("tv needs a scalar config: dim = 1 and a single f1")
        fmt = args.format or cfg.options.fmt
        tol = cfg.options.tol if args.tol is None else args.tol
        f = ScalarFunction(cfg.field.components[0], cfg.domain[0])
    if tol <= 0.0:
        raise ConfigError("tol must be positive")
    if args.grid < 2:
        raise ConfigError("--grid needs at least 2 points")
    domain = f.domain

    tv = total_variation(f, domain, tol, max_cells=args.max_cells)
    split = jordan_split(f, tol, max_cells=args.max_cells)
    g_lo_hi = split.fplus(domain.lo) + split.fminus(domain.hi)
    g_hi_lo = split.fplus(domain.hi) + split.fminus(domain.lo)
    xs = np.linspace(domain.lo, domain.hi, args.grid)
    out = []
    if fmt == "csv":
        out.append("x,fplus,fminus,tv,lower,upper")
        for x in xs:
            out.append(",".join([_fmt(x), _fmt(split.fplus(x)), _fmt(split.fminus(x)),
                                 _fmt(tv), _fmt(g_lo_hi), _fmt(g_hi_lo)]))
    else:
        out.append(f"TV = {_fmt(tv)}")
        out.append(f"bounds: f ∈ [{_fmt(g_lo_hi)}, {_fmt(g_hi_lo)}]  "
                   f"(g(lo,hi) = {_fmt(g_lo_hi)}, g(hi,lo) = {_fmt(g_hi_lo)})")
        out.append("x f+ f-")
        for x in xs:
            out.append(f"{_fmt(x)} {_fmt(split.fplus(x))} {_fmt(split.fminus(x))}")
    print("\n".join(out))
    return 0


# -- driver -------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default, which collides with the unbounded-
        # derivative code; usage problems belong to the config-error class
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="mixedmono",
                        description="decomposition functions, interval bounds, reach tubes")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[], help="classify and print the decomposition")
    d.add_argument("config")
    d.add_argument("--format", choices=("text", "csv"), default=None)
    d.set_defaults(func=cmd_decompose)

    b = sub.add_parser("bound", help="range bounds over the domain box")
    b.add_argument("config")
    b.add_argument("--depth", type=int, default=None)
    b.add_argument("--check", action="store_true",
                   help="compare against a dense evaluation grid")
    b.add_argument("--format", choices=("text", "csv"), default=None)
    b.set_defaults(func=cmd_bound)

    r = sub.add_parser("reach", help="reach tube CSV from the embedding system")
    r.add_argument("config")
    r.add_argument("--t-end", dest="t_end", type=float, default=None)
    r.add_argument("--step", type=float, default=None)
    r.add_argument("--x0-lo", dest="x0_lo", default=None,
                   help="comma-separated; defaults to the domain's lower corner")
    r.add_argument("--x0-hi", dest="x0_hi", default=None,
                   help="comma-separated; defaults to the domain's upper corner")
    r.add_argument("--output", default="-")
    r.set_defaults(func=cmd_reach)

    t = sub.add_parser("tv", help="total variation and Jordan split of a scalar function")
    t.add_argument("config", nargs="?", default=None)
    t.add_argument("--expr", default=None, help="expression in x1 (alternative to a config)")
    t.add_argument("--a", type=float, default=None, help="left endpoint for --expr")
    t.add_argument("--b", type=float, default=None, help="right endpoint for --expr")
    t.add_argument("--tol", type=float, default=None)
    t.add_argument("--grid", type=int, default=11)
    t.add_argument("--max-cells", dest="max_cells", type=int, default=DEFAULT_MAX_CELLS)
    t.add_argument("--format", choices=("text", "csv"), default=None)
    t.set_defaults(func=cmd_tv)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnboundedDerivativeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

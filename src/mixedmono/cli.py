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

All [options] keys are optional; the flag that overrides a key is checked
exactly like it.  An expression may nest at most expr.MAX_NESTING = 100
levels deep, and bound --check refuses a grid of more than 2^MAX_DEPTH
points (it has at least 2 per axis, so at most 20 axes).  reach refuses
an --x0-lo/--x0-hi box that is not inside [domain], where g was built.  tv
takes --max-cells from 32 to 2^20 and --grid from 2 to MAX_STEPS = 10^6
points, the cap on reach's steps, and refuses --a/--b without --expr: a
config's interval is its [domain].  Exit codes: 0 success, 1 config or usage
error (each refusal above among them), or stdout closed before the output
was written (a broken pipe, as in `mixedmono tv ... | head -1`), 2 unbounded
derivative enclosure or an offset |a| + epsilon that overflows, or for tv an
f' unbounded on a cell too narrow to split (a pole or a 0/0 like x1/x1
inside [a, b]) or a TV, f+, f- or g that overflows, 3 integration blowup, 4
non-convergence, 5 an evaluation error (division by zero, overflow, sin or
cos of an infinity, a non-finite intermediate) at a point the command
evaluates.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

from .decomp import build_decomposition, format_decomposition, refine_bounds
from .embed import EmbeddingSystem, integrate_embedding
from .errors import (BlowupError, ConfigError, EvalError, NonConvergenceError, ParseError,
                     ToolkitError, UnboundedDerivativeError)
from .interval import BoxDomain, Interval
from .jacbounds import SignCase, VectorField, jacobian_bounds
from .jordan import (DEFAULT_MAX_CELLS, MIN_CELLS, ScalarFunction, jordan_split, linspace,
                     total_variation)

# reach keeps every RK4 step of the tube in memory, and tv every point of
# its --grid: at most this many
MAX_STEPS = 1_000_000
# bound visits up to 2^depth boxes: about as many as reach's steps
MAX_DEPTH = 20


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
    field: VectorField
    domain: BoxDomain
    options: Options


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _row_pattern(k: int) -> str:
    """The pattern of k comma-separated floats: "%.9g" formats a float as _fmt does."""
    return ",".join(["%.9g"] * k)


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


# each [options] key: its Options field, how its text reads, and what its
# value must satisfy; a float must also be finite.  A flag that overrides a
# key is read and checked by the same entry.
_OPTIONS = {
    "epsilon": ("epsilon", float, lambda v: v >= 0.0, "must be nonnegative"),
    "slack": ("slack", float, lambda v: v >= 0.0, "must be nonnegative"),
    "depth": ("depth", int, lambda v: 0 <= v <= MAX_DEPTH, f"must be from 0 to {MAX_DEPTH}"),
    "step": ("step", float, lambda v: v > 0.0, "must be positive"),
    "t_end": ("t_end", float, lambda v: v >= 0.0, "must be nonnegative"),
    "tol": ("tol", float, lambda v: v > 0.0, "must be positive"),
    "format": ("fmt", _unquote, lambda v: v in ("text", "csv"), "must be text or csv"),
}


def _option(key: str, raw: str, where: str):
    """The value of option key read from raw; ConfigError "{where}{problem}" where it fails."""
    _, read, ok, need = _OPTIONS[key]
    try:
        v = read(raw)
    except ValueError:
        raise ConfigError(f"{where}must be {'an integer' if read is int else 'a number'}") from None
    if read is float and not math.isfinite(v):
        raise ConfigError(f"{where}must be finite")
    if not ok(v):
        raise ConfigError(f"{where}{need}")
    return v


def _merged(options: Options, args) -> Options:
    """options overlaid with the flags of args that were given."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Options)}
    return replace(options, **{k: v for k, v in given.items() if v is not None})


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
            if key not in _OPTIONS:
                raise ConfigError(f"unexpected [options] key: {key}")
            setattr(opts, _OPTIONS[key][0], _option(key, raw, f"options.{key}: "))

    return RunConfig(vf, box, opts)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# -- subcommands ----------------------------------------------------------------


# the sign class of an entry from its row: (reads x, has an offset) -> case
_CASES = {(True, False): SignCase.CASE1, (True, True): SignCase.CASE2,
          (False, True): SignCase.CASE3, (False, False): SignCase.CASE4}


def cmd_decompose(args) -> int:
    cfg = parse_config(args.config)
    opts = _merged(cfg.options, args)
    jb = jacobian_bounds(cfg.field, cfg.domain, slack=opts.slack)
    spec = build_decomposition(jb, opts.epsilon)
    g_lines = format_decomposition(spec, cfg.field)
    csv = opts.fmt == "csv"
    out = ["i,j,a,b,case,z,alpha,beta,g"] if csv else []
    for i, (first, terms) in enumerate(spec.rows):
        g_expr = g_lines[i].split(" = ", 1)[1]
        offsets = dict(terms)
        for j, (iv, use_x) in enumerate(zip(jb[i], first)):
            a, b, c = _fmt(iv.lo), _fmt(iv.hi), offsets.get(j)
            case = _CASES[use_x, c is not None].value
            z = "x" if use_x else "y"
            alpha = _fmt(c) if use_x and c is not None else "0"
            beta = _fmt(-c) if not use_x and c is not None else "0"
            if csv:
                out.append(f'{i + 1},{j + 1},{a},{b},{case},{z},{alpha},{beta},"{g_expr}"')
            else:
                out.append(f"f{i + 1}/x{j + 1}: a={a} b={b} case={case} z={z} "
                           f"alpha={alpha} beta={beta}")
        if not csv:
            out.append(g_lines[i])
    print("\n".join(out))
    return 0


def _grid_minmax(field: VectorField, box: BoxDomain, per_axis: int):
    pts = list(itertools.product(*(linspace(iv.lo, iv.hi, per_axis - 1)
                                   for iv in box.intervals)))
    lows, highs = [], []
    for comp in field.compiled:
        vals = [comp(p) for p in pts]
        # the last of equal extremes wins: it fixes the sign printed for a
        # zero bound met with both signs
        lows.append(min(reversed(vals)))
        highs.append(max(reversed(vals)))
    return lows, highs


def cmd_bound(args) -> int:
    cfg = parse_config(args.config)
    opts = _merged(cfg.options, args)
    # the --check grid: about 10^4 points, at least 2 per axis, and no more
    # than the 2^MAX_DEPTH boxes that bound may visit
    n = cfg.domain.n
    per_axis = max(2, int(round(10000 ** (1.0 / n))))
    if args.check and per_axis ** n > 2 ** MAX_DEPTH:
        raise ConfigError(f"--check needs {per_axis}^{n} grid points, more than 2^{MAX_DEPTH}")
    bounds = refine_bounds(cfg.field, cfg.domain, opts.depth,
                           epsilon=opts.epsilon, slack=opts.slack)
    check = _grid_minmax(cfg.field, cfg.domain, per_axis) if args.check else None
    csv = opts.fmt == "csv"
    out = ["i,lo,hi" + (",grid_lo,grid_hi,enclosed" if check else "")] if csv else []
    for i, iv in enumerate(bounds):
        lo, hi = _fmt(iv.lo), _fmt(iv.hi)
        out.append(f"{i + 1},{lo},{hi}" if csv else f"f{i + 1} ∈ [{lo}, {hi}]")
        if check:
            grid_lo, grid_hi = _fmt(check[0][i]), _fmt(check[1][i])
            ok = "yes" if iv.lo <= check[0][i] and check[1][i] <= iv.hi else "no"
            if csv:
                out[-1] += f",{grid_lo},{grid_hi},{ok}"
            else:
                out.append(f"check f{i + 1}: grid range [{grid_lo}, {grid_hi}] enclosed={ok}")
    print("\n".join(out))
    return 0


def _parse_vector(flag: str, raw: str, n: int) -> list[float]:
    parts = [p.strip() for p in raw.split(",")]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {raw!r}") from None
    if len(vals) != n:
        raise ConfigError(f"{flag}: expected {n} entries, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{flag}: entries must be finite")
    return vals


def cmd_reach(args) -> int:
    cfg = parse_config(args.config)
    n = cfg.field.n
    if cfg.field.m != n:
        raise ConfigError(f"reach needs a square config: dim = {n} components, "
                          f"got {cfg.field.m}")
    opts = _merged(cfg.options, args)
    if not opts.t_end / opts.step <= MAX_STEPS:
        raise ConfigError(f"t_end/step must be at most {MAX_STEPS}")
    x_lo = cfg.domain.lower_corner() if args.x0_lo is None else _parse_vector("--x0-lo", args.x0_lo, n)
    x_hi = cfg.domain.upper_corner() if args.x0_hi is None else _parse_vector("--x0-hi", args.x0_hi, n)
    if any(a > b for a, b in zip(x_lo, x_hi)):
        raise ConfigError("initial box needs x0-lo <= x0-hi componentwise")
    # g's rows hold only on the box they were built on
    if not all(d.lo <= a and b <= d.hi for d, a, b in zip(cfg.domain.intervals, x_lo, x_hi)):
        raise ConfigError("initial box must lie inside [domain]")

    jb = jacobian_bounds(cfg.field, cfg.domain, slack=opts.slack)
    spec = build_decomposition(jb, opts.epsilon)
    system = EmbeddingSystem(cfg.field, spec)
    tube = integrate_embedding(system, x_lo, x_hi, opts.t_end, step=opts.step)

    header = "t," + ",".join(f"lower_{j + 1}" for j in range(n)) \
        + "," + ",".join(f"upper_{j + 1}" for j in range(n))
    row = _row_pattern(2 * n + 1)
    rows = [header]
    rows += [row % (t, *lo, *hi) for t, lo, hi in zip(tube.times, tube.lower, tube.upper)]
    text = "\n".join(rows) + "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {args.output}: {exc}") from None
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
        opts = _merged(Options(), args)
        try:
            f = ScalarFunction.from_string(_unquote(args.expr), args.a, args.b)
        except ToolkitError as exc:
            raise ConfigError(f"bad expression: {exc}") from None
    else:
        if args.config is None:
            raise ConfigError("tv needs a config file or --expr with --a/--b")
        if args.a is not None or args.b is not None:
            raise ConfigError("--a and --b go with --expr; a config's interval is its [domain]")
        cfg = parse_config(args.config)
        if cfg.field.n != 1 or cfg.field.m != 1:
            raise ConfigError("tv needs a scalar config: dim = 1 and a single f1")
        opts = _merged(cfg.options, args)
        f = ScalarFunction(cfg.field.components[0], cfg.domain[0])
    if args.max_cells < MIN_CELLS:
        raise ConfigError(f"--max-cells must be at least {MIN_CELLS}")
    if args.max_cells > DEFAULT_MAX_CELLS:
        raise ConfigError(f"--max-cells must be at most {DEFAULT_MAX_CELLS}")
    if args.grid < 2:
        raise ConfigError("--grid needs at least 2 points")
    if args.grid > MAX_STEPS:
        raise ConfigError(f"--grid needs at most {MAX_STEPS} points")
    domain = f.domain

    tv = total_variation(f, domain, opts.tol, max_cells=args.max_cells)
    split = jordan_split(f, opts.tol, max_cells=args.max_cells)
    g_lo_hi = split.g(domain.lo, domain.hi)
    g_hi_lo = split.g(domain.hi, domain.lo)
    xs = linspace(domain.lo, domain.hi, args.grid - 1)
    out = []
    if opts.fmt == "csv":
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

    def _parse_optional(self, arg_string):
        # no flag starts with a digit or ".": so -1e-5 and -0.5,0 are values,
        # not the unknown flags of argparse's pattern for negative numbers
        return None if re.match(r"-[\d.]", arg_string) else super()._parse_optional(arg_string)


def _add_option(parser: argparse.ArgumentParser, flag: str, key: str) -> None:
    """flag, which overrides [options] key, read and checked by its entry of _OPTIONS."""
    parser.add_argument(flag, dest=_OPTIONS[key][0], metavar=key.upper(),
                        type=partial(_option, key, where=f"{key} "))


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="mixedmono",
                        description="decomposition functions, interval bounds, reach tubes")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[], help="classify and print the decomposition")
    d.add_argument("config")
    _add_option(d, "--format", "format")
    d.set_defaults(func=cmd_decompose)

    b = sub.add_parser("bound", help="range bounds over the domain box")
    b.add_argument("config")
    _add_option(b, "--depth", "depth")
    b.add_argument("--check", action="store_true",
                   help="compare against a dense evaluation grid")
    _add_option(b, "--format", "format")
    b.set_defaults(func=cmd_bound)

    r = sub.add_parser("reach", help="reach tube CSV from the embedding system")
    r.add_argument("config")
    _add_option(r, "--t-end", "t_end")
    _add_option(r, "--step", "step")
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
    _add_option(t, "--tol", "tol")
    t.add_argument("--grid", type=int, default=11)
    t.add_argument("--max-cells", dest="max_cells", type=int, default=DEFAULT_MAX_CELLS)
    _add_option(t, "--format", "format")
    t.set_defaults(func=cmd_tv)
    return p


# the exit code of each error that main reports
_EXIT_CODES = {ConfigError: 1, UnboundedDerivativeError: 2, BlowupError: 3,
               NonConvergenceError: 4, EvalError: 5}

# built once, at import: main parses every argv with it, so only callers
# that run main more than once in a process (tests, perfbench) save the build
_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run one mixedmono command on argv (sys.argv[1:] when None); return its exit code.

    Every call parses with the one parser built when this module is
    imported.  Errors of the command print "error: ..." to stderr and map
    to the exit codes of the module docstring.
    """
    try:
        args = _PARSER.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the recipe of Python's signal docs: stdout to devnull, so the flush
        # at exit cannot fail again with a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: configs, subcommands, output schemas, exit codes."""

import importlib
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mixedmono import ConfigError, EmbeddingSystem, Interval, ScalarFunction, cli
from mixedmono.cli import main, parse_config_text
from mixedmono.expr import MAX_NESTING, parse

SQUARE = """\
[system]
dim = 1
f1 = "x1^2"

[domain]
x1 = [-1, 1]

[options]
slack = 0
"""

NEGATION = """\
[system]
dim = 1
f1 = "-x1"

[domain]
x1 = [0, 1]

[options]
slack = 1e-10
"""

COUPLED = """\
[system]
dim = 2
f1 = "-x1 + x2"
f2 = "x1 - x2"

[domain]
x1 = [0, 1]
x2 = [0, 1]
"""

UNBOUNDED = """\
[system]
dim = 2
f1 = "x1/x2"
f2 = "x2"

[domain]
x1 = [-1, 1]
x2 = [-1, 1]
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="run.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def _scalar(expr, box="[-1, 1]"):
    return f'[system]\ndim = 1\nf1 = "{expr}"\n\n[domain]\nx1 = {box}\n'


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- config parsing ---------------------------------------------------------------

def test_config_parses_sections_and_options():
    text = SQUARE.replace("slack = 0", "slack = 0\nepsilon = 0.5\ndepth = 2\n"
                          "step = 0.01\nt_end = 2\ntol = 1e-06\nformat = csv")
    cfg = parse_config_text(text)
    assert cfg.field.n == 1
    assert cfg.field.components == (parse("x1^2", 1),)
    assert cfg.domain[0].lo == -1.0 and cfg.domain[0].hi == 1.0
    o = cfg.options
    assert (o.slack, o.epsilon, o.depth, o.step, o.t_end, o.tol, o.fmt) == \
        (0.0, 0.5, 2, 0.01, 2.0, 1e-6, "csv")


def test_config_rejects_malformed_input():
    bad = [
        "[domain]\nx1 = [0, 1]\n",                          # missing [system]
        "[system]\nf1 = \"x1\"\n\n[domain]\nx1 = [0, 1]\n",  # missing dim
        "[system]\ndim = 0\nf1 = \"x1\"\n\n[domain]\nx1 = [0, 1]\n",
        "[system]\ndim = 1\n\n[domain]\nx1 = [0, 1]\n",      # no f1
        "[system]\ndim = 1\nf1 = \"x1\"\ng1 = \"x1\"\n\n[domain]\nx1 = [0, 1]\n",
        "[system]\ndim = 2\nf1 = \"x1\"\nf2 = \"x2\"\n\n[domain]\nx1 = [0, 1]\n",
        "[system]\ndim = 1\nf1 = \"x1\"\n\n[domain]\nx1 = [0, 1]\nx2 = [0, 1]\n",
        "[system]\ndim = 1\nf1 = \"x1\"\n\n[domain]\nx1 = 0 to 1\n",
        "[system]\ndim = 1\nf1 = \"x1\"\n\n[domain]\nx1 = [1, 0]\n",
        "[system]\ndim = 1\nf1 = \"x1\"\n\n[domain]\nx1 = [0, inf]\n",
        "[system]\ndim = 1\nf1 = \"x1 +\"\n\n[domain]\nx1 = [0, 1]\n",
        SQUARE.replace("slack = 0", "slack = -1"),
        SQUARE.replace("slack = 0", "step = 0"),
        SQUARE.replace("slack = 0", "tol = 0"),
        SQUARE.replace("slack = 0", "depth = -1"),
        SQUARE.replace("slack = 0", "format = json"),
        SQUARE.replace("slack = 0", "mystery = 1"),
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config_text(text)


# -- decompose ---------------------------------------------------------------------

def test_decompose_square(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["decompose", cfg_file(SQUARE)])
    assert rc == 0
    lines = out.splitlines()
    assert "f1/x1: a=-2 b=2 case=case2 z=x alpha=2 beta=0" in lines
    assert "g1 = x1^2 + 2*x1 - 2*y1" in lines


def test_decompose_negation(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["decompose", cfg_file(NEGATION)])
    assert rc == 0
    lines = out.splitlines()
    assert "f1/x1: a=-1 b=-1 case=case4 z=y alpha=0 beta=0" in lines
    assert "g1 = -y1" in lines


def test_decompose_coupled(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["decompose", cfg_file(COUPLED)])
    assert rc == 0
    assert "g1 = -y1 + x2" in out.splitlines()
    assert "g2 = x1 - y2" in out.splitlines()


def test_decompose_csv_schema(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["decompose", cfg_file(SQUARE), "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "i,j,a,b,case,z,alpha,beta,g"
    assert lines[1] == '1,1,-2,2,case2,x,2,0,"x1^2 + 2*x1 - 2*y1"'


def test_decompose_prints_all_four_cases(capsys, cfg_file):
    # each printed column comes from the row of g: a selector and, where the
    # entry is sign-unstable, an offset; an entry with none prints 0, not -0
    path = cfg_file('[system]\ndim = 2\nf1 = "x1^2 + x2"\nf2 = "-x1 - x2^2"\n\n'
                    '[domain]\nx1 = [-1, 2]\nx2 = [-1, 2]\n')
    rc, out, err = _run(capsys, ["decompose", path])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "f1/x1: a=-2 b=4 case=case2 z=x alpha=2 beta=0",
        "f1/x2: a=0.999999999 b=1 case=case1 z=x alpha=0 beta=0",
        "g1 = x1^2 + x2 + 2*x1 - 2*y1",
        "f2/x1: a=-1 b=-0.999999999 case=case4 z=y alpha=0 beta=0",
        "f2/x2: a=-4 b=2 case=case3 z=y alpha=0 beta=-2",
        "g2 = -y1 - y2^2 + 2*x2 - 2*y2",
    ]
    rc, out, err = _run(capsys, ["decompose", path, "--format", "csv"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "i,j,a,b,case,z,alpha,beta,g",
        '1,1,-2,4,case2,x,2,0,"x1^2 + x2 + 2*x1 - 2*y1"',
        '1,2,0.999999999,1,case1,x,0,0,"x1^2 + x2 + 2*x1 - 2*y1"',
        '2,1,-1,-0.999999999,case4,y,0,0,"-y1 - y2^2 + 2*x2 - 2*y2"',
        '2,2,-4,2,case3,y,0,-2,"-y1 - y2^2 + 2*x2 - 2*y2"',
    ]


# -- bound -------------------------------------------------------------------------

def test_bound_square_depths(capsys, cfg_file):
    path = cfg_file(SQUARE)
    rc, out, _ = _run(capsys, ["bound", path])
    assert rc == 0 and out.splitlines() == ["f1 ∈ [-3, 5]"]
    rc, out, _ = _run(capsys, ["bound", path, "--depth", "1"])
    assert rc == 0 and out.splitlines() == ["f1 ∈ [0, 1]"]


def test_bound_negation(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["bound", cfg_file(NEGATION)])
    assert rc == 0 and out.splitlines() == ["f1 ∈ [-1, 0]"]


def test_bound_grid_check(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["bound", cfg_file(SQUARE), "--check"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "f1 ∈ [-3, 5]"
    assert lines[1].startswith("check f1: grid range [")
    assert lines[1].endswith("enclosed=yes")


def test_bound_grid_check_keeps_the_last_of_equal_zero_extremes(capsys, cfg_file):
    # the grid holds -0.0 (x1 < 0, x2 = 0) and 0.0 (x1 = 0); the last wins
    text = '[system]\ndim = 2\nf1 = "x1*x2"\n\n[domain]\nx1 = [-1, 0]\nx2 = [0, 1]\n'
    rc, out, _ = _run(capsys, ["bound", cfg_file(text), "--check"])
    assert rc == 0
    assert out.splitlines()[1] == "check f1: grid range [-1, 0] enclosed=yes"


def test_bound_falls_back_to_the_parent_where_a_child_is_unbounded(capsys, cfg_file):
    # d(1/x1) = -1/x1^2 is half-bounded on [1, 1e201], but x1^2 overflows to
    # [inf, inf] on the upper half, whose entry is then the whole line
    rc, out, err = _run(capsys, ["bound", cfg_file(_scalar("1/x1", "[1, 1e201]")), "--depth", "1"])
    assert (rc, out, err) == (0, "f1 ∈ [-1e+192, 1e+192]\n", "")


def test_bound_and_decompose_with_no_slack_on_a_linear_component(capsys, cfg_file):
    # the constant derivative 2 is enclosed by the point (2, 2)
    path = cfg_file(NEGATION.replace('"-x1"', '"2*x1"').replace("slack = 1e-10", "slack = 0"))
    rc, out, err = _run(capsys, ["bound", path])
    assert (rc, out, err) == (0, "f1 ∈ [0, 2]\n", "")
    rc, out, err = _run(capsys, ["decompose", path])
    assert rc == 0 and err == ""
    assert out.splitlines() == ["f1/x1: a=2 b=2 case=case1 z=x alpha=0 beta=0", "g1 = 2*x1"]


def test_bound_csv_schema(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["bound", cfg_file(COUPLED), "--format", "csv", "--check"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "i,lo,hi,grid_lo,grid_hi,enclosed"
    assert len(lines) == 3
    assert lines[1].startswith("1,-1,1,") and lines[1].endswith("yes")


# -- reach -------------------------------------------------------------------------

def test_reach_linear_decay_tube(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "1",
                               "--step", "0.001"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,lower_1,upper_1"
    assert len(lines) == 1002  # header + 1001 samples
    assert lines[1] == "0,0,1"
    final = lines[-1].split(",")
    assert final[0] == "1"
    assert float(final[1]) == pytest.approx(-math.sinh(1.0), abs=1e-6)
    assert float(final[2]) == pytest.approx(math.cosh(1.0), abs=1e-6)


def test_reach_degenerate_box(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "1",
                               "--x0-lo", "1", "--x0-hi", "1"])
    assert rc == 0
    final = out.splitlines()[-1].split(",")
    assert final[1] == final[2] == "0.367879441"


def test_reach_zero_horizon(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "0"])
    assert rc == 0
    assert out.splitlines() == ["t,lower_1,upper_1", "0,0,1"]


def test_reach_row_count(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["reach", cfg_file(COUPLED), "--t-end", "0.5",
                               "--step", "0.1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,lower_1,lower_2,upper_1,upper_2"
    assert len(lines) == 7


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# recorded when each cell was formatted on its own; the decay tube ends on a remainder step
GOLDEN_TUBES = {
    ("coupled.ini", "0.005"): """\
t,lower_1,lower_2,upper_1,upper_2
0,0,0,1,1
0.001,-0.00100100067,-0.00100100067,1.001001,1.001001
0.002,-0.00200400534,-0.00200400534,1.00200401,1.00200401
0.003,-0.00300901803,-0.00300901803,1.00300902,1.00300902
0.004,-0.00401604275,-0.00401604275,1.00401604,1.00401604
0.005,-0.00502508354,-0.00502508354,1.00502508,1.00502508
""",
    ("decay.ini", "0.0035"): """\
t,lower_1,upper_1
0,0,1
0.001,-0.00100000017,1.0000005
0.002,-0.00200000133,1.000002
0.003,-0.0030000045,1.0000045
0.0035,-0.00350000715,1.00000613
""",
}


@pytest.mark.parametrize("config, t_end", sorted(GOLDEN_TUBES))
def test_reach_prints_the_golden_tube(capsys, config, t_end):
    rc, out, err = _run(capsys, ["reach", str(CONFIGS / config), "--t-end", t_end])
    assert (rc, err) == (0, "")
    assert out == GOLDEN_TUBES[config, t_end]


def test_reach_row_pattern_prints_each_float_as_fmt_does():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1 / 3, 2800.0, 123456789.0,
              1234567891.0, -1e300, math.inf, -math.inf, math.nan]
    assert cli._row_pattern(len(values)) % tuple(values) == ",".join(map(cli._fmt, values))


# -- bound's hot path, pinned ------------------------------------------------------

# The eight bound inputs of perfbench/inputs.py at seed 1, one per kind of
# field (smooth, kink) and dimension (1-4), bisected 5-7 levels deep, and the
# brackets they printed when recorded: (label, f, domain, depth, slack, stdout).
GOLDEN_BRACKETS = [
    ('smooth1', ['x1*sin(1.90439*x1) + 0.103209*x1^2'],
     ['[-3.0653, 3.0653]'], 7, '0',
     'f1 ∈ [-1.86028021, 1.07955619]\n'),
    ('kink1', ['abs(x1^2 - 1.06349) + -0.26161*x1'],
     ['[-2, 1.8381]'], 7, None,
     'f1 ∈ [-0.275641342, 3.45973]\n'),
    ('smooth2', ['sin(x1)*cos(x2) + 0.477472*x1*x2', 'exp(0.541215*x1) - x2^2'],
     ['[-1, 1.60575]', '[-0.954541, 1]'], 6, None,
     'f1 ∈ [-1.01999869, 1.3335433]\nf2 ∈ [-0.417959357, 2.39524845]\n'),
    ('kink2', ['max(x1, x2^2 - 0.530724)', 'min(x1*x2, 0.292391) + abs(x1 - x2)'],
     ['[-1, 1]', '[-1.04037, 0.835765]'], 6, None,
     'f1 ∈ [-0.568241524, 1]\nf2 ∈ [-0.40779, 1.060555]\n'),
    ('smooth3', ['sin(x1)*x2 - x3^2', 'x1*x2*x3 + cos(1.03665*x2)', 'exp(x1/4) - x2*x3'],
     ['[-1, 1]', '[-1, 0.917151]', '[-0.972819, 1]'], 5, None,
     'f1 ∈ [-1.84147098, 0.854692082]\nf2 ∈ [-0.490893535, 2.12149311]\nf3 ∈ [-0.194018217, 2.28402542]\n'),
    ('kink3', ['abs(x1 - 0.544469*x2) + x3', 'max(x1*x3, -0.115865) - x2'],
     ['[-1, 1]', '[-1, 1]', '[-0.999272, 1]'], 6, None,
     'f1 ∈ [-1.7715065, 2.544469]\nf2 ∈ [-1.116047, 2]\n'),
    ('smooth4', ['x1*x2 - x3*x4', 'sin(x1 + x4) + 0.305004*x2^2'],
     ['[-1, 1]', '[-1, 1]', '[-0.924733, 1]', '[-1, 1]'], 6, None,
     'f1 ∈ [-2, 2]\nf2 ∈ [-1.53351768, 1.83852168]\n'),
    ('kink4', ['max(x1 + x2, x3 - x4)', 'abs(x1*x4) - min(x2, 0.540453*x3)'],
     ['[-1, 1]', '[-1, 1.00917]', '[-1, 1]', '[-1, 1]'], 6, None,
     'f1 ∈ [-2, 2.00917]\nf2 ∈ [-0.540453003, 2]\n'),
]


@pytest.mark.parametrize("label, exprs, domain, depth, slack, want", GOLDEN_BRACKETS,
                         ids=[case[0] for case in GOLDEN_BRACKETS])
def test_bound_prints_the_golden_brackets(capsys, cfg_file, label, exprs, domain, depth,
                                          slack, want):
    text = f"[system]\ndim = {len(domain)}\n"
    text += "".join(f'f{i} = "{e}"\n' for i, e in enumerate(exprs, start=1))
    text += "[domain]\n" + "".join(f"x{j} = {d}\n" for j, d in enumerate(domain, start=1))
    if slack is not None:
        text += f"[options]\nslack = {slack}\n"
    assert _run(capsys, ["bound", cfg_file(text), "--depth", str(depth)]) == (0, want, "")


# bound --depth 3 --check on each shipped config, in its own format and in CSV
GOLDEN_CHECKS = {
    ('coupled.ini', 'config'): 'i,lo,hi,grid_lo,grid_hi,enclosed\n1,-1,1,-1,1,yes\n2,-1,1,-1,1,yes\n',
    ('coupled.ini', 'csv'): 'i,lo,hi,grid_lo,grid_hi,enclosed\n1,-1,1,-1,1,yes\n2,-1,1,-1,1,yes\n',
    ('decay.ini', 'config'): 'f1 ∈ [-1, 0]\ncheck f1: grid range [-1, -0] enclosed=yes\n',
    ('decay.ini', 'csv'): 'i,lo,hi,grid_lo,grid_hi,enclosed\n1,-1,0,-1,-0,yes\n',
    ('square.ini', 'config'): 'f1 ∈ [0, 1]\ncheck f1: grid range [1.00020003e-08, 1] enclosed=yes\n',
    ('square.ini', 'csv'): 'i,lo,hi,grid_lo,grid_hi,enclosed\n1,0,1,1.00020003e-08,1,yes\n',
}


@pytest.mark.parametrize("config, fmt", sorted(GOLDEN_CHECKS))
def test_bound_check_prints_the_golden_report(capsys, config, fmt):
    argv = ["bound", str(CONFIGS / config), "--depth", "3", "--check"]
    argv += ["--format", "csv"] if fmt == "csv" else []
    assert _run(capsys, argv) == (0, GOLDEN_CHECKS[config, fmt], "")


def test_reach_writes_output_file(capsys, cfg_file, tmp_path):
    dest = tmp_path / "tube.csv"
    rc, out, _ = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "0.2",
                               "--step", "0.1", "--output", str(dest)])
    assert rc == 0 and out == ""
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,lower_1,upper_1" and len(lines) == 4


def test_reach_reports_an_unwritable_output(capsys, cfg_file, tmp_path):
    # used to end in a FileNotFoundError traceback
    dest = tmp_path / "missing" / "tube.csv"
    rc, out, err = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "0.2",
                                 "--step", "0.1", "--output", str(dest)])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: cannot write output {dest}: ")
    assert not dest.exists()


def test_reach_rejects_bad_corners(capsys, cfg_file):
    rc, _, err = _run(capsys, ["reach", cfg_file(NEGATION), "--x0-lo", "1",
                               "--x0-hi", "0"])
    assert rc == 1 and "x0-lo <= x0-hi" in err
    rc, _, err = _run(capsys, ["reach", cfg_file(NEGATION), "--x0-lo", "0,1"])
    assert rc == 1 and "expected 1 entries" in err
    # g's rows hold only on [domain] = [0, 1]; these boxes exited 0
    for lo, hi in (("5", "6"), ("-0.5", "0.5"), ("0.5", "1.5")):
        rc, out, err = _run(capsys, ["reach", cfg_file(NEGATION), "--x0-lo", lo, "--x0-hi", hi])
        assert rc == 1 and out == "" and err == "error: initial box must lie inside [domain]\n"


def test_tv_reads_a_negative_endpoint_in_exponent_form(capsys):
    # argparse took -1e-5 for an unknown flag: "argument --a: expected one argument"
    rc, out, err = _run(capsys, ["tv", "--expr", "x1", "--a", "-1e-5", "--b", "1"])
    assert (rc, err) == (0, "") and out.splitlines()[0] == "TV = 1.00001"


def test_reach_reads_a_corner_list_that_starts_negative(capsys, cfg_file):
    # as it took -0.5,0: only --x0-lo=-0.5,0 parsed
    path = cfg_file(COUPLED.replace("[0, 1]", "[-1, 1]"))
    got = _run(capsys, ["reach", path, "--x0-lo", "-0.5,0", "--x0-hi", "0,0", "--t-end", "0.01"])
    assert got == _run(capsys, ["reach", path, "--x0-lo=-0.5,0", "--x0-hi=0,0", "--t-end=0.01"])
    assert got[0] == 0 and got[1].splitlines()[1] == "0,-0.5,0,0,0"


@pytest.mark.parametrize("flag, value", [("--step", "nan"), ("--step", "inf"),
                                         ("--t-end", "inf"), ("--t-end", "nan")])
def test_reach_rejects_non_finite_flags(capsys, cfg_file, flag, value):
    # an infinite step used to print only the t = 0 row, and the others
    # ended in a traceback
    rc, out, err = _run(capsys, ["reach", cfg_file(NEGATION), flag, value])
    assert rc == 1 and out == ""
    assert err == f"error: {flag[2:].replace('-', '_')} must be finite\n"


@pytest.mark.parametrize("t_end, step", [("1e10", "1e-300"), ("1e10", "1e-290"),
                                         ("1000.5", "1e-3")])
def test_reach_rejects_too_many_steps(capsys, cfg_file, t_end, step):
    # 1e10/1e-300 ended in an OverflowError traceback; 1e10/1e-290 is
    # finite and ran without end, keeping every step in memory
    rc, out, err = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", t_end, "--step", step])
    assert rc == 1 and out == ""
    assert err == "error: t_end/step must be at most 1000000\n"


@pytest.mark.parametrize("text, n, m", [
    ('[system]\ndim = 2\nf1 = "x1 + x2"\n\n[domain]\nx1 = [0, 1]\nx2 = [0, 1]\n', 2, 1),
    ('[system]\ndim = 1\nf1 = "x1"\nf2 = "-x1"\n\n[domain]\nx1 = [0, 1]\n', 1, 2)])
def test_reach_rejects_a_non_square_config(capsys, cfg_file, text, n, m):
    # this ended in a DimensionError traceback when the embedding was built
    rc, out, err = _run(capsys, ["reach", cfg_file(text), "--t-end", "0.1"])
    assert rc == 1 and out == ""
    assert err == f"error: reach needs a square config: dim = {n} components, got {m}\n"


# -- tv ----------------------------------------------------------------------------

def test_tv_from_expression_flags(capsys):
    rc, out, _ = _run(capsys, ["tv", "--expr", "sin(x1)", "--a", "0",
                               "--b", str(2.0 * math.pi), "--grid", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "TV = 4"
    assert lines[1].startswith("bounds: f ∈ [-4, 4]")
    assert lines[2] == "x f+ f-"
    assert len(lines) == 6


def test_tv_from_config(capsys, cfg_file):
    rc, out, _ = _run(capsys, ["tv", cfg_file(SQUARE)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "TV = 2"
    assert "f ∈ [-1, 3]" in lines[1]


def test_tv_constant_bounds_degenerate(capsys):
    rc, out, _ = _run(capsys, ["tv", "--expr", "7", "--a", "0", "--b", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "TV = 0"
    assert "f ∈ [7, 7]" in lines[1]


def test_tv_csv_schema(capsys):
    rc, out, _ = _run(capsys, ["tv", "--expr", "x1^2", "--a", "-1", "--b", "1",
                               "--grid", "3", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,fplus,fminus,tv,lower,upper"
    assert lines[1] == "-1,0,1,2,-1,3"
    assert lines[3] == "1,2,-1,2,-1,3"


# -- tv's output, pinned -------------------------------------------------------------

# The 14 tv inputs of perfbench/inputs.py at seed 1 (7 smooth, 7 with kinks),
# and the text they printed when recorded: (label, expr, a, b, grid, stdout).
GOLDEN_TV = [
    ('xsinx', '1.05352*x1*sin(x1) + 0.0311545', '-10.0', '10.0', '9',
     'TV = 72.7814117\n'
     'bounds: f ∈ [-78.4816284, 67.081195]  (g(lo,hi) = -78.4816284, g(hi,lo) = 67.081195)\n'
     'x f+ f-\n'
     '-10 0 -5.70021671\n'
     '-7.5 15.0007194 -7.55805192\n'
     '-5 27.463462 -32.483537\n'
     '-2.5 34.132769 -32.5253586\n'
     '0 36.3907059 -36.3595514\n'
     '2.5 38.6486427 -37.0412323\n'
     '5 45.3179498 -50.3380248\n'
     '7.5 57.7806923 -50.3380248\n'
     '10 72.7814117 -78.4816284\n'),
    ('two_tones', '1.15807*(sin(3*x1) + 0.5*cos(5*x1)) + 0.336463', '0.0', '6.283185307179586', '9',
     'TV = 16.498363\n'
     'bounds: f ∈ [-15.582865, 17.413861]  (g(lo,hi) = -15.582865, g(hi,lo) = 17.413861)\n'
     'x f+ f-\n'
     '0 0 0.915498\n'
     '0.785398163 0.959000339 -0.213097764\n'
     '1.57079633 2.52650991 -3.34811691\n'
     '2.35619449 5.49048834 -3.92570662\n'
     '3.14159265 8.24918148 -8.49175348\n'
     '3.92699082 9.20818182 -9.2811584\n'
     '4.71238898 10.7756914 -9.2811584\n'
     '5.49778714 13.7396698 -14.6315256\n'
     '6.28318531 16.498363 -15.582865\n'),
    ('cubic', '1.17461*(x1^3 - 3*x1) + -0.396583', '-2.0', '2.0', '9',
     'TV = 14.09532\n'
     'bounds: f ∈ [-12.142683, 11.349517]  (g(lo,hi) = -12.142683, g(hi,lo) = 11.349517)\n'
     'x f+ f-\n'
     '-2 0 -2.745803\n'
     '-1.5 3.67065625 -2.745803\n'
     '-1 4.69844 -2.745803\n'
     '-0.5 5.43257125 -4.2140655\n'
     '0 7.04766 -7.444243\n'
     '0.5 8.66274875 -10.6744205\n'
     '1 9.39688 -12.142683\n'
     '1.5 10.4246638 -12.142683\n'
     '2 14.09532 -12.142683\n'),
    ('gauss_wave', '0.862677*exp(-x1^2)*cos(4*x1) + -0.136029', '-3.0', '3.0', '9',
     'TV = 4.11889573\n'
     'bounds: f ∈ [-4.25483489, 3.98295656]  (g(lo,hi) = -4.25483489, g(hi,lo) = 3.98295656)\n'
     'x f+ f-\n'
     '-3 0 -0.135939161\n'
     '-2.25 0.00510367656 -0.146107903\n'
     '-1.5 0.0989416589 -0.147666708\n'
     '-0.75 0.687451583 -1.31010005\n'
     '0 2.05944786 -1.33279986\n'
     '0.75 3.43144414 -4.05409261\n'
     '1.5 4.01995407 -4.06867912\n'
     '2.25 4.11379205 -4.25479628\n'
     '3 4.11889573 -4.25483489\n'),
    ('sin_squared', '0.956595*(sin(x1)^2 + 0.05*x1) + -0.324353', '0.0', '9.0', '9',
     'TV = 5.60339732\n'
     'bounds: f ∈ [-5.3348129, 5.27904432]  (g(lo,hi) = -5.3348129, g(hi,lo) = 5.27904432)\n'
     'x f+ f-\n'
     '0 0 -0.324353\n'
     '1.125 0.832559842 -0.324353\n'
     '2.25 1.37791004 -1.0155255\n'
     '3.375 1.9779206 -2.08967339\n'
     '4.5 2.8946431 -2.08967339\n'
     '5.625 3.50353385 -3.20092953\n'
     '6.75 4.04724004 -3.85499379\n'
     '7.875 4.86347254 -3.85499379\n'
     '9 5.60339732 -5.3348129\n'),
    ('rational', '1.10229*x1/(1 + x1^2) + -0.40189', '-5.0', '5.0', '9',
     'TV = 1.78062231\n'
     'bounds: f ∈ [-1.97053346, 1.16675346]  (g(lo,hi) = -1.97053346, g(hi,lo) = 1.16675346)\n'
     'x f+ f-\n'
     '-5 0 -0.613868846\n'
     '-3.75 0.0624501995 -0.738769245\n'
     '-2.5 0.168121154 -0.950111154\n'
     '-1.25 0.325723593 -1.26531603\n'
     '0 0.890311154 -1.29220115\n'
     '1.25 1.45489871 -1.31908628\n'
     '2.5 1.61250115 -1.63429115\n'
     '3.75 1.71817211 -1.84563306\n'
     '5 1.78062231 -1.97053346\n'),
    ('quartic', '1.07672*(x1^4 - 4*x1^2 + 0.3*x1) + -0.3583', '-2.5', '2.5', '9',
     'TV = 47.5345047\n'
     'bounds: f ∈ [-31.9438897, 61.5100397]  (g(lo,hi) = -31.9438897, g(hi,lo) = 61.5100397)\n'
     'x f+ f-\n'
     '-2.5 0 13.975535\n'
     '-1.875 16.7730159 -19.5704968\n'
     '-1.25 19.3626415 -24.2255005\n'
     '-0.625 22.147235 -24.2255005\n'
     '0 23.8672005 -24.2255005\n'
     '0.625 25.1955135 -26.870009\n'
     '1.25 27.576337 -31.631656\n'
     '1.875 30.3577189 -31.9438897\n'
     '2.5 47.5345047 -31.9438897\n'),
    ('abs_xsinx', '0.953466*abs(x1*sin(x1)) + -0.280045', '-5.5', '5.5', '5',
     'TV = 17.9020478\n'
     'bounds: f ∈ [-14.4821949, 21.3219007]  (g(lo,hi) = -14.4821949, g(hi,lo) = 21.3219007)\n'
     'x f+ f-\n'
     '-5.5 0 3.41985292\n'
     '-2.75 6.48169592 -5.76101378\n'
     '0 8.95102389 -9.23106889\n'
     '2.75 11.4203519 -10.6996697\n'
     '5.5 17.9020478 -14.4821949\n'),
    ('max_waves', '1.10238*max(sin(3*x1), cos(x1)) + 0.0811054', '-1.1', '2.3', '5',
     'TV = 3.35393762\n'
     'bounds: f ∈ [-2.63517179, 3.93507831]  (g(lo,hi) = -2.63517179, g(hi,lo) = 3.93507831)\n'
     'x f+ f-\n'
     '-1.1 0 0.581140692\n'
     '-0.25 0.568074383 0.581140692\n'
     '0.6 0.799001918 0.355653633\n'
     '1.45 1.73971223 -1.52576698\n'
     '2.3 3.35393762 -2.63517179\n'),
    ('abs_parabola', '1.09819*abs(x1^2 - 1.21) + 0.0393231', '-3.0', '3.0', '9',
     'TV = 19.76742\n'
     'bounds: f ∈ [-11.1731968, 28.3616432]  (g(lo,hi) = -11.1731968, g(hi,lo) = 28.3616432)\n'
     'x f+ f-\n'
     '-3 0 8.5942232\n'
     '-2.25 4.32412312 -0.05402305\n'
     '-1.5 7.4127825 -6.2313418\n'
     '-0.75 9.26597812 -8.515577\n'
     '0 9.88371 -8.515577\n'
     '0.75 10.5014419 -9.75104075\n'
     '1.5 12.3546375 -11.1731968\n'
     '2.25 15.4432969 -11.1731968\n'
     '3 19.76742 -11.1731968\n'),
    ('clipped', '0.836385*(min(x1^2, 1) + 0.4*x1) + 0.280331', '-2.0', '2.0', '17',
     'TV = 2.4087888\n'
     'bounds: f ∈ [-0.6229648, 2.8563968]  (g(lo,hi) = -0.6229648, g(hi,lo) = 2.8563968)\n'
     'x f+ f-\n'
     '-2 0 0.447608\n'
     '-1.75 0.0836385 0.447608\n'
     '-1.5 0.167277 0.447608\n'
     '-1.25 0.2509155 0.447608\n'
     '-1 0.334554 0.447608\n'
     '-0.75 0.616833938 -0.116951875\n'
     '-0.5 0.79456575 -0.4724155\n'
     '-0.25 0.867749438 -0.618782875\n'
     '0 0.9032958 -0.6229648\n'
     '0.25 1.03920836 -0.6229648\n'
     '0.5 1.27966905 -0.6229648\n'
     '0.75 1.62467786 -0.6229648\n'
     '1 2.0742348 -0.6229648\n'
     '1.25 2.1578733 -0.6229648\n'
     '1.5 2.2415118 -0.6229648\n'
     '1.75 2.3251503 -0.6229648\n'
     '2 2.4087888 -0.6229648\n'),
    ('abs_sin', '1.18471*abs(sin(x1)) + -0.445061', '0.0', '7.0', '9',
     'TV = 5.51717859\n'
     'bounds: f ∈ [-5.183901, 5.07211759]  (g(lo,hi) = -5.183901, g(hi,lo) = 5.07211759)\n'
     'x f+ f-\n'
     '0 0 -0.445061\n'
     '0.875 0.909316463 -0.445061\n'
     '1.75 1.20368201 -0.483005018\n'
     '2.625 1.78426768 -1.64417637\n'
     '3.5 2.7849964 -2.814481\n'
     '4.375 3.48733865 -2.814481\n'
     '5.25 3.72125172 -3.14872443\n'
     '6.125 4.55221686 -4.81065472\n'
     '7 5.51717859 -5.183901\n'),
    ('vee', '1.02061*(abs(x1 - 0.3) + 0.2*x1) + 0.269555', '-2.0', '2.0', '17',
     'TV = 3.9599668\n'
     'bounds: f ∈ [-1.5471308, 6.1686808]  (g(lo,hi) = -1.5471308, g(hi,lo) = 6.1686808)\n'
     'x f+ f-\n'
     '-2 0 2.208714\n'
     '-1.75 0.204122 1.80047\n'
     '-1.5 0.408244 1.392226\n'
     '-1.25 0.612366 0.983982\n'
     '-1 0.816488 0.575738\n'
     '-0.75 1.02061 0.167494\n'
     '-0.5 1.224732 -0.24075\n'
     '-0.25 1.428854 -0.648994\n'
     '0 1.632976 -1.057238\n'
     '0.25 1.837098 -1.465482\n'
     '0.5 2.1228688 -1.5471308\n'
     '0.75 2.4290518 -1.5471308\n'
     '1 2.7352348 -1.5471308\n'
     '1.25 3.0414178 -1.5471308\n'
     '1.5 3.3476008 -1.5471308\n'
     '1.75 3.6537838 -1.5471308\n'
     '2 3.9599668 -1.5471308\n'),
    ('narrow_spike', 'max(0, 1 - 1000*abs(x1 - 0.3001))', '-1.0', '1.0', '9',
     'TV = 2\n'
     'bounds: f ∈ [-2, 2]  (g(lo,hi) = -2, g(hi,lo) = 2)\n'
     'x f+ f-\n'
     '-1 0 0\n'
     '-0.75 0 0\n'
     '-0.5 0 0\n'
     '-0.25 0 0\n'
     '0 0 0\n'
     '0.25 0 0\n'
     '0.5 2 -2\n'
     '0.75 2 -2\n'
     '1 2 -2\n'),
]


# tv --format csv on the shipped scalar configs
GOLDEN_TV_CSV = {
    'decay.ini': ('x,fplus,fminus,tv,lower,upper\n'
                  '0,0,-0,1,-2,1\n'
                  '0.1,0.1,-0.2,1,-2,1\n'
                  '0.2,0.2,-0.4,1,-2,1\n'
                  '0.3,0.3,-0.6,1,-2,1\n'
                  '0.4,0.4,-0.8,1,-2,1\n'
                  '0.5,0.5,-1,1,-2,1\n'
                  '0.6,0.6,-1.2,1,-2,1\n'
                  '0.7,0.7,-1.4,1,-2,1\n'
                  '0.8,0.8,-1.6,1,-2,1\n'
                  '0.9,0.9,-1.8,1,-2,1\n'
                  '1,1,-2,1,-2,1\n'),
    'square.ini': ('x,fplus,fminus,tv,lower,upper\n'
                   '-1,0,1,2,-1,3\n'
                   '-0.8,0.36,0.28,2,-1,3\n'
                   '-0.6,0.64,-0.28,2,-1,3\n'
                   '-0.4,0.84,-0.68,2,-1,3\n'
                   '-0.2,0.96,-0.92,2,-1,3\n'
                   '0,1,-1,2,-1,3\n'
                   '0.2,1.04,-1,2,-1,3\n'
                   '0.4,1.16,-1,2,-1,3\n'
                   '0.6,1.36,-1,2,-1,3\n'
                   '0.8,1.64,-1,2,-1,3\n'
                   '1,2,-1,2,-1,3\n'),
}


@pytest.mark.parametrize("label, expr, a, b, grid, want", GOLDEN_TV,
                         ids=[case[0] for case in GOLDEN_TV])
def test_tv_prints_the_golden_split(capsys, label, expr, a, b, grid, want):
    argv = ["tv", "--expr", expr, "--a", a, "--b", b, "--grid", grid]
    assert _run(capsys, argv) == (0, want, "")


@pytest.mark.parametrize("config", sorted(GOLDEN_TV_CSV))
def test_tv_csv_prints_the_golden_split(capsys, config):
    argv = ["tv", str(CONFIGS / config), "--format", "csv"]
    assert _run(capsys, argv) == (0, GOLDEN_TV_CSV[config], "")


def test_tv_source_validation(capsys, cfg_file):
    rc, _, err = _run(capsys, ["tv"])
    assert rc == 1 and "config file or --expr" in err
    rc, _, err = _run(capsys, ["tv", cfg_file(SQUARE), "--expr", "x1"])
    assert rc == 1 and "not both" in err
    rc, _, err = _run(capsys, ["tv", "--expr", "x1"])
    assert rc == 1 and "--a and --b" in err
    rc, _, err = _run(capsys, ["tv", "--expr", "x1", "--a", "1", "--b", "0"])
    assert rc == 1 and "exceeds" in err
    rc, _, err = _run(capsys, ["tv", "--expr", "x1 + x2", "--a", "0", "--b", "1"])
    assert rc == 1 and "bad expression" in err
    rc, _, err = _run(capsys, ["tv", cfg_file(COUPLED)])
    assert rc == 1 and "scalar config" in err
    # a config's interval is its [domain]; these printed TV over [-1, 1] at exit 0
    for flags in (["--a", "5", "--b", "9"], ["--b", "9"]):
        rc, out, err = _run(capsys, ["tv", cfg_file(SQUARE), *flags])
        assert rc == 1 and out == "" and "--a and --b go with --expr" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "inf", "tol must be finite"),
    ("--tol", "nan", "tol must be finite"),
    ("--max-cells", "-5", "--max-cells must be at least 32"),
    ("--max-cells", "0", "--max-cells must be at least 32"),
    ("--max-cells", "8", "--max-cells must be at least 32"),
    ("--max-cells", "31", "--max-cells must be at least 32"),
    ("--max-cells", "1048577", "--max-cells must be at most 1048576"),
    ("--grid", "1000001", "--grid needs at most 1000000 points")])
def test_tv_rejects_bad_tolerance_and_cell_flags(capsys, flag, value, message):
    # --tol inf printed TV = 43.3137085 here (the TV is 2800), --tol nan ran
    # to the cell cap and exited 4, and --max-cells from -5 to 31 exited 4:
    # the ladder cannot stop before 32 cells.  Above their caps, --max-cells
    # and --grid had no bound on the memory they ask for
    rc, out, err = _run(capsys, ["tv", "--expr", "sin(700*x1)", "--a", "0",
                                 "--b", "6.283185307179586", flag, value])
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_tv_exits_5_where_a_later_node_hides_an_overflow(capsys):
    # f is 0 everywhere, but inf - inf = nan made sign print TV = 1 and exit 0
    rc, out, err = _run(capsys, ["tv", "--expr", "sign(x1*1e200*1e200 - x1*1e200*1e200)",
                                 "--a", "0", "--b", "1"])
    assert (rc, out, err) == (5, "", "error: non-finite value during evaluation\n")


@pytest.mark.parametrize("expr, a, b", [("cos((min(x1,0.4))^3)/x1", "-0.44", "0.52"),
                                        ("x1/x1", "-1", "2")])
def test_tv_refuses_where_f_prime_is_unbounded(capsys, expr, a, b):
    # a pole, and a 0/0, of f' inside [a, b]: no cap on the cells can certify them
    rc, out, err = _run(capsys, ["tv", "--expr", expr, "--a", a, "--b", b,
                                 "--max-cells", "4096"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: f' is unbounded near x1 = ")


def test_tv_rejects_a_non_finite_config_tolerance(capsys, cfg_file):
    rc, out, err = _run(capsys, ["tv", cfg_file(SQUARE + "tol = nan\n")])
    assert rc == 1 and out == ""
    assert err == "error: options.tol: must be finite\n"


# -- option checks -------------------------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("depth", "-1"), ("depth", "21"), ("depth", "x"), ("step", "0"), ("step", "nan"),
    ("t_end", "-1"), ("t_end", "inf"), ("tol", "0"), ("tol", "inf")])
def test_a_flag_rejects_what_its_config_key_rejects(capsys, cfg_file, key, value):
    # the flags were checked apart from their keys; at --depth 21 this config
    # exited 2, the depth unchecked
    with pytest.raises(ConfigError) as config_side:
        parse_config_text(SQUARE + f"{key} = {value}\n")
    prefix = f"options.{key}: "
    assert str(config_side.value).startswith(prefix)
    command, text = {"depth": ("bound", UNBOUNDED), "step": ("reach", NEGATION),
                     "t_end": ("reach", NEGATION), "tol": ("tv", SQUARE)}[key]
    flag = "--" + key.replace("_", "-")
    rc, out, err = _run(capsys, [command, cfg_file(text), flag, value])
    assert (rc, out) == (1, "")
    assert err == f"error: {key} {str(config_side.value)[len(prefix):]}\n"


# -- exit codes ----------------------------------------------------------------------

def test_exit_code_for_config_errors(capsys, cfg_file):
    rc, _, err = _run(capsys, ["decompose", "/nonexistent/run.ini"])
    assert rc == 1 and "cannot read config" in err
    rc, _, err = _run(capsys, ["bound", cfg_file(SQUARE.replace("[-1, 1]", "[-1, inf]"))])
    assert rc == 1 and "finite" in err


def test_exit_code_for_usage_errors(capsys, cfg_file):
    rc, _, err = _run(capsys, ["frobnicate", cfg_file(SQUARE)])
    assert rc == 1
    rc, _, err = _run(capsys, ["bound", cfg_file(SQUARE), "--unknown-flag"])
    assert rc == 1


def test_exit_code_for_unbounded_derivative(capsys, cfg_file):
    rc, _, err = _run(capsys, ["decompose", cfg_file(UNBOUNDED)])
    assert rc == 2 and "f1/x1" in err
    rc, _, err = _run(capsys, ["bound", cfg_file(UNBOUNDED)])
    assert rc == 2


@pytest.mark.parametrize("command", [["bound", "--depth", "0"], ["bound", "--depth", "3"],
                                     ["decompose"], ["reach", "--t-end", "0.1"]])
@pytest.mark.parametrize("expr", ["1/(x1 - 0.3) + 10*x1", "1/x1 + 10*x1", "x1^-3 + 10*x1"])
def test_exit_code_for_a_divisor_that_can_vanish(capsys, cfg_file, command, expr):
    # for the first, f(0.31) = 103.1, but bound printed f1 ∈ [-7.38799662,
    # 8.04733728] at depth 0 and ended in a ValueError traceback at depth 3
    rc, out, err = _run(capsys, command[:1] + [cfg_file(_scalar(expr))] + command[1:])
    assert (rc, out, err) == (2, "", "error: derivative enclosure for f1/x1 is (-inf, inf)\n")


@pytest.mark.parametrize("command", [["decompose"], ["bound", "--depth", "3"], ["reach"]])
@pytest.mark.parametrize("box, end", [("[-1, 1]", "a"), ("[-1, 0.5]", "b")])
def test_exit_code_for_an_offset_that_overflows(capsys, cfg_file, command, box, end):
    # f' = 2e307*x1 encloses to [-2e307, 2e307] (case2, offset |a| + epsilon)
    # or [-2e307, 1e307] (case3, |b| + epsilon); either sum overflows.  Each
    # command ended in a ValueError traceback at exit 1
    text = _scalar("1e307*x1^2", box) + "\n[options]\nepsilon = 1.7e308\n"
    rc, out, err = _run(capsys, command[:1] + [cfg_file(text)] + command[1:])
    assert (rc, out) == (2, "")
    assert err == f"error: offset for f1/x1 overflows: |{end}| + epsilon is not finite\n"


@pytest.mark.parametrize("depth", ["0", "3"])
def test_exit_code_for_an_offset_sum_that_overflows(capsys, cfg_file, depth):
    # the offset c = 2e307 + 1.5e308 is finite, but c * (x - y) over a box of
    # width 2 is not: bound printed f1 ∈ [-inf, inf] at exit 0
    text = _scalar("1e307*x1^2") + "\n[options]\nepsilon = 1.5e308\n"
    rc, out, err = _run(capsys, ["bound", cfg_file(text), "--depth", depth])
    assert (rc, out) == (2, "")
    assert err == ("error: bracket for f1 overflows: f1 plus its offsets is not finite "
                   "on the box\n")
    rc, out, err = _run(capsys, ["reach", cfg_file(text)])
    assert (rc, out, err) == (3, "", "error: state magnitude cap exceeded at t=0.001\n")


@pytest.mark.parametrize("expr", ["step(x1) - step(x1-0.5)", "sign(x1)*sign(x1-0.5)"])
@pytest.mark.parametrize("depth", ["0", "3"])
def test_exit_code_for_jumps_of_both_signs(capsys, cfg_file, expr, depth):
    # the derivative holds a rising and a falling jump, so no sign is known
    rc, out, err = _run(capsys, ["bound", cfg_file(_scalar(expr)), "--depth", depth])
    assert (rc, out, err) == (2, "", "error: derivative enclosure for f1/x1 is (-inf, inf)\n")


@pytest.mark.parametrize("expr, bracket", [("step(-x1)", "[-2e-09, 1]"),
                                           ("-sign(x1)", "[-1, 1]")])
def test_bound_of_a_falling_jump(capsys, cfg_file, expr, bracket):
    rc, out, err = _run(capsys, ["bound", cfg_file(_scalar(expr)), "--check"])
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == f"f1 ∈ {bracket}"
    assert out.splitlines()[1].endswith("enclosed=yes")


def test_exit_code_for_a_closed_stdout():
    # the reader takes one line and closes the pipe: no traceback, exit 1
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         "from mixedmono.cli import main; sys.exit(main())",
         "tv", "--expr", "sin(x1)", "--a", "0", "--b", "6.28", "--grid", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"TV = ") and err == b""


def test_exit_code_for_blowup(capsys, cfg_file):
    text = """\
[system]
dim = 1
f1 = "x1^2"

[domain]
x1 = [2, 2]
"""
    rc, _, err = _run(capsys, ["reach", cfg_file(text), "--t-end", "1"])
    assert rc == 3 and "cap exceeded" in err


def test_tv_of_a_fast_oscillation(capsys):
    # 1400 sign changes of f' on 1024 scan cells; the variation is 2800
    rc, out, err = _run(capsys, ["tv", "--expr", "sin(700*x1)", "--a", "0",
                                 "--b", "6.283185307179586", "--grid", "3"])
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == "TV = 2800"


def test_exit_code_for_non_convergence(capsys):
    rc, _, err = _run(capsys, ["tv", "--expr", "abs(sin(1/x1))", "--a", "0.001",
                               "--b", "1", "--tol", "1e-12", "--max-cells", "128"])
    assert rc == 4 and "did not stabilize" in err


def test_exit_code_for_evaluation_errors(capsys, cfg_file):
    rc, out, err = _run(capsys, ["tv", "--expr", "1/x1", "--a", "-1", "--b", "1"])
    assert rc == 5 and out == "" and err == "error: division by zero\n"
    rc, out, err = _run(capsys, ["tv", "--expr", "sin(1e200*1e200*(x1+2))", "--a", "0",
                                 "--b", "1"])
    assert rc == 5 and out == "" and "of a non-finite value" in err
    text = '[system]\ndim = 1\nf1 = "exp(800*x1)"\n\n[domain]\nx1 = [0, 1]\n'
    rc, out, err = _run(capsys, ["bound", cfg_file(text)])
    assert rc == 5 and out == "" and err == "error: exp overflow\n"


def test_bound_with_overflowing_derivative_enclosure(capsys, cfg_file):
    # f = 1 on the box, but the enclosure of f' = step(1 - x1*x1)*(x1 + x1)
    # overflows to [inf, inf]; the whole line encloses it, which is unbounded
    text = '[system]\ndim = 1\nf1 = "min(x1*x1, 1)"\n\n[domain]\nx1 = [1e200, 1e200]\n'
    path = cfg_file(text)
    for depth in ("0", "2"):
        rc, out, err = _run(capsys, ["bound", path, "--depth", depth])
        assert rc == 2 and out == ""
        assert err == "error: derivative enclosure for f1/x1 is (-inf, inf)\n"


def test_commands_on_a_box_wider_than_the_largest_float(capsys, cfg_file):
    # b - a = 2e308 overflows, and every grid point was NaN: both exited 5
    # with "point entries must be finite"
    path = cfg_file(_scalar("x1", "[-1e308, 1e308]"))
    assert _run(capsys, ["bound", path, "--check"]) == (
        0, "f1 ∈ [-1e+308, 1e+308]\ncheck f1: grid range [-1e+308, 1e+308] enclosed=yes\n", "")
    rc, out, err = _run(capsys, ["tv", "--expr", "x1/1e10", "--a=-1e308", "--b", "1e308"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[:2] == [
        "TV = 2e+298", "bounds: f ∈ [-1e+298, 1e+298]  (g(lo,hi) = -1e+298, g(hi,lo) = 1e+298)"]


@pytest.mark.parametrize("expr, a, b, err", [
    ("x1", "-1e308", "1e308",
     "error: total variation over [-1e+308, 1e+308] overflows the largest float\n"),
    ("0-x1", "0", "1.5e308", "error: f-(1.5e+308) overflows the largest float\n")])
def test_tv_refuses_a_split_past_the_largest_float(capsys, expr, a, b, err):
    # these printed TV = inf, and f- = -inf with bounds [-inf, 1.5e+308], at exit 0
    assert _run(capsys, ["tv", "--expr", expr, f"--a={a}", "--b", b]) == (2, "", err)


def test_tv_split_is_consistent_with_printed_variation(capsys):
    # the split must be read from the same partition as the printed TV
    rc, out, _ = _run(capsys, ["tv", "--expr", "max(0, 1 - 1000*abs(x1 - 0.3001))",
                               "--a", "-1", "--b", "1", "--grid", "11"])
    assert rc == 0
    lines = out.splitlines()
    tv = float(lines[0].removeprefix("TV = "))
    assert tv == 2.0
    assert lines[2] == "x f+ f-"
    plus = [float(line.split()[1]) for line in lines[3:]]
    assert len(plus) == 11
    assert all(a <= b for a, b in zip(plus, plus[1:]))
    assert plus[-1] == tv


@pytest.mark.parametrize("expr", ["max(0, 1 - 1000*abs(x1 - 0.3001))", "exp(-1e9*(x1-0.3001)^2)",
                                  "exp(-1e10*(x1-0.3001)^2)", "exp(-1e11*(x1-0.3001)^2)"])
def test_tv_of_features_between_the_grid_points(capsys, expr):
    # a spike and bumps far narrower than a cell of the start grid printed TV = 0
    rc, out, err = _run(capsys, ["tv", "--expr", expr, "--a", "-1", "--b", "1", "--grid", "2"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[:2] == ["TV = 2", "bounds: f ∈ [-2, 2]  (g(lo,hi) = -2, g(hi,lo) = 2)"]


def _chain(op, count):
    return op.join(["x1"] * count)


@pytest.mark.parametrize("command, text", [
    ("decompose", _chain(" + ", 500)), ("decompose", _chain(" + ", 1200)),
    ("bound", _chain(" + ", 1200)), ("tv", _chain(" + ", 1200)), ("tv", _chain("*", 450)),
    ("tv --expr", "(" * 250 + "x1" + ")" * 250)],
    ids=["decompose-sum500", "decompose-sum1200", "bound-sum1200", "tv-sum1200",
         "tv-product450", "tv-parens250"])
def test_expressions_nested_past_the_cap_are_refused(capsys, cfg_file, command, text):
    # each ended in a RecursionError traceback (or would, once tv encloses f'')
    if command == "tv --expr":
        argv = ["tv", "--expr", text, "--a", "0", "--b", "1"]
    else:
        argv = [command, cfg_file(_scalar(text, "[0.5, 0.9]"))]
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: bad expression: expression nests deeper than "
                          f"{MAX_NESTING} levels")


@pytest.mark.parametrize("text", [_chain(" + ", MAX_NESTING + 1), _chain("*", MAX_NESTING + 1),
                                  "sin(" * MAX_NESTING + "x1" + ")" * MAX_NESTING],
                         ids=["sum", "product", "nested-sin"])
def test_expressions_at_the_nesting_cap_run_every_command(capsys, cfg_file, text):
    path = cfg_file(_scalar(text, "[0.5, 0.9]"))
    for argv in (["decompose", path], ["bound", path, "--depth", "2", "--check"],
                 ["reach", path, "--t-end", "0.01", "--step", "0.01"], ["tv", path],
                 ["tv", "--expr", text, "--a", "0.5", "--b", "0.9"]):
        assert _run(capsys, argv)[::2] == (0, ""), argv
    # tv encloses f'' only where f' changes sign; build and run it here
    f = ScalarFunction.from_string(text, 0.5, 0.9)
    lo, hi = f.enclosure(2, 0.5, 0.9)
    assert lo <= hi


def test_bound_check_refuses_a_grid_past_the_box_cap(capsys, cfg_file):
    # two points per axis are 2^21 on 21 axes: the grid ran out of memory
    text = ('[system]\ndim = 21\nf1 = "' + " + ".join(f"x{j}" for j in range(1, 22))
            + '"\n\n[domain]\n' + "".join(f"x{j} = [0, 1]\n" for j in range(1, 22)))
    path = cfg_file(text)
    rc, out, err = _run(capsys, ["bound", path, "--check"])
    assert (rc, out, err) == (1, "", "error: --check needs 2^21 grid points, more than 2^20\n")
    assert _run(capsys, ["bound", path]) == (0, "f1 ∈ [0, 21]\n", "")


def test_one_parser_serves_consecutive_commands(capsys, cfg_file, monkeypatch):
    # main parses every argv with the parser built at import; a usage error
    # must leave nothing behind for the commands after it
    square = cfg_file(SQUARE)
    commands = [["bound", square, "--depth", "x"],
                ["bound", square, "--depth", "2"],
                ["reach", cfg_file(NEGATION, "decay.ini"), "--t-end", "0.2", "--step", "0.1"],
                ["tv", square, "--grid", "3"]]
    in_sequence = [_run(capsys, argv)[:2] for argv in commands]
    assert [rc for rc, _ in in_sequence] == [1, 0, 0, 0]
    alone = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        alone.append(_run(capsys, argv)[:2])
    assert in_sequence == alone


def test_perfbench_tracer_finds_and_restores_its_names(capsys, cfg_file, monkeypatch):
    # perfbench/layers.py wraps program functions by name; a name it lists
    # that the program lost would only break perfbench --trace runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")

    def program_attributes():
        owners = [m for name, m in sys.modules.items() if name.startswith("mixedmono.")]
        owners += [Interval, EmbeddingSystem, ScalarFunction]
        return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}

    before = program_attributes()
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert _run(capsys, ["bound", cfg_file(COUPLED), "--depth", "1"])[0] == 0
        assert tracer.calls["decomp.refine_bounds"] > 0
        assert _run(capsys, ["reach", cfg_file(COUPLED), "--t-end", "0.01"])[0] == 0
        assert tracer.calls["embed.rhs"] > 0
        assert _run(capsys, ["tv", "--expr", "x1*sin(x1)", "--a", "-2", "--b", "3"])[0] == 0
        assert tracer.calls["jordan.total_variation"] > 0
        assert tracer.calls["jordan.derivative"] > 0
    finally:
        tracer.uninstall()
    after = program_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_exported_function_serves_a_command(capsys, cfg_file):
    # each subcommand on each shipped config, profiled: a public function that
    # no command calls is API that only the tests use
    import inspect
    import mixedmono

    exported = {getattr(mixedmono, name).__code__: name for name in mixedmono.__all__
                if inspect.isfunction(getattr(mixedmono, name))}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            called.add(exported[frame.f_code])

    sys.setprofile(profile)
    try:
        for config in sorted(CONFIGS.glob("*.ini")):
            for argv in (["decompose"], ["bound", "--depth", "1", "--check"],
                         ["reach", "--t-end", "0.01"], ["tv"]):
                _run(capsys, [argv[0], str(config), *argv[1:]])
    finally:
        sys.setprofile(None)
    # perfbench/layers.py traces these four by name (ROADMAP item 7), and the
    # whole-line construction is kept until a command reaches it (item 17)
    exempt = {"evaluate", "eval_interval", "eval_decomposition", "bound_box",
              "unbounded_split", "unbounded_decomposition"}
    assert set(exported.values()) - called == exempt

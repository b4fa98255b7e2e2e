"""Command-line interface: configs, subcommands, output schemas, exit codes."""

import math

import pytest

from mixedmono import ConfigError
from mixedmono.cli import format_config, main, parse_config_text

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


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="run.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- config parsing ---------------------------------------------------------------

def test_config_parses_sections_and_options():
    text = SQUARE.replace("slack = 0", "slack = 0\nepsilon = 0.5\ndepth = 2\n"
                          "step = 0.01\nt_end = 2\ntol = 1e-06\nformat = csv")
    cfg = parse_config_text(text)
    assert cfg.dim == 1
    assert cfg.expressions == ("x1^2",)
    assert cfg.domain[0].lo == -1.0 and cfg.domain[0].hi == 1.0
    o = cfg.options
    assert (o.slack, o.epsilon, o.depth, o.step, o.t_end, o.tol, o.fmt) == \
        (0.0, 0.5, 2, 0.01, 2.0, 1e-6, "csv")


def test_config_round_trip_is_identity():
    cfg = parse_config_text(COUPLED)
    printed = format_config(cfg)
    again = parse_config_text(printed)
    assert again.dim == cfg.dim
    assert again.expressions == cfg.expressions
    assert again.domain == cfg.domain
    assert again.options == cfg.options
    assert format_config(again) == printed


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


def test_reach_writes_output_file(capsys, cfg_file, tmp_path):
    dest = tmp_path / "tube.csv"
    rc, out, _ = _run(capsys, ["reach", cfg_file(NEGATION), "--t-end", "0.2",
                               "--step", "0.1", "--output", str(dest)])
    assert rc == 0 and out == ""
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,lower_1,upper_1" and len(lines) == 4


def test_reach_rejects_bad_corners(capsys, cfg_file):
    rc, _, err = _run(capsys, ["reach", cfg_file(NEGATION), "--x0-lo", "1",
                               "--x0-hi", "0"])
    assert rc == 1 and "x0-lo <= x0-hi" in err
    rc, _, err = _run(capsys, ["reach", cfg_file(NEGATION), "--x0-lo", "0,1"])
    assert rc == 1 and "expected 1 entries" in err


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
    text = """\
[system]
dim = 2
f1 = "x1/x2"
f2 = "x2"

[domain]
x1 = [-1, 1]
x2 = [-1, 1]
"""
    rc, _, err = _run(capsys, ["decompose", cfg_file(text)])
    assert rc == 2 and "f1/x1" in err
    rc, _, err = _run(capsys, ["bound", cfg_file(text)])
    assert rc == 2


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


def test_tv_split_is_consistent_with_printed_variation(capsys):
    # the partition misses this narrow spike, so the printed TV is wrong (the
    # variation is 2); the split must still be read from the same partition
    rc, out, _ = _run(capsys, ["tv", "--expr", "max(0, 1 - 1000*abs(x1 - 0.3001))",
                               "--a", "-1", "--b", "1", "--grid", "11"])
    assert rc == 0
    lines = out.splitlines()
    tv = float(lines[0].removeprefix("TV = "))
    assert lines[2] == "x f+ f-"
    plus = [float(line.split()[1]) for line in lines[3:]]
    assert len(plus) == 11
    assert all(a <= b for a, b in zip(plus, plus[1:]))
    assert plus[-1] == tv

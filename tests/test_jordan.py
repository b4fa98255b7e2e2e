"""Total variation, monotone splits, and the variation-based bracket."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixedmono
from mixedmono import (DimensionError, Interval, NonConvergenceError, ScalarFunction,
                       UnboundedDerivativeError, jordan_split, total_variation,
                       unbounded_decomposition, unbounded_split)
from mixedmono.jordan import MIN_CELLS, linspace

TWO_PI = 2.0 * math.pi


def _on(text, lo, hi):
    return ScalarFunction.from_string(text, lo, hi)


# -- scalar function wrapper ----------------------------------------------------

def test_tv_compiles_f_and_f_prime_once_and_builds_each_interval_program_once(monkeypatch):
    # every certified cell reads f, f' and the enclosures of f' and f'' from
    # the one VectorField of each order
    import builtins
    from mixedmono import expr, jacbounds

    sources, runs = [], []

    def counting(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    def lowering(trees, build=jacbounds.lower_intervals):
        run, k = build(trees), len(runs)
        runs.append(0)

        def counted(lo, hi):
            runs[k] += 1
            return run(lo, hi)

        return counted

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    monkeypatch.setattr(jacbounds, "lower_intervals", lowering)
    f = _on("abs(x1*sin(x1))", -5.92178, 6.32897)
    split = jordan_split(f)
    assert split.fplus(6.32897) == pytest.approx(24.7325, abs=1e-4)
    assert len(sources) == 2  # f and f'
    assert len(runs) == 2  # the enclosures of f' and of f''
    assert runs[0] > MIN_CELLS and runs[1] > 1  # 44 and 12 cells


def test_scalar_function_validation():
    with pytest.raises(DimensionError):
        _on("x1 + x2", 0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarFunction(_on("x1", 0.0, 1.0).expr, Interval(0.0, math.inf))
    f = _on("sin(x1)", 0.0, TWO_PI)
    assert f.domain == Interval(0.0, TWO_PI)
    assert ScalarFunction.on_reals("x1*sin(x1)").domain is None


def test_scalar_function_evaluation_and_derivative():
    f = _on("x1^2", -1.0, 1.0)
    assert f(0.5) == pytest.approx(0.25)
    assert f.derivative(3.0) == pytest.approx(6.0)
    assert _on("min(x1, 0.25)", 0.0, 1.0)(0.7) == pytest.approx(0.25)


# -- total variation: values ----------------------------------------------------

def test_variation_of_sine_over_full_period():
    f = _on("sin(x1)", 0.0, TWO_PI)
    assert total_variation(f, Interval(0.0, TWO_PI)) == pytest.approx(4.0, abs=1e-6)


def test_variation_of_square():
    f = _on("x1^2", -1.0, 1.0)
    assert total_variation(f, Interval(-1.0, 1.0)) == pytest.approx(2.0, abs=1e-9)


def test_variation_of_constant_is_zero():
    f = _on("7", 2.0, 5.0)
    assert total_variation(f, Interval(2.0, 5.0)) == 0.0


def test_variation_of_monotone_pieces():
    f = _on("x1", 0.0, 1.0)
    assert total_variation(f, Interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
    g = _on("sin(x1)", 0.0, TWO_PI)
    assert total_variation(g, Interval(0.0, 1.5 * math.pi)) == pytest.approx(3.0, abs=1e-8)


def test_variation_of_zero_width_interval():
    f = _on("sin(x1)", 0.0, TWO_PI)
    assert total_variation(f, Interval(1.0, 1.0)) == 0.0


def test_variation_on_whole_line_function():
    f = ScalarFunction.on_reals("x1^2")
    assert total_variation(f, Interval(-3.0, 5.0)) == pytest.approx(34.0, abs=1e-8)


def test_variation_with_kinks_on_grid_points():
    # kinks at dyadic points make every partition sum exact
    f = _on("abs(x1)", -1.0, 1.0)
    assert total_variation(f, Interval(-1.0, 1.0)) == 2.0
    g = _on("min(x1, 0.25)", 0.0, 1.0)
    assert total_variation(g, Interval(0.0, 1.0)) == 0.25
    h = _on("max(x1, 0.5)", 0.0, 1.0)
    assert total_variation(h, Interval(0.0, 1.0)) == 0.5


def test_variation_with_off_grid_kink():
    # the kink never lands on a partition point, so the sums only converge
    f = _on("-abs(x1 - 0.3)", 0.0, 1.0)
    for tol in (1e-3, 1e-8):
        tv = total_variation(f, Interval(0.0, 1.0), tol=tol)
        assert abs(tv - 1.0) < tol


def test_variation_with_extremum_in_an_end_cell():
    # the kink at 2*pi lies 0.046 from b, inside the last cell of every
    # partition up to 256 cells, where the slope keeps its sign
    f = _on("abs(x1*sin(x1))", -5.92178, 6.32897)
    assert format(total_variation(f, f.domain, tol=1e-8), ".9g") == "24.7324943"


def test_variation_with_equal_values_around_an_extremum():
    # on 16, 64, 256, ... cells the minimum at 1/3 sits in a cell whose two
    # ends have equal values; TV = (5/2 - 1/6) + (3/2 - 1/6) = 11/3
    f = _on("max(abs(x1 - 0.5), 0.5*x1)", -2.0, 2.0)
    tv = total_variation(f, f.domain, tol=1e-8)
    assert format(tv, ".9g") == "3.66666667"
    assert tv == pytest.approx(11.0 / 3.0, abs=1e-8)


def test_variation_with_kink_against_quadrature():
    # |x| + sin(5x) mixes a jump of f' with smooth oscillation; the oracle is
    # direct quadrature of |f'| on each side of the jump
    f = _on("abs(x1) + sin(5*x1)", -2.0, 2.0)
    from scipy.integrate import quad
    up = quad(lambda t: abs(1.0 + 5.0 * math.cos(5.0 * t)), 0.0, 2.0, limit=400)[0]
    down = quad(lambda t: abs(-1.0 + 5.0 * math.cos(5.0 * t)), -2.0, 0.0, limit=400)[0]
    got = total_variation(f, Interval(-2.0, 2.0), tol=1e-8)
    assert got == pytest.approx(up + down, abs=1e-6)


def test_variation_of_a_fast_oscillation():
    # f' changes sign 1400 times, so coarse partition sums alias the
    # oscillation
    f = _on("sin(700*x1)", 0.0, TWO_PI)
    assert total_variation(f, f.domain) == pytest.approx(2800.0, abs=1e-6)


def test_variation_of_a_narrow_smooth_bump():
    # every dyadic grid misses the bump (width 1e-3) until thousands of cells;
    # the enclosure of f' over the cell that holds it is two-signed
    f = _on("exp(-1e6*(x1-0.3001)^2)", -1.0, 1.0)
    assert total_variation(f, f.domain) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("text", ["max(0, 1 - 1000*abs(x1 - 0.3001))",
                                  "exp(-1e9*(x1-0.3001)^2)", "exp(-1e10*(x1-0.3001)^2)",
                                  "exp(-1e11*(x1-0.3001)^2)"])
def test_variation_of_features_that_no_grid_point_sees(text):
    # f is 0 at every point of the start grid and f' is 0 or underflows to 0
    # there, so sums over grids, however fine, read 0; the variation is 2
    f = _on(text, -1.0, 1.0)
    assert total_variation(f, f.domain) == pytest.approx(2.0, abs=1e-8)


def test_smooth_variation_imports_no_scipy():
    # every subcommand on every config, in a fresh interpreter, loads
    # neither numpy nor scipy
    src = Path(mixedmono.__file__).resolve().parents[1]
    configs = sorted(str(p) for p in (src.parent / "configs").glob("*.ini"))
    assert configs
    argvs = [["tv", "--expr", "x1*sin(x1)", "--a", "-3", "--b", "4"]]
    for path in configs:
        argvs += [["decompose", path], ["bound", path, "--depth", "3", "--check"],
                  ["bound", path, "--format", "csv", "--check"], ["reach", path], ["tv", path]]
    code = (f"import contextlib, io, sys\nsys.path.insert(0, {str(src)!r})\n"
            "from mixedmono.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "assert codes[0] == 0\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.splitlines()[-1] == "False False"


def test_linspace_matches_numpy(rng):
    # the partition grids and the printed tv grid are numpy's points bit for bit
    cases = [(0.0, 1.0, 10), (-1.0, 1.0, 1024), (-3.7, 2.2, 7), (1.0, 1.0, 4), (-0.0, 0.0, 3),
             (5e-324, 1e-323, 8), (-5e-324, 5e-324, 1000)]  # step underflows in the last two
    for _ in range(200):
        a, b = sorted(rng.uniform(-1e3, 1e3, size=2) * 10.0 ** rng.integers(-300, 300))
        cases.append((float(a), float(b), int(rng.integers(1, 2000))))
    for a, b, cells in cases:
        assert list(map(repr, linspace(a, b, cells))) == \
            list(map(repr, np.linspace(a, b, cells + 1).tolist())), (a, b, cells)


def test_linspace_spaces_points_where_the_step_overflows():
    # b - a overflows, and numpy's points are NaN there
    xs = linspace(-1e308, 1e308, 4)
    assert xs == [-1e308, -5e307, 0.0, 5e307, 1e308]
    xs = linspace(-1.7e308, 1.79e308, 32)
    assert xs[0] == -1.7e308 and xs[-1] == 1.79e308
    assert all(math.isfinite(x) for x in xs) and xs == sorted(set(xs))


def test_variation_input_validation():
    f = _on("sin(x1)", 0.0, TWO_PI)
    with pytest.raises(ValueError):
        total_variation(f, Interval(0.0, 1.0), tol=0.0)
    with pytest.raises(ValueError):
        total_variation(f, Interval(0.0, math.inf))
    with pytest.raises(ValueError):
        total_variation(f, Interval(0.0, 7.0))


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_tolerance_must_be_positive_and_finite(tol):
    # tol = inf gave a variation of 43.31 here, where it is 2800, and the
    # whole-line split with tol = 0 ran to the cell cap
    f = _on("sin(700*x1)", 0.0, TWO_PI)
    g = ScalarFunction.on_reals("x1*sin(x1)")
    calls = [lambda: total_variation(f, f.domain, tol), lambda: jordan_split(f, tol),
             lambda: jordan_split(f, tol).g(0.0, 1.0), lambda: unbounded_split(g, tol),
             lambda: unbounded_decomposition(g, 1.0, 1.0, tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("max_cells", [-5, 0, 8, 31])
def test_cell_cap_must_reach_the_third_sum(max_cells):
    # the partition starts from 32 cells, so a smaller cap cannot hold it
    f = _on("x1", 0.0, 1.0)
    for call in (lambda: total_variation(f, f.domain, 1e-8, max_cells),
                 lambda: jordan_split(f, 1e-8, max_cells)):
        with pytest.raises(ValueError, match=f"max_cells must be at least {MIN_CELLS}"):
            call()
    assert total_variation(f, f.domain, 1e-8, MIN_CELLS) == 1.0


def test_variation_partition_cap_raises():
    # hundreds of oscillations: no small cell budget can resolve them all
    f = _on("abs(sin(1/x1))", 1e-3, 1.0)
    with pytest.raises(NonConvergenceError):
        total_variation(f, Interval(1e-3, 1.0), tol=1e-12, max_cells=128)


# -- total variation: additivity ------------------------------------------------

def test_variation_additivity_smooth(rng):
    f = _on("sin(x1)", 0.0, TWO_PI)
    tol = 1e-8
    whole = total_variation(f, Interval(0.0, TWO_PI), tol)
    for _ in range(20):
        b = float(rng.uniform(0.1, TWO_PI - 0.1))
        left = total_variation(f, Interval(0.0, b), tol)
        right = total_variation(f, Interval(b, TWO_PI), tol)
        assert abs(whole - left - right) <= 3.0 * tol


def test_variation_additivity_with_kink(rng):
    f = _on("abs(x1)", -1.0, 1.0)
    tol = 1e-8
    whole = total_variation(f, Interval(-1.0, 1.0), tol)
    for _ in range(5):
        b = float(rng.uniform(-0.8, 0.8))
        left = total_variation(f, Interval(-1.0, b), tol)
        right = total_variation(f, Interval(b, 1.0), tol)
        assert abs(whole - left - right) <= 3.0 * tol


# -- monotone splits -------------------------------------------------------------

def test_split_of_increasing_function():
    split = jordan_split(_on("x1", 0.0, 1.0))
    for x in np.linspace(0.0, 1.0, 11):
        assert split.fplus(x) == pytest.approx(x, abs=1e-9)
        assert split.fminus(x) == pytest.approx(0.0, abs=1e-9)


def test_split_of_decreasing_function():
    split = jordan_split(_on("-x1", 0.0, 1.0))
    for x in np.linspace(0.0, 1.0, 11):
        assert split.fplus(x) == pytest.approx(x, abs=1e-9)
        assert split.fminus(x) == pytest.approx(-2.0 * x, abs=1e-9)


def test_split_of_square():
    split = jordan_split(_on("x1^2", -1.0, 1.0))
    assert split.fplus(-1.0) == 0.0
    assert split.fplus(0.0) == pytest.approx(1.0, abs=1e-9)
    assert split.fminus(0.0) == pytest.approx(-1.0, abs=1e-9)


def test_split_halves_sum_back():
    f = _on("sin(x1)", 0.0, TWO_PI)
    split = jordan_split(f)
    for x in np.linspace(0.0, TWO_PI, 17):
        assert split.fplus(x) + split.fminus(x) == pytest.approx(f(x), abs=1e-12)


def test_split_monotonicity_on_grid():
    tol = 1e-8
    split = jordan_split(_on("sin(x1)", 0.0, TWO_PI), tol)
    assert split.tol == tol
    xs = np.linspace(0.0, TWO_PI, 1001)
    plus = np.array([split.fplus(x) for x in xs])
    minus = np.array([split.fminus(x) for x in xs])
    assert np.all(np.diff(plus) >= -tol)
    assert np.all(np.diff(minus) <= tol)


def test_split_monotonicity_with_kink():
    tol = 1e-8
    split = jordan_split(_on("abs(x1)", -1.0, 1.0), tol)
    xs = np.linspace(-1.0, 1.0, 101)
    plus = np.array([split.fplus(x) for x in xs])
    minus = np.array([split.fminus(x) for x in xs])
    assert np.all(np.diff(plus) >= -tol)
    assert np.all(np.diff(minus) <= tol)


def test_split_reads_the_variation_partition():
    # f+ inside the domain is the variation of the partition refined by x,
    # as accurate as a partition built over [lo, x] itself
    f = _on("abs(x1*sin(x1))", -5.0, 6.0)
    split = jordan_split(f, 1e-8, max_cells=4096)
    assert split.fplus(1.0) == pytest.approx(total_variation(f, Interval(-5.0, 1.0)), abs=1e-7)
    # the partition cap reaches the split as well
    g = _on("abs(sin(1/x1))", 1e-3, 1.0)
    with pytest.raises(NonConvergenceError):
        jordan_split(g, tol=1e-12, max_cells=128)


def test_split_requires_finite_domain():
    with pytest.raises(ValueError):
        jordan_split(ScalarFunction.on_reals("x1"))


def test_split_rejects_points_outside_domain():
    split = jordan_split(_on("x1", 0.0, 1.0))
    with pytest.raises(ValueError):
        split.fplus(2.0)


# -- two-argument bracket from the variation structure ---------------------------

def test_bracket_matches_linear_closed_form(rng):
    g = jordan_split(_on("-x1", 0.0, 1.0)).g
    assert g(0.3, 0.7) == pytest.approx(0.3 - 1.4, abs=1e-9)
    assert g(0.0, 1.0) == pytest.approx(-2.0, abs=1e-9)
    assert g(1.0, 0.0) == pytest.approx(1.0, abs=1e-9)
    for _ in range(25):
        x, y = rng.uniform(0.0, 1.0, size=2)
        assert g(x, y) == pytest.approx(x - 2.0 * y, abs=1e-9)


def test_bracket_corners_for_square():
    g = jordan_split(_on("x1^2", -1.0, 1.0)).g
    assert g(1.0, -1.0) == pytest.approx(3.0, abs=1e-9)
    assert g(-1.0, 1.0) == pytest.approx(-1.0, abs=1e-9)
    assert g(0.5, 0.5) == pytest.approx(0.25, abs=1e-9)


def test_bracket_diagonal_identity(rng):
    tol = 1e-8
    f = _on("sin(x1)", 0.0, TWO_PI)
    g = jordan_split(f, tol).g
    for x in rng.uniform(0.0, TWO_PI, size=20):
        assert g(x, x) == pytest.approx(f(x), abs=10 * tol)


def test_bracket_axioms_on_sampled_pairs(rng):
    tol = 1e-8
    g = jordan_split(_on("sin(x1)", 0.0, TWO_PI), tol).g
    for _ in range(100):
        a, b = np.sort(rng.uniform(0.0, TWO_PI, size=2))
        y = float(rng.uniform(0.0, TWO_PI))
        assert g(b, y) >= g(a, y) - 10 * tol
        assert g(y, b) <= g(y, a) + 10 * tol


def test_bracket_endpoints_offset_by_total_variation():
    # over the whole domain the bracket is the opposite endpoint's value
    # shifted by the full variation: g(hi, lo) = f(lo) + TV, g(lo, hi) = f(hi) - TV
    cases = [
        (_on("-x1", 0.0, 1.0), 1e-8),
        (_on("x1^2", -1.0, 1.0), 1e-8),
        (_on("sin(x1)", 0.0, TWO_PI), 1e-8),
        (_on("abs(x1)", -1.0, 1.0), 1e-8),
    ]
    for f, tol in cases:
        lo, hi = f.domain.lo, f.domain.hi
        tv = total_variation(f, f.domain, tol)
        split = jordan_split(f, tol)
        upper, lower = split.g(hi, lo), split.g(lo, hi)
        assert upper == pytest.approx(f(lo) + tv, abs=10 * tol)
        assert lower == pytest.approx(f(hi) - tv, abs=10 * tol)
        samples = [f(x) for x in np.linspace(lo, hi, 200)]
        assert lower <= min(samples) + 10 * tol
        assert max(samples) <= upper + 10 * tol


def test_bracket_split_and_integral_forms_agree(rng):
    tol = 1e-8
    for f, lo, hi in [(_on("sin(x1)", 0.0, TWO_PI), 0.0, TWO_PI),
                      (_on("x1^2", -1.0, 1.0), -1.0, 1.0)]:
        split = jordan_split(f, tol)
        for _ in range(25):
            x, y = rng.uniform(lo, hi, size=2)
            assert split.fplus(x) + split.fminus(y) == pytest.approx(split.g(x, y), abs=10 * tol)


def test_bracket_with_kink_corner_values():
    tol = 1e-8
    g = jordan_split(_on("abs(x1)", -1.0, 1.0), tol).g
    assert g(1.0, -1.0) == pytest.approx(3.0, abs=10 * tol)
    assert g(-1.0, 1.0) == pytest.approx(-1.0, abs=10 * tol)
    assert g(0.5, 0.5) == pytest.approx(0.5, abs=10 * tol)


def test_bracket_input_validation():
    with pytest.raises(ValueError):
        jordan_split(ScalarFunction.on_reals("x1")).g(0.0, 0.0)
    f = _on("x1", 0.0, 1.0)
    with pytest.raises(ValueError):
        jordan_split(f).g(0.5, 2.0)


# -- whole-line construction ------------------------------------------------------

def test_whole_line_split_basics():
    f = ScalarFunction.on_reals("x1*sin(x1)")
    s = unbounded_split(f)
    assert s.f_base == 0.0
    assert s.g1(0.0) == 0.0
    assert s.g2(0.0) == 0.0
    assert s.g1(math.pi / 2.0) == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_whole_line_diagonal_identity():
    tol = 1e-8
    f = ScalarFunction.on_reals("x1*sin(x1)")
    unbounded_decomposition(f, -10.0, 10.0, tol)  # widest window first
    for x in np.linspace(-10.0, 10.0, 41):
        got = unbounded_decomposition(f, x, x, tol)
        assert got == pytest.approx(f(x), abs=10 * tol)
    assert unbounded_decomposition(f, 0.0, 0.0, tol) == pytest.approx(0.0, abs=1e-12)


def test_whole_line_junction_signs():
    tol = 1e-8
    f = ScalarFunction.on_reals("x1*sin(x1)")
    s = unbounded_split(f, tol)
    unbounded_decomposition(f, -10.0, 10.0, tol)
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert s.g1(-t) <= 10 * tol
        assert s.g1(t) >= -10 * tol
        assert s.g2(-t) >= -10 * tol
        assert s.g2(t) <= 10 * tol


def test_whole_line_monotonicity():
    tol = 1e-8
    f = ScalarFunction.on_reals("x1*sin(x1)")
    s = unbounded_split(f, tol)
    xs = np.linspace(-10.0, 10.0, 201)
    g1 = np.array([s.g1(x) for x in xs])
    g2 = np.array([s.g2(x) for x in xs])
    assert np.all(np.diff(g1) >= -10 * tol)
    assert np.all(np.diff(g2) <= 10 * tol)


def test_whole_line_axioms_on_sampled_pairs(rng):
    tol = 1e-8
    f = ScalarFunction.on_reals("x1*sin(x1)")
    unbounded_decomposition(f, -10.0, 10.0, tol)
    for _ in range(100):
        a, b = np.sort(rng.uniform(-10.0, 10.0, size=2))
        y = float(rng.uniform(-10.0, 10.0))
        assert unbounded_decomposition(f, b, y, tol) >= unbounded_decomposition(f, a, y, tol) - 10 * tol
        assert unbounded_decomposition(f, y, b, tol) <= unbounded_decomposition(f, y, a, tol) + 10 * tol


def test_whole_line_base_value_restored():
    f = ScalarFunction.on_reals("x1*sin(x1) + 3")
    s = unbounded_split(f)
    assert s.f_base == pytest.approx(3.0)
    got = unbounded_decomposition(f, 2.0, 2.0)
    assert got == pytest.approx(3.0 + 2.0 * math.sin(2.0), abs=1e-7)


def test_whole_line_window_stops_growing_at_the_largest_float():
    # the window [0, 1e308] doubled to [0, inf], whose grid points are NaN
    f = ScalarFunction.on_reals("x1")
    assert unbounded_decomposition(f, 1e308, 1e308) == 1e308
    assert unbounded_decomposition(f, 1.5e308, 1.5e308) == 1.5e308
    fresh = ScalarFunction.on_reals("x1")
    assert unbounded_decomposition(fresh, 1.5e308, 1.5e308) == 1.5e308


def test_whole_line_split_refuses_a_value_past_the_largest_float():
    # f(-1.5e308) is finite, but g1 = (f(x) - f(0)) - TV over [x, 0] = -3e308
    # overflowed, and -inf was returned where the diagonal holds f
    f = ScalarFunction.on_reals("x1")
    with pytest.raises(UnboundedDerivativeError, match=r"^g1\(-1.5e\+308\) overflows"):
        unbounded_decomposition(f, -1.5e308, -1.5e308)
    assert unbounded_decomposition(f, -1e307, -1e307) == pytest.approx(-1e307, rel=1e-12)


def test_whole_line_split_does_not_depend_on_the_order_of_reads():
    # one window [-1e308, 1e308] for both sides held the variation 2e308, so
    # after g2(-1e308) the read g2(1e308) overflowed, though it is 0 alone
    s = unbounded_split(ScalarFunction.on_reals("x1"))
    assert s.g2(-1e308) == 1e308
    assert s.g2(1e308) == 0.0
    assert s.g1(1e308) == 1e308
    assert unbounded_split(ScalarFunction.on_reals("x1")).g2(1e308) == 0.0


def test_jordan_split_refuses_a_value_past_the_largest_float():
    # the variation 2e308 of x1 over [-1e308, 1e308] was returned as inf; over
    # [0, 1.5e308] the variation of -x1 is finite, but f- = f - f+ is not
    with pytest.raises(UnboundedDerivativeError, match="total variation over"):
        total_variation(_on("x1", -1e308, 1e308), Interval(-1e308, 1e308))
    split = jordan_split(_on("0 - x1", 0.0, 1.5e308))
    assert split.fplus(1.5e308) == 1.5e308
    with pytest.raises(UnboundedDerivativeError, match=r"^f-\(1.5e\+308\) overflows"):
        split.fminus(1.5e308)
    # over [-1.5e308, 0], f+(0) and f-(-1.5e308) are 1.5e308 each, and g their sum
    split = jordan_split(_on("0 - x1", -1.5e308, 0.0))
    with pytest.raises(UnboundedDerivativeError, match=r"^g\(0, -1.5e\+308\) overflows"):
        split.g(0.0, -1.5e308)


def test_whole_line_input_validation():
    with pytest.raises(ValueError):
        unbounded_split(_on("x1", 0.0, 1.0))
    s = unbounded_split(ScalarFunction.on_reals("x1"))
    with pytest.raises(ValueError):
        s.g1(math.inf)
    with pytest.raises(ValueError):
        unbounded_decomposition(_on("x1", 0.0, 1.0), 0.0, 0.0)

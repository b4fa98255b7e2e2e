"""Expression parsing, printing, evaluation, differentiation, interval extension."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mixedmono import (Binary, BoxDomain, Const, DimensionError, EvalError, Interval,
                       ParseError, Power, Unary, Var, differentiate, eval_interval,
                       evaluate, parse, to_string)
from mixedmono import expr

PI = math.pi


def _top_level_names(tree: ast.Module):
    """Each name a module's own statements bind, once per binding."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_no_module_binds_a_top_level_name_twice():
    # a second binding shadows the first for every reader after it: expr's
    # Expr builder _pow once shadowed its float helper of the same name
    twice = []
    for path in sorted(Path(expr.__file__).parent.glob("*.py")):
        names = list(_top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
        twice += [f"{path.stem}.{name}" for name in sorted(set(names)) if names.count(name) > 1]
    assert twice == []


# -- parsing ---------------------------------------------------------------------

def test_parse_examples():
    assert parse("x1 + 2*x2", 2) == Binary("add", Var(1), Binary("mul", Const(2.0), Var(2)))
    assert parse("-x1", 1) == Unary("neg", Var(1))
    assert parse("sin(x1^2)", 1) == Unary("sin", Power(Var(1), 2))
    assert parse("min(x1, x2)", 2) == Binary("min", Var(1), Var(2))
    assert parse("pi", 0) == Const(math.pi)


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse("-x1^2", 1) == Unary("neg", Power(Var(1), 2))
    assert parse("-x1*x2", 2) == Binary("mul", Unary("neg", Var(1)), Var(2))
    assert parse("2*x1^3", 1) == Binary("mul", Const(2.0), Power(Var(1), 3))
    assert parse("x1 - x2 - x1", 2) == Binary(
        "sub", Binary("sub", Var(1), Var(2)), Var(1))
    assert parse("x1 + x2*x1", 2) == Binary("add", Var(1), Binary("mul", Var(2), Var(1)))
    assert parse("(x1 + x2)*x1", 2) == Binary("mul", Binary("add", Var(1), Var(2)), Var(1))


def test_number_literals():
    assert parse("1.5e-3", 0) == Const(1.5e-3)
    assert parse(".5", 0) == Const(0.5)
    assert parse("2E+4", 0) == Const(2e4)
    assert parse("-2", 0) == Const(-2.0)  # literal minus folds
    assert parse("-(2)", 0) == Unary("neg", Const(2.0))  # parenthesized does not


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e1:
        parse("x1 +", 1)
    assert e1.value.offset == 4
    with pytest.raises(ParseError) as e2:
        parse(")", 1)
    assert e2.value.offset == 0
    with pytest.raises(ParseError):
        parse("sin(x1, x1)", 1)
    with pytest.raises(ParseError):
        parse("min(x1)", 1)
    with pytest.raises(ParseError):
        parse("foo(x1)", 1)
    with pytest.raises(ParseError):
        parse("x1 ^ x1", 1)  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse("x1^2.5", 1)
    with pytest.raises(ParseError):
        parse("1 @ 2", 0)


def test_variable_range_checks():
    with pytest.raises(DimensionError):
        parse("x3", 2)
    with pytest.raises(DimensionError):
        parse("x0", 2)
    parse("x2", 2)


# -- printing / round trip ----------------------------------------------------------

def test_print_examples():
    assert to_string(parse("x1^2 + 2*x1 - 2*x2", 2)) == "x1^2 + 2*x1 - 2*x2"
    assert to_string(parse("-x1", 1)) == "-x1"
    assert to_string(parse("x1*sin(x1)", 1)) == "x1*sin(x1)"


def _random_expr(rng, n, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5 and n > 0:
            return Var(int(rng.integers(1, n + 1)))
        val = round(float(rng.uniform(-4, 4)), 3)
        return Const(val)
    kind = rng.choice(["add", "sub", "mul", "div", "min", "max",
                       "neg", "sin", "cos", "exp", "abs", "sign", "step", "pow"])
    if kind == "pow":
        return Power(_random_expr(rng, n, depth - 1), int(rng.integers(-3, 5)))
    if kind in ("neg", "sin", "cos", "exp", "abs", "sign", "step"):
        return Unary(kind, _random_expr(rng, n, depth - 1))
    return Binary(kind, _random_expr(rng, n, depth - 1), _random_expr(rng, n, depth - 1))


def test_round_trip_random(rng):
    for _ in range(400):
        e = _random_expr(rng, 3, 4)
        text = to_string(e)
        assert parse(text, 3) == e, text


# -- evaluation ----------------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(parse("x1*sin(x1)", 1), [PI / 2]) == pytest.approx(PI / 2)
    assert evaluate(parse("x1^2", 1), [-3.0]) == 9.0
    assert evaluate(parse("min(x1, x2)", 2), [2.0, -1.0]) == -1.0
    assert evaluate(parse("abs(x1)", 1), [-2.5]) == 2.5
    assert evaluate(parse("pi", 0), []) == math.pi
    assert evaluate(parse("x1^-2", 1), [2.0]) == 0.25


def test_evaluate_errors():
    with pytest.raises(EvalError):
        evaluate(parse("x1/x2", 2), [1.0, 0.0])
    with pytest.raises(EvalError):
        evaluate(parse("exp(x1)", 1), [1000.0])
    with pytest.raises(EvalError):
        evaluate(parse("x1^-1", 1), [0.0])
    with pytest.raises(DimensionError):
        evaluate(parse("x2", 2), [1.0])
    with pytest.raises(EvalError):
        evaluate(parse("x1", 1), [math.inf])


def test_compiled_tree_computes_a_repeated_subtree_once(monkeypatch):
    calls = []
    real_sin = expr._HELPERS["_sin"]

    def counting_sin(u):
        calls.append(u)
        return real_sin(u)

    monkeypatch.setitem(expr._HELPERS, "_sin", counting_sin)
    f = expr.compile_expr(parse("sin(x1)*sin(x1)", 1))
    assert f([0.5]) == math.sin(0.5) * math.sin(0.5)
    assert calls == [0.5]


@pytest.mark.parametrize("text", [
    "sign(x1*1e200*1e200 - x1*1e200*1e200)", "step(x1*1e200*1e200)", "jump(x1*1e200*1e200)",
    "min(1, x1*1e200*1e200 - x1*1e200*1e200)", "max(-x1*1e200*1e200, 1)",
    "1/(x1*1e200*1e200)", "(x1*1e200*1e200)^-1", "(x1*1e200*1e200)^0",
    "exp(-x1*1e200*1e200)"])
def test_compiled_tree_raises_where_a_later_node_hides_a_non_finite_value(text):
    # x1*1e200*1e200 overflows to inf at x1 = 1; each outer node used to map
    # it, or inf - inf, to a finite value, which the final check let through
    f = expr.compile_expr(parse(text, 1))
    with pytest.raises(EvalError, match="non-finite value"):
        f([1.0])


# -- differentiation --------------------------------------------------------------------

def test_differentiate_examples():
    assert to_string(differentiate(parse("x1^2", 1), 1)) == "2*x1"
    assert differentiate(parse("x1", 1), 2) == Const(0.0)
    assert to_string(differentiate(parse("x1*sin(x1)", 1), 1)) == "sin(x1) + x1*cos(x1)"
    assert differentiate(parse("pi", 0), 1) == Const(0.0)


def test_kink_derivative_conventions():
    dabs = differentiate(parse("abs(x1)", 1), 1)
    assert evaluate(dabs, [2.0]) == 1.0
    assert evaluate(dabs, [-2.0]) == -1.0
    assert evaluate(dabs, [0.0]) == 0.0  # sign(0) = 0

    dmin = differentiate(parse("min(x1, x2)", 2), 1)
    assert evaluate(dmin, [0.0, 1.0]) == 1.0   # x1 strictly smaller
    assert evaluate(dmin, [1.0, 0.0]) == 0.0   # x1 strictly larger
    assert evaluate(dmin, [1.0, 1.0]) == 0.5   # tie convention

    dmax = differentiate(parse("max(x1, x2)", 2), 1)
    assert evaluate(dmax, [0.0, 1.0]) == 0.0
    assert evaluate(dmax, [1.0, 0.0]) == 1.0
    assert evaluate(dmax, [1.0, 1.0]) == 0.5


def test_derivative_roundtrips_through_parser():
    d = differentiate(parse("abs(x1) + min(x1, x2)", 2), 1)
    assert parse(to_string(d), 2) == d


def test_jump_derivatives_of_sign_and_step():
    # d step(u) = d sign(u) = jump(u)*u': 0 at every point, [0, inf) over a
    # box where u can vanish; d jump(u) is enclosed by the whole line there
    crossing, clear = BoxDomain.from_bounds([(-1, 1)]), BoxDomain.from_bounds([(1, 2)])
    for text in ("step(x1)", "sign(x1)"):
        d = differentiate(parse(text, 1), 1)
        assert d == Unary("jump", Var(1))
        assert evaluate(d, [0.0]) == 0.0 and evaluate(d, [0.5]) == 0.0
        assert eval_interval(d, crossing) == Interval(0.0, math.inf)
        assert eval_interval(d, clear) == Interval(0.0, 0.0)
    down = differentiate(parse("step(-x1)", 1), 1)
    assert eval_interval(down, crossing) == Interval(-math.inf, 0.0)
    dd = differentiate(differentiate(parse("step(x1^2 - 1)", 1), 1), 1)
    assert parse(to_string(dd), 1) == dd
    assert evaluate(dd, [1.0]) == 0.0
    assert eval_interval(dd, crossing) == Interval(-math.inf, math.inf)
    assert eval_interval(dd, BoxDomain.from_bounds([(2, 3)])) == Interval(0.0, 0.0)


@pytest.mark.parametrize("text", ["1/(x1 - 0.3) + 10*x1", "(x1 - 0.3)^-2", "x2/(x1 - 0.3)",
                                  "(x1 - 0.3)^-1*x2"])
def test_derivative_of_a_pole_is_the_whole_line_where_the_divisor_can_vanish(text):
    # the half-line enclosing d(1/v) holds on each side of the pole but not
    # across it: 1/(x1 - 0.3) + 10*x1 over [-1, 1] was bracketed without its pole
    e = parse(text, 2)
    crossing = BoxDomain.from_bounds([(-1, 1), (1, 2)])
    clear = BoxDomain.from_bounds([(0.5, 1), (1, 2)])
    for j in (1, 2):
        d = differentiate(e, j)
        assert parse(to_string(d), 2) == d
        assert eval_interval(d, crossing) == Interval(-math.inf, math.inf)
        iv = eval_interval(d, clear)
        assert math.isfinite(iv.lo) and math.isfinite(iv.hi)
    d, h = differentiate(e, 1), 1e-6
    for x1 in (0.5, 0.75, 1.0):
        fd = (evaluate(e, [x1 + h, 1.5]) - evaluate(e, [x1 - h, 1.5])) / (2 * h)
        assert evaluate(d, [x1, 1.5]) == pytest.approx(fd, rel=1e-5)


def _random_smooth(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6 and n > 0:
            return Var(int(rng.integers(1, n + 1)))
        return Const(round(float(rng.uniform(-2, 2)), 3))
    kind = rng.choice(["add", "sub", "mul", "neg", "sin", "cos", "exp", "pow"])
    if kind == "pow":
        return Power(_random_smooth(rng, n, depth - 1), int(rng.integers(0, 4)))
    if kind in ("neg", "sin", "cos", "exp"):
        return Unary(kind, _random_smooth(rng, n, depth - 1))
    return Binary(kind, _random_smooth(rng, n, depth - 1), _random_smooth(rng, n, depth - 1))


def test_derivative_matches_central_differences(rng):
    checked = 0
    while checked < 100:
        e = _random_smooth(rng, 2, 3)
        j = int(rng.integers(1, 3))
        d = differentiate(e, j)
        p = rng.uniform(-1.5, 1.5, 2)
        h = 1e-6
        try:
            val = evaluate(e, p)
            if abs(val) > 100:
                continue
            sym = evaluate(d, p)
            pp, pm = p.copy(), p.copy()
            pp[j - 1] += h
            pm[j - 1] -= h
            fd = (evaluate(e, pp) - evaluate(e, pm)) / (2 * h)
        except EvalError:
            continue
        if abs(sym) > 1e4:  # steep spots amplify truncation error
            continue
        assert sym == pytest.approx(fd, rel=1e-5, abs=1e-5)
        checked += 1


# -- interval evaluation -------------------------------------------------------------

def test_eval_interval_examples():
    assert eval_interval(parse("x1^2", 1), BoxDomain.from_bounds([(-1, 1)])) == Interval(0, 1)
    assert eval_interval(parse("sin(x1)", 1), BoxDomain.from_bounds([(0, PI)])) == Interval(0, 1)
    # dependency blowup is expected from the natural extension
    assert eval_interval(parse("x1 - x1", 1), BoxDomain.from_bounds([(0, 1)])) == Interval(-1, 1)
    assert eval_interval(parse("min(x1, x2)", 2),
                         BoxDomain.from_bounds([(0, 2), (1, 3)])) == Interval(0, 2)


def test_eval_interval_division_modes():
    box = BoxDomain.from_bounds([(-1, 1)])
    iv = eval_interval(parse("1/x1", 1), box)
    assert iv.lo == -math.inf and iv.hi == math.inf
    assert eval_interval(parse("1/x1", 1), BoxDomain.from_bounds([(1, 2)])) == Interval(0.5, 1.0)


def test_eval_interval_keeps_exact_ranges_exact():
    # no widening: an even power's range is tight, and a zero endpoint keeps its sign
    iv = eval_interval(parse("x1^2", 1), BoxDomain.from_bounds([(-1, 1)]))
    assert (repr(iv.lo), repr(iv.hi)) == ("0.0", "1.0")
    iv = eval_interval(parse("x1", 1), BoxDomain.from_bounds([(-0.0, 1)]))
    assert (repr(iv.lo), repr(iv.hi)) == ("-0.0", "1.0")


def test_eval_interval_dimension_check():
    with pytest.raises(DimensionError):
        eval_interval(parse("x2", 2), BoxDomain.from_bounds([(0, 1)]))


def test_lower_intervals_failures_follow_each_tree():
    def run(texts, lo, hi):
        return expr.lower_intervals([parse(t, 3) for t in texts])(lo, hi)

    # x1*x1 overflows to [inf, inf]: it fails every tree that reaches it and no other
    trees = ["x1*x1", "x3", "x2 + x1*x1"]
    out = run(trees, [1e200, 0.0, 5.0], [1e200, 1.0, 6.0])
    assert [type(r) for r in out] == [ValueError, tuple, ValueError]
    assert out[1] == (5.0, 6.0)
    with pytest.raises(DimensionError, match="x3"):
        run(trees, [1e200, 0.0], [1e200, 1.0])
    # the first failure evaluation meets in a tree, operands left to right
    with pytest.raises(DimensionError, match="x3"):
        run(["x3 + x1*x1"], [1e200], [1e200])
    (r,) = run(["x1*x1 + x3"], [1e200], [1e200])
    assert isinstance(r, ValueError)


def test_interval_soundness_random(rng):
    """eval(e, p) lies in eval_interval(e, box) for sampled triples."""
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, 2, 4)
        lo = rng.uniform(-2, 2, 2)
        wid = rng.uniform(0, 2, 2)
        box = BoxDomain.from_bounds(list(zip(lo, lo + wid)))
        p = lo + wid * rng.random(2)
        try:
            iv = eval_interval(e, box)
            val = evaluate(e, p)
        except EvalError:
            continue
        if max(abs(iv.lo), abs(iv.hi)) > 1e3 or not iv.is_finite():
            continue  # keep rounding below the fixed slack
        assert iv.contains(val, 1e-12), (to_string(e), box, p, iv, val)
        checked += 1

"""Expression parsing, printing, evaluation, differentiation, interval extension."""

import math

import numpy as np
import pytest

from mixedmono import (Binary, BoxDomain, Const, DimensionError, EvalError, Interval,
                       ParseError, Power, Unary, Var, differentiate, eval_interval,
                       evaluate, parse, to_string)

PI = math.pi


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


def test_eval_interval_slack():
    box = BoxDomain.from_bounds([(-1, 1)])
    iv = eval_interval(parse("x1^2", 1), box, slack=1e-6)
    assert iv == Interval(-1e-6, 1 + 1e-6)
    with pytest.raises(ValueError):
        eval_interval(parse("x1", 1), box, slack=-1.0)


def test_eval_interval_dimension_check():
    with pytest.raises(DimensionError):
        eval_interval(parse("x2", 2), BoxDomain.from_bounds([(0, 1)]))


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

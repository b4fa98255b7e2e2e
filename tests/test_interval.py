"""The interval range rules, checked endpoint pairs and box machinery."""

import math

import numpy as np
import pytest

from mixedmono import BoxDomain, DimensionError, Interval, Var, eval_interval, leq_orthant
from mixedmono.interval import (iv_abs, iv_add, iv_cos, iv_div, iv_exp, iv_hull, iv_intersect,
                                iv_max, iv_min, iv_mul, iv_neg, iv_power, iv_sign, iv_sin,
                                iv_step, iv_sub)

INF = math.inf


# -- construction ---------------------------------------------------------------

def test_interval_validation():
    Interval(1.0, 1.0)
    Interval(-INF, 3.0)
    Interval(3.0, INF)
    Interval(-INF, INF)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(INF, INF)
    with pytest.raises(ValueError):
        Interval(-INF, -INF)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_box_requires_finite():
    with pytest.raises(ValueError):
        BoxDomain.from_bounds([(0.0, INF)])
    with pytest.raises(DimensionError):
        BoxDomain(())


# -- the componentwise order ------------------------------------------------------

def test_leq_orthant_basics():
    assert leq_orthant([0, 0], [1, 1])
    assert not leq_orthant([0, 2], [1, 1])
    assert leq_orthant([1, 1], [1, 1])
    with pytest.raises(DimensionError):
        leq_orthant([0, 0], [1, 1, 1])


def test_partial_order_properties(rng):
    pts = rng.uniform(-5, 5, size=(50, 3))
    for p in pts:
        assert leq_orthant(p, p)  # reflexive
    for p in pts:
        d1 = rng.uniform(0, 1, 3)
        d2 = rng.uniform(0, 1, 3)
        q = p + d1
        r = q + d2
        assert leq_orthant(p, q) and leq_orthant(q, r) and leq_orthant(p, r)  # transitive
    for p in pts[:10]:
        q = p.copy()
        assert leq_orthant(p, q) and leq_orthant(q, p)
        assert np.array_equal(p, q)  # antisymmetric on equals


# -- hull / intersection ------------------------------------------------------------

def test_hull_intersect():
    assert iv_hull(0, 1, 2, 3) == (0, 3)
    assert iv_intersect(0, 2, 1, 3) == (1, 2)
    with pytest.raises(ValueError):
        iv_intersect(0, 1, 2, 3)


# -- range rules ------------------------------------------------------------------

def test_add_mul_examples():
    assert iv_add(0, 0, -2, 5) == (-2, 5)
    assert iv_mul(-1, 2, 0, 1) == (-1, 2)
    assert iv_neg(1, 2) == (-2, -1)
    assert iv_sub(1, 2, 0, 1) == (0, 2)


def test_power_rules():
    assert iv_power(-1, 1, 2) == (0, 1)
    assert iv_power(-2, 1, 2) == (0, 4)
    assert iv_power(-2, 1, 3) == (-8, 1)
    assert iv_power(-2, -1, 2) == (1, 4)
    assert iv_power(3, 4, 0) == (1, 1)
    assert iv_power(2, 4, -1) == (0.25, 0.5)


def test_trig_range_rules():
    pi = math.pi
    assert iv_sin(0, pi) == (0.0, 1.0)
    assert iv_sin(0, 2 * pi) == (-1.0, 1.0)
    assert iv_cos(0, 100) == (-1.0, 1.0)
    assert iv_sin(pi / 6, pi / 3) == (math.sin(pi / 6), math.sin(pi / 3))
    assert iv_cos(0.2, 1.2) == (math.cos(1.2), math.cos(0.2))
    assert iv_cos(-pi, pi) == (-1.0, 1.0)


def test_division_extended():
    assert iv_div(1, 1, 2, 4) == (0.25, 0.5)
    assert iv_div(1, 2, -1, 1) == (-INF, INF)
    assert iv_div(1, 2, 0, 1) == (1.0, INF)
    assert iv_div(-2, -1, 0, 1) == (-INF, -1.0)
    assert iv_div(1, 2, -1, 0) == (-INF, -1.0)


def test_abs_min_max_sign_step():
    assert iv_abs(-3, 2) == (0, 3)
    assert iv_abs(1, 2) == (1, 2)
    assert iv_abs(-2, -1) == (1, 2)
    assert iv_min(0, 3, -1, 2) == (-1, 2)
    assert iv_max(0, 3, -1, 2) == (0, 3)
    assert iv_sign(-2, 3) == (-1, 1)
    assert iv_sign(0, 3) == (0, 1)
    assert iv_step(-2, 0) == (0, 0.5)
    assert iv_step(1, 2) == (1, 1)


_GRID = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


def _interval_pairs():
    ivs = [Interval(a, b) for a in _GRID for b in _GRID if a <= b]
    return [(u, v) for u in ivs for v in ivs]


def test_arithmetic_soundness_sampled():
    """x op y lands inside the interval result for dense samples of each operand."""
    xs = np.linspace(0, 1, 10)
    checked = 0
    for u, v in _interval_pairs()[:: 7]:  # thin the pair grid, keep ~10^4 samples per op
        us = u.lo + (u.hi - u.lo) * xs
        vs = v.lo + (v.hi - v.lo) * xs
        sums, difs, prods, quot = (Interval(*rule(u.lo, u.hi, v.lo, v.hi))
                                   for rule in (iv_add, iv_sub, iv_mul, iv_div))
        for a in us:
            for b in vs:
                assert sums.contains(a + b, 1e-12)
                assert difs.contains(a - b, 1e-12)
                assert prods.contains(a * b, 1e-12)
                if b != 0.0:
                    assert quot.contains(a / b, 1e-12)
                checked += 1
    assert checked >= 10_000


def test_unary_soundness_sampled():
    xs = np.linspace(0, 1, 101)
    ivs = [Interval(a, b) for a in _GRID for b in _GRID if a <= b]
    for u in ivs:
        pts = u.lo + (u.hi - u.lo) * xs
        for n in (0, 1, 2, 3, 4):
            pw = Interval(*iv_power(u.lo, u.hi, n))
            for a in pts:
                assert pw.contains(a ** n, 1e-12)
        ab, sn, cs, ex, sg, st = (Interval(*rule(u.lo, u.hi))
                                  for rule in (iv_abs, iv_sin, iv_cos, iv_exp, iv_sign, iv_step))
        for a in pts:
            assert ab.contains(abs(a), 1e-12)
            assert sn.contains(math.sin(a), 1e-12)
            assert cs.contains(math.cos(a), 1e-12)
            assert ex.contains(math.exp(a), 1e-12)
            assert sg.contains(0.0 if a == 0 else math.copysign(1, a))
            assert st.contains(1.0 if a > 0 else (0.5 if a == 0 else 0.0))


def test_zero_times_unbounded():
    assert iv_mul(0, 0, -INF, INF) == (0, 0)
    assert iv_mul(0, 1, 0, INF) == (0, INF)


def test_widen_and_contains():
    unit = BoxDomain.from_bounds([(0.0, 1.0)])
    assert eval_interval(Var(1), unit, slack=0.5) == Interval(-0.5, 1.5)
    assert eval_interval(Var(1), unit, slack=0.0) == Interval(0, 1)
    assert Interval(0, 1).contains(1.0000001, slack=1e-6)
    assert not Interval(0, 1).contains(1.1)
    assert Interval(0, 3).contains_interval(Interval(1, 2))


def test_box_accessors():
    box = BoxDomain.from_bounds([(0.0, 1.0), (-2.0, 2.0)])
    assert box.n == 2
    assert box[1] == Interval(-2.0, 2.0)
    assert np.array_equal(box.lower_corner(), [0.0, -2.0])
    assert np.array_equal(box.upper_corner(), [1.0, 2.0])
    assert box.widths() == [1.0, 4.0]

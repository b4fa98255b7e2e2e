"""Interval arithmetic and box machinery."""

import math

import numpy as np
import pytest

from mixedmono import (BoxDomain, DegenerateAxisError, DimensionError, Interval,
                       hull, intersect, leq_orthant)

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


# -- split / hull -----------------------------------------------------------------

def test_split_examples():
    box = BoxDomain.from_bounds([(-1.0, 1.0)])
    left, right = box.split(1)
    assert left[0] == Interval(-1.0, 0.0)
    assert right[0] == Interval(0.0, 1.0)

    box2 = BoxDomain.from_bounds([(0.0, 1.0), (0.0, 4.0)])
    assert box2.widest_axis() == 2
    lo2, hi2 = box2.split(2)
    assert lo2[1] == Interval(0.0, 2.0) and hi2[1] == Interval(2.0, 4.0)
    assert lo2[0] == box2[0] and hi2[0] == box2[0]

    with pytest.raises(DegenerateAxisError):
        BoxDomain.from_bounds([(2.0, 2.0)]).split(1)
    with pytest.raises(DimensionError):
        box.split(2)


def test_widest_axis_tie_goes_low():
    box = BoxDomain.from_bounds([(1.0, 3.0), (0.0, 2.0)])
    assert box.widest_axis() == 1


def test_split_hull_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-3, 3, n)
        wid = rng.uniform(0.1, 2, n)
        box = BoxDomain.from_bounds(list(zip(lo, lo + wid)))
        axis = int(rng.integers(1, n + 1))
        a, b = box.split(axis)
        for k, (iv, left, right) in enumerate(zip(box.intervals, a.intervals, b.intervals)):
            if k == axis - 1:
                assert (left.lo, left.hi, right.lo, right.hi) == (iv.lo, iv.midpoint,
                                                                  iv.midpoint, iv.hi)
            else:
                assert left == iv and right == iv


def test_hull_intersect():
    assert hull(Interval(0, 1), Interval(2, 3)) == Interval(0, 3)
    assert intersect(Interval(0, 2), Interval(1, 3)) == Interval(1, 2)
    with pytest.raises(ValueError):
        intersect(Interval(0, 1), Interval(2, 3))


# -- arithmetic -----------------------------------------------------------------

def test_add_mul_examples():
    assert Interval(0, 0) + Interval(-2, 5) == Interval(-2, 5)
    assert Interval(-1, 2) * Interval(0, 1) == Interval(-1, 2)
    assert -Interval(1, 2) == Interval(-2, -1)
    assert Interval(1, 2) - Interval(0, 1) == Interval(0, 2)


def test_power_rules():
    assert Interval(-1, 1).power(2) == Interval(0, 1)
    assert Interval(-2, 1).power(2) == Interval(0, 4)
    assert Interval(-2, 1).power(3) == Interval(-8, 1)
    assert Interval(-2, -1).power(2) == Interval(1, 4)
    assert Interval(3, 4).power(0) == Interval(1, 1)
    assert Interval(2, 4).power(-1) == Interval(0.25, 0.5)


def test_trig_range_rules():
    pi = math.pi
    assert Interval(0, pi).sin() == Interval(0.0, 1.0)
    assert Interval(0, 2 * pi).sin() == Interval(-1.0, 1.0)
    assert Interval(0, 100).cos() == Interval(-1.0, 1.0)
    sixth = Interval(pi / 6, pi / 3)
    assert sixth.sin() == Interval(math.sin(pi / 6), math.sin(pi / 3))
    band = Interval(0.2, 1.2)
    assert band.cos() == Interval(math.cos(1.2), math.cos(0.2))
    assert Interval(-pi, pi).cos() == Interval(-1.0, 1.0)


def test_division_extended():
    assert Interval(1, 1) / Interval(2, 4) == Interval(0.25, 0.5)
    assert Interval(1, 2) / Interval(-1, 1) == Interval(-INF, INF)
    assert Interval(1, 2) / Interval(0, 1) == Interval(1.0, INF)
    assert Interval(-2, -1) / Interval(0, 1) == Interval(-INF, -1.0)
    assert Interval(1, 2) / Interval(-1, 0) == Interval(-INF, -1.0)


def test_abs_min_max_sign_step():
    assert Interval(-3, 2).abs() == Interval(0, 3)
    assert Interval(1, 2).abs() == Interval(1, 2)
    assert Interval(-2, -1).abs() == Interval(1, 2)
    assert Interval(0, 3).min_with(Interval(-1, 2)) == Interval(-1, 2)
    assert Interval(0, 3).max_with(Interval(-1, 2)) == Interval(0, 3)
    assert Interval(-2, 3).sign() == Interval(-1, 1)
    assert Interval(0, 3).sign() == Interval(0, 1)
    assert Interval(-2, 0).step() == Interval(0, 0.5)
    assert Interval(1, 2).step() == Interval(1, 1)


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
        sums = u + v
        difs = u - v
        prods = u * v
        quot = u / v
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
            pw = u.power(n)
            for a in pts:
                assert pw.contains(a ** n, 1e-12)
        ab, sn, cs, ex = u.abs(), u.sin(), u.cos(), u.exp()
        sg, st = u.sign(), u.step()
        for a in pts:
            assert ab.contains(abs(a), 1e-12)
            assert sn.contains(math.sin(a), 1e-12)
            assert cs.contains(math.cos(a), 1e-12)
            assert ex.contains(math.exp(a), 1e-12)
            assert sg.contains(0.0 if a == 0 else math.copysign(1, a))
            assert st.contains(1.0 if a > 0 else (0.5 if a == 0 else 0.0))


def test_zero_times_unbounded():
    assert Interval(0, 0) * Interval(-INF, INF) == Interval(0, 0)
    assert Interval(0, 1) * Interval(0, INF) == Interval(0, INF)


def test_widen_and_contains():
    iv = Interval(0, 1).widen(0.5)
    assert iv == Interval(-0.5, 1.5)
    assert Interval(0, 1).widen(0.0) == Interval(0, 1)
    assert Interval(0, 1).contains(1.0000001, slack=1e-6)
    assert not Interval(0, 1).contains(1.1)
    assert Interval(0, 3).contains_interval(Interval(1, 2))


def test_box_accessors():
    box = BoxDomain.from_bounds([(0.0, 1.0), (-2.0, 2.0)])
    assert box.n == 2
    assert np.array_equal(box.lower_corner(), [0.0, -2.0])
    assert np.array_equal(box.upper_corner(), [1.0, 2.0])
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.5, 0.0])
    with pytest.raises(DimensionError):
        box.contains([0.5])

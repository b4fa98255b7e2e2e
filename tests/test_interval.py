"""The interval range rules, checked endpoint pairs and box machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedmono import BoxDomain, DimensionError, Interval, Var, eval_interval, leq_orthant
from mixedmono.interval import (_fexp, _fpow, iv_abs, iv_add, iv_checked, iv_cos, iv_div, iv_exp,
                                iv_hull, iv_intersect, iv_max, iv_min, iv_mul, iv_neg, iv_power,
                                iv_sign, iv_sin, iv_step, iv_sub)

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


@pytest.mark.parametrize("num, den, quotient", [
    ((0, 1), (0, 1), (0.0, INF)),
    ((-1, 0), (0, 1), (-INF, 0.0)),
    ((0, 1), (-1, 0), (-INF, -0.0)),
    ((-1, 0), (-1, 0), (-0.0, INF)),
])
def test_division_of_half_lines_keeps_the_sign_of_zero(num, den, quotient):
    got = iv_div(*num, *den)
    assert got == quotient
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in quotient]


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
    assert eval_interval(Var(1), unit) == Interval(0, 1)
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


# -- the rules against their plain forms --------------------------------------------
#
# The rules below are the plain forms of the fast ones in interval.py, which
# test their own image, unroll their min and max, and write out the angle
# test of sine and cosine.  The fast ones must give the same pairs, the sign
# of a zero included, and raise the same errors.

def _ref_add(alo, ahi, blo, bhi):
    return iv_checked(alo + blo, ahi + bhi)


def _ref_sub(alo, ahi, blo, bhi):
    return iv_checked(alo - bhi, ahi - blo)


def _ref_mul(alo, ahi, blo, bhi):
    p, q, r, s = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    if p != p or q != q or r != r or s != s:
        p, q, r, s = (0.0 if v != v else v for v in (p, q, r, s))
    lo = hi = p
    for v in (q, r, s):
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    return iv_checked(lo, hi)


def _ref_power(lo, hi, n):
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        return iv_div(1.0, 1.0, *_ref_power(lo, hi, -n))
    if n % 2 == 1:
        return iv_checked(_fpow(lo, n), _fpow(hi, n))
    a, b = abs(lo), abs(hi)
    top = _fpow(max(a, b), n)
    if lo <= 0.0 <= hi:
        return iv_checked(0.0, top)
    return iv_checked(_fpow(min(a, b), n), top)


def _ref_exp(lo, hi):
    return iv_checked(_fexp(lo), _fexp(hi))


def _contains_angle(lo, hi, theta):
    k = math.ceil((lo - theta) / (2.0 * math.pi))
    return theta + k * (2.0 * math.pi) <= hi


def _ref_sin(lo, hi):
    if hi - lo >= 2.0 * math.pi:
        return -1.0, 1.0
    a, b = math.sin(lo), math.sin(hi)
    top = 1.0 if _contains_angle(lo, hi, 0.5 * math.pi) else max(a, b)
    bottom = -1.0 if _contains_angle(lo, hi, -0.5 * math.pi) else min(a, b)
    return bottom, top


def _ref_cos(lo, hi):
    if hi - lo >= 2.0 * math.pi:
        return -1.0, 1.0
    a, b = math.cos(lo), math.cos(hi)
    top = 1.0 if _contains_angle(lo, hi, 0.0) else max(a, b)
    bottom = -1.0 if _contains_angle(lo, hi, math.pi) else min(a, b)
    return bottom, top


_BINARY_REFS = [(iv_add, _ref_add), (iv_sub, _ref_sub), (iv_mul, _ref_mul)]
_UNARY_REFS = [(iv_exp, _ref_exp), (iv_sin, _ref_sin), (iv_cos, _ref_cos)]
_EXPONENTS = range(-4, 6)


def _outcome(rule, *args):
    """repr of the pair a rule returns, so the sign of a zero counts, or its ValueError."""
    try:
        return repr(rule(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_binary_rules_agree(a, b):
    for fast, ref in _BINARY_REFS:
        assert _outcome(fast, *a, *b) == _outcome(ref, *a, *b)


def _assert_unary_rules_agree(a):
    for fast, ref in _UNARY_REFS:
        assert _outcome(fast, *a) == _outcome(ref, *a)
    for n in _EXPONENTS:
        assert _outcome(iv_power, *a, n) == _outcome(_ref_power, *a, n)


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, -2.5, 0.5 * math.pi, -0.5 * math.pi,
          2.0 * math.pi, 1e308, -1e308, INF, -INF]
_EDGE_INTERVALS = [(a, b) for a in _EDGES for b in _EDGES
                   if a <= b and a != INF and b != -INF]


def test_rules_match_their_plain_forms_on_edge_intervals():
    for a in _EDGE_INTERVALS:
        _assert_unary_rules_agree(a)
        for b in _EDGE_INTERVALS:
            _assert_binary_rules_agree(a, b)


@pytest.mark.parametrize("rule, ref, args", [
    (iv_add, _ref_add, (1e308, 1e308, 1e308, 1e308)),       # overflows to [inf, inf]
    (iv_sub, _ref_sub, (-1e308, -1e308, 1e308, 1e308)),     # overflows to [-inf, -inf]
    (iv_mul, _ref_mul, (1e308, 1e308, -1e308, -1e308)),
    (iv_exp, _ref_exp, (710.0, 711.0)),
    (iv_power, _ref_power, (1e200, 1e201, 2)),
    (iv_power, _ref_power, (-1e201, -1e200, 3)),
])
def test_rules_raise_the_errors_of_their_plain_forms(rule, ref, args):
    assert _outcome(rule, *args).startswith("ValueError: ")
    assert _outcome(rule, *args) == _outcome(ref, *args)


_FLOATS = st.floats(allow_nan=False)
_INTERVALS = st.tuples(_FLOATS, _FLOATS).map(sorted).map(tuple).filter(
    lambda p: p[0] != INF and p[1] != -INF)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_INTERVALS, _INTERVALS)
def test_rules_match_their_plain_forms_on_sampled_intervals(a, b):
    _assert_unary_rules_agree(a)
    _assert_binary_rules_agree(a, b)

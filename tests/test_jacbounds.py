"""Derivative enclosures over boxes and the four-way classification."""

import math

import pytest

from mixedmono import (BoxDomain, DimensionError, InvalidBoundsError, SignCase,
                       VectorField, classify, differentiate, evaluate,
                       jacobian_bounds)
from conftest import box_samples

INF = math.inf


def test_vector_field_validation():
    with pytest.raises(DimensionError):
        VectorField.from_strings(["x1 + x3"], 2)
    f = VectorField.from_strings(["-x1 + x2", "x1 - x2"], 2)
    assert f.m == 2 and f.n == 2
    assert list(f.evaluate([1.0, 3.0])) == [2.0, -2.0]
    with pytest.raises(DimensionError):
        VectorField(2, ())


def test_jacobian_bounds_linear_row():
    f = VectorField.from_strings(["-x1 + x2"], 2)
    box = BoxDomain.from_bounds([(0, 1), (0, 1)])
    s = 1e-9
    jb = jacobian_bounds(f, box, slack=s)
    assert len(jb) == 1 and len(jb[0]) == 2
    assert jb[0][0].lo == pytest.approx(-1 - s, abs=1e-18)
    assert jb[0][0].hi == pytest.approx(-1 + s, abs=1e-18)
    assert jb[0][1].lo == pytest.approx(1 - s, abs=1e-18)
    assert jb[0][1].hi == pytest.approx(1 + s, abs=1e-18)


def test_jacobian_bounds_square():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    jb = jacobian_bounds(f, box, slack=0.0)
    assert jb[0][0].lo == -2.0 and jb[0][0].hi == 2.0


def test_box_dimension_mismatch():
    f = VectorField.from_strings(["x1"], 1)
    with pytest.raises(DimensionError):
        jacobian_bounds(f, BoxDomain.from_bounds([(0, 1), (0, 1)]))


def test_containment_of_sampled_derivatives(corpus, rng):
    """Each enclosure strictly contains the derivative at 1000 sampled points."""
    for entry in corpus:
        f, box = entry.field, entry.box
        jb = jacobian_bounds(f, box)  # default slack keeps the enclosure open
        pts = box_samples(box, rng, 1000)
        for i, comp in enumerate(f.components):
            for j in range(1, f.n + 1):
                d = differentiate(comp, j)
                iv = jb[i][j - 1]
                vals = [evaluate(d, p) for p in pts]
                assert all(iv.lo < v < iv.hi for v in vals), (entry.name, i, j)


def test_classify_examples():
    assert classify(0.5, 3.0) is SignCase.CASE1
    assert classify(-2.0, 2.0) is SignCase.CASE2
    assert classify(-INF, -0.1) is SignCase.CASE4
    assert classify(-3.0, 1.0) is SignCase.CASE3


def test_classify_exhaustive_grid():
    # hand-computed table over a x b endpoint grid, a < b
    expected = {
        (-INF, -1.0): SignCase.CASE4,
        (-INF, 0.0): SignCase.CASE4,
        (-INF, 1.0): SignCase.CASE3,
        (-INF, 2.0): SignCase.CASE3,
        (-2.0, -1.0): SignCase.CASE4,
        (-2.0, 0.0): SignCase.CASE4,
        (-2.0, 1.0): SignCase.CASE3,
        (-2.0, 2.0): SignCase.CASE2,   # tie goes to CASE2
        (-2.0, INF): SignCase.CASE2,
        (-1.0, 0.0): SignCase.CASE4,
        (-1.0, 1.0): SignCase.CASE2,
        (-1.0, 2.0): SignCase.CASE2,
        (-1.0, INF): SignCase.CASE2,
        (0.0, 1.0): SignCase.CASE1,
        (0.0, 2.0): SignCase.CASE1,
        (0.0, INF): SignCase.CASE1,
        (1.0, 2.0): SignCase.CASE1,
        (1.0, INF): SignCase.CASE1,
    }
    for a in (-INF, -2.0, -1.0, 0.0, 1.0):
        for b in (-1.0, 0.0, 1.0, 2.0, INF):
            if not a < b:
                continue
            if math.isinf(a) and math.isinf(b):
                with pytest.raises(InvalidBoundsError):
                    classify(a, b)
                continue
            assert classify(a, b) is expected[(a, b)], (a, b)


def test_classify_invalid():
    with pytest.raises(InvalidBoundsError, match=r"needs a < b, got \(2.0, 1.0\)"):
        classify(2.0, 1.0)
    for a, b in ((-INF, INF), (INF, INF), (-INF, -INF)):
        with pytest.raises(InvalidBoundsError, match="cannot be classified"):
            classify(a, b)
    with pytest.raises(InvalidBoundsError, match="NaN"):
        classify(math.nan, 1.0)
    with pytest.raises(InvalidBoundsError, match="NaN"):
        classify(math.nan, math.nan)


def test_classify_point_enclosure():
    # a constant derivative enclosed with no slack is the point (c, c)
    assert classify(2.0, 2.0) is SignCase.CASE1
    assert classify(0.0, 0.0) is SignCase.CASE1
    assert classify(-1.0, -1.0) is SignCase.CASE4

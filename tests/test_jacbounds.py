"""Derivative enclosures over boxes, and the sign case each row of g reads from them."""

import math

import pytest

from mixedmono import (BoxDomain, DimensionError, UnboundedDerivativeError, VectorField,
                       build_decomposition, differentiate, evaluate, jacobian_bounds)
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
    (a0, b0), (a1, b1) = jb[0]
    assert a0 == pytest.approx(-1 - s, abs=1e-18)
    assert b0 == pytest.approx(-1 + s, abs=1e-18)
    assert a1 == pytest.approx(1 - s, abs=1e-18)
    assert b1 == pytest.approx(1 + s, abs=1e-18)


def test_jacobian_bounds_square():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    jb = jacobian_bounds(f, box, slack=0.0)
    assert jb == [[(-2.0, 2.0)]]


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
                a, b = jb[i][j - 1]
                vals = [evaluate(d, p) for p in pts]
                assert all(a < v < b for v in vals), (entry.name, i, j)


def _case(a, b, epsilon=0.0):
    """The sign case of the one-entry row of g built from the enclosure (a, b),
    and the offset of that row, or None."""
    (first,), terms = build_decomposition([[(a, b)]], epsilon).rows[0]
    if not terms:
        return ("case1" if first else "case4"), None
    return ("case2" if first else "case3"), terms[0][1]


def test_classify_examples():
    assert _case(0.5, 3.0) == ("case1", None)
    assert _case(-2.0, 2.0) == ("case2", 2.0)
    assert _case(-INF, -0.1) == ("case4", None)
    assert _case(-3.0, 1.0) == ("case3", 1.0)
    assert _case(-3.0, 1.0, 0.25) == ("case3", 1.25)


def test_classify_exhaustive_grid():
    # hand-computed table over a x b endpoint grid, a < b, with each offset
    expected = {
        (-INF, -1.0): ("case4", None),
        (-INF, 0.0): ("case4", None),
        (-INF, 1.0): ("case3", 1.0),
        (-INF, 2.0): ("case3", 2.0),
        (-2.0, -1.0): ("case4", None),
        (-2.0, 0.0): ("case4", None),
        (-2.0, 1.0): ("case3", 1.0),
        (-2.0, 2.0): ("case2", 2.0),   # tie goes to CASE2
        (-2.0, INF): ("case2", 2.0),
        (-1.0, 0.0): ("case4", None),
        (-1.0, 1.0): ("case2", 1.0),
        (-1.0, 2.0): ("case2", 1.0),
        (-1.0, INF): ("case2", 1.0),
        (0.0, 1.0): ("case1", None),
        (0.0, 2.0): ("case1", None),
        (0.0, INF): ("case1", None),
        (1.0, 2.0): ("case1", None),
        (1.0, INF): ("case1", None),
    }
    for a in (-INF, -2.0, -1.0, 0.0, 1.0):
        for b in (-1.0, 0.0, 1.0, 2.0, INF):
            if not a < b:
                continue
            if math.isinf(a) and math.isinf(b):
                with pytest.raises(UnboundedDerivativeError):
                    _case(a, b)
                continue
            assert _case(a, b) == expected[(a, b)], (a, b)


def test_classify_invalid():
    # (-inf, inf) is an interval, but no row of g reads it; the others are
    # no interval at all
    with pytest.raises(UnboundedDerivativeError, match=r"^derivative enclosure for f1/x1 is "):
        _case(-INF, INF)
    with pytest.raises(ValueError, match=r"lower endpoint 2.0 exceeds upper endpoint 1.0"):
        _case(2.0, 1.0)
    for a, b in ((INF, INF), (-INF, -INF)):
        with pytest.raises(ValueError, match="both be infinite"):
            _case(a, b)
    with pytest.raises(ValueError, match="NaN"):
        _case(math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _case(math.nan, math.nan)


def test_classify_point_enclosure():
    # a constant derivative enclosed with no slack is the point (c, c)
    assert _case(2.0, 2.0) == ("case1", None)
    assert _case(0.0, 0.0) == ("case1", None)
    assert _case(-1.0, -1.0) == ("case4", None)

"""Decomposition construction, two-corner bounds, and refinement."""

import math

import numpy as np
import pytest

from mixedmono import (BoxDomain, DecompositionSpec, DimensionError, EmbeddingSystem, Interval,
                       UnboundedDerivativeError, VectorField, bound_box, build_decomposition,
                       eval_decomposition, format_decomposition,
                       integrate_embedding, jacobian_bounds, refine_bounds)
from mixedmono.decomp import decomposition_kernel
from conftest import box_samples, grid_points, ordered_pairs


def _spec_for(field, box, epsilon=0.0, slack=1e-9):
    return build_decomposition(jacobian_bounds(field, box, slack=slack), epsilon)


# -- construction examples ------------------------------------------------------

def test_square_construction():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    spec = _spec_for(f, box, slack=0.0)
    assert spec.rows == (((True,), ((0, 2.0),)),)
    assert format_decomposition(spec, f) == ["g1 = x1^2 + 2*x1 - 2*y1"]
    assert eval_decomposition(spec, f, [0.5], [0.5])[0] == pytest.approx(0.25)
    assert eval_decomposition(spec, f, [1.0], [-1.0])[0] == pytest.approx(5.0)
    assert eval_decomposition(spec, f, [-1.0], [1.0])[0] == pytest.approx(-3.0)
    assert bound_box(spec, f, box) == [Interval(-3.0, 5.0)]


def test_negation_construction():
    f = VectorField.from_strings(["-x1"], 1)
    box = BoxDomain.from_bounds([(0, 1)])
    spec = _spec_for(f, box)
    assert spec.rows == (((False,), ()),)
    assert format_decomposition(spec, f) == ["g1 = -y1"]
    assert bound_box(spec, f, box) == [Interval(-1.0, 0.0)]


def test_linear_2d_construction():
    f = VectorField.from_strings(["-x1 + x2", "x1 - x2"], 2)
    box = BoxDomain.from_bounds([(0, 1), (0, 1)])
    spec = _spec_for(f, box)
    assert spec.rows == (((False, True), ()), ((True, False), ()))
    assert format_decomposition(spec, f) == ["g1 = -y1 + x2", "g2 = x1 - y2"]
    lo, hi = bound_box(spec, f, box)
    assert lo == Interval(-1.0, 1.0) and hi == Interval(-1.0, 1.0)


def test_unbounded_entry_raises_with_position():
    f = VectorField.from_strings(["x2", "x1/x2"], 2)
    box = BoxDomain.from_bounds([(-1, 1), (-1, 1)])
    with pytest.raises(UnboundedDerivativeError) as err:
        _spec_for(f, box)
    assert err.value.row == 2 and err.value.col == 1
    assert "f2/x1" in str(err.value)


def test_epsilon_validation():
    f = VectorField.from_strings(["x1^2"], 1)
    jb = jacobian_bounds(f, BoxDomain.from_bounds([(-1, 1)]))
    with pytest.raises(ValueError):
        build_decomposition(jb, epsilon=-1.0)


@pytest.mark.parametrize("rows", [
    (((True,), ((0, 0.0),)),),                 # an offset must be positive
    (((True,), ((0, -1.0),)),),
    (((True,), ((0, math.inf),)),),            # and finite
    (((True,), ((0, math.nan),)),),
    (((True, False), ((2, 1.0),)),),           # a term index must be below n
    (((True, False), ((-1, 1.0),)),),          # and nonnegative
    (((True, False), ((0.5, 1.0),)),),         # and whole
    (((True, False), ((1, 1.0), (0, 1.0))),),  # and increase strictly
    (((True, False), ((0, 1.0), (0, 1.0))),),
    (((True, False), ()), ((True,), ())),      # every first has one length n
    (),
])
def test_hand_made_rows_are_checked(rows):
    with pytest.raises(ValueError):
        DecompositionSpec(rows)


def test_hand_made_rows_are_held_as_tuples():
    spec = DecompositionSpec([[[1, 0], [[1, 3]]]])
    assert spec.rows == (((True, False), ((1, 3.0),)),)
    assert (spec.m, spec.n) == (1, 2)


def test_dimension_checks():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    spec = _spec_for(f, box, slack=0.0)
    with pytest.raises(DimensionError):
        eval_decomposition(spec, f, [0.0, 0.0], [0.0])
    g = VectorField.from_strings(["x1", "x2"], 2)
    with pytest.raises(DimensionError):
        eval_decomposition(spec, g, [0.0, 0.0], [0.0, 0.0])


# -- decomposition axioms ---------------------------------------------------------

def test_axioms_on_corpus(corpus, rng):
    """Diagonal identity and the two monotonicity directions, sampled."""
    for entry in corpus:
        f, box = entry.field, entry.box
        spec = _spec_for(f, box)
        pts = box_samples(box, rng, 200)
        for p in pts[:50]:
            np.testing.assert_allclose(
                eval_decomposition(spec, f, p, p), f.evaluate(p), atol=1e-9)
        x_lo, x_hi = ordered_pairs(box, rng, 200)
        y = box_samples(box, rng, 200)
        for k in range(200):
            g_lo = np.asarray(eval_decomposition(spec, f, x_lo[k], y[k]))
            g_hi = np.asarray(eval_decomposition(spec, f, x_hi[k], y[k]))
            assert np.all(g_lo <= g_hi + 1e-9), entry.name  # nondecreasing in x
            h_lo = np.asarray(eval_decomposition(spec, f, y[k], x_lo[k]))
            h_hi = np.asarray(eval_decomposition(spec, f, y[k], x_hi[k]))
            assert np.all(h_hi <= h_lo + 1e-9), entry.name  # nonincreasing in y


def test_case_stable_entries_have_zero_offsets(corpus):
    for entry in corpus:
        if not entry.sign_stable:
            continue
        jb = jacobian_bounds(entry.field, entry.box)
        # each sign-stable entry reads x where it is nonnegative, y where not
        assert build_decomposition(jb).rows == tuple(
            (tuple(iv.lo >= 0.0 for iv in row), ()) for row in jb), entry.name


# -- bounds ------------------------------------------------------------------------

def test_bound_box_encloses_grid(corpus):
    for entry in corpus:
        f, box = entry.field, entry.box
        spec = _spec_for(f, box)
        bounds = bound_box(spec, f, box)
        pts = grid_points(box, 2000)
        vals = np.array([f.evaluate(p) for p in pts])
        for i, iv in enumerate(bounds):
            assert iv.lo <= vals[:, i].min() + 1e-9, entry.name
            assert vals[:, i].max() <= iv.hi + 1e-9, entry.name


def test_sign_stable_bounds_are_corner_tight(corpus):
    """With all offsets zero the bracket evaluates f at box corners."""
    for entry in corpus:
        if not entry.sign_stable:
            continue
        f, box = entry.field, entry.box
        spec = _spec_for(f, box)
        bounds = bound_box(spec, f, box)
        corners = grid_points(box, 2 ** box.n)
        vals = np.array([f.evaluate(p) for p in corners])
        for i, iv in enumerate(bounds):
            assert iv.lo == pytest.approx(vals[:, i].min(), abs=1e-9), entry.name
            assert iv.hi == pytest.approx(vals[:, i].max(), abs=1e-9), entry.name


def test_degenerate_box_bound_is_point():
    f = VectorField.from_strings(["x1*sin(x1)"], 1)
    box = BoxDomain.from_bounds([(0.7, 0.7)])
    spec = _spec_for(f, box)
    iv = bound_box(spec, f, box)[0]
    v = 0.7 * math.sin(0.7)
    assert iv.lo == iv.hi == pytest.approx(v)


def test_bound_box_refuses_a_bracket_that_overflows():
    # the offset 2e307 + 1.5e308 is finite, its product with x - y is not;
    # bound_box returned [Interval(-inf, inf)] where refine_bounds raises
    f = VectorField.from_strings(["1e307*x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    spec = _spec_for(f, box, epsilon=1.5e308)
    for bracket in (lambda: bound_box(spec, f, box), lambda: refine_bounds(f, box, 0, 1.5e308)):
        with pytest.raises(UnboundedDerivativeError, match="bracket for f1 overflows"):
            bracket()


def test_epsilon_widens_bounds():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    widths = []
    for eps in (0.0, 1e-6, 1e-3):
        iv = bound_box(_spec_for(f, box, epsilon=eps, slack=0.0), f, box)[0]
        widths.append(iv.width)
    assert widths[0] <= widths[1] <= widths[2]
    assert widths[2] > widths[0]


# -- refinement ---------------------------------------------------------------------

def test_refine_square_matches_halved_construction():
    f = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1, 1)])
    assert refine_bounds(f, box, 0, slack=0.0) == [Interval(-3.0, 5.0)]
    assert refine_bounds(f, box, 1, slack=0.0) == [Interval(0.0, 1.0)]


def test_refine_fixed_point_for_linear():
    f = VectorField.from_strings(["-x1"], 1)
    box = BoxDomain.from_bounds([(0, 1)])
    for depth in range(3):
        assert refine_bounds(f, box, depth) == [Interval(-1.0, 0.0)]


def test_refine_nesting(corpus):
    for entry in corpus:
        f, box = entry.field, entry.box
        prev = refine_bounds(f, box, 0)
        for depth in (1, 2, 3):
            cur = refine_bounds(f, box, depth)
            for a, b in zip(cur, prev):
                assert b.lo <= a.lo and a.hi <= b.hi, (entry.name, depth)
            prev = cur


def test_refine_encloses_grid(corpus):
    for entry in corpus:
        f, box = entry.field, entry.box
        bounds = refine_bounds(f, box, 2)
        pts = grid_points(box, 2000)
        vals = np.array([f.evaluate(p) for p in pts])
        for i, iv in enumerate(bounds):
            assert iv.lo <= vals[:, i].min() + 1e-9, entry.name
            assert vals[:, i].max() <= iv.hi + 1e-9, entry.name


def test_refine_degenerate_box_short_circuits():
    f = VectorField.from_strings(["x1*sin(x1)"], 1)
    box = BoxDomain.from_bounds([(0.7, 0.7)])
    assert refine_bounds(f, box, 3) == refine_bounds(f, box, 0)


@pytest.mark.parametrize("depth", [1, 3])
def test_refine_splits_a_box_whose_midpoint_overflows(depth):
    # lo + hi overflows here, and this raised "box axis 1 has no finite midpoint"
    f = VectorField.from_strings(["x1", "-x1", "0.5*x1 - 1e307"], 1)
    box = BoxDomain.from_bounds([(1e308, 1.7e308)])
    bounds = refine_bounds(f, box, depth)
    for corner in ([1e308], [1.7e308]):
        for iv, v in zip(bounds, f.evaluate(corner)):
            assert iv.lo <= v <= iv.hi


def test_refine_validates_depth():
    f = VectorField.from_strings(["x1"], 1)
    with pytest.raises(ValueError):
        refine_bounds(f, BoxDomain.from_bounds([(0, 1)]), -1)


def test_refine_unbounded_at_top_raises():
    f = VectorField.from_strings(["x1/x2"], 2)
    box = BoxDomain.from_bounds([(-1, 1), (-1, 1)])
    with pytest.raises(UnboundedDerivativeError):
        refine_bounds(f, box, 2)


def test_one_compile_of_g_per_field(monkeypatch):
    # two specs with different selectors, the boxes of a depth-4 refinement
    # and 100 RK4 steps all bind the one kernel the field compiled; a kernel
    # per selector pattern would compile again on many of them
    import builtins
    from mixedmono import expr

    sources = []

    def counting(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    f = VectorField.from_strings(["x1*x2 - sin(x1)", "abs(x2) - x1^2"], 2)
    box = BoxDomain.from_bounds([(-1.0, 2.0), (-2.0, 1.0)])
    spec = _spec_for(f, box)
    other = _spec_for(f, BoxDomain.from_bounds([(-2.0, -0.5), (-1.0, -0.5)]))
    assert [(first, [j for j, _ in terms]) for first, terms in spec.rows] == \
        [((False, True), [0, 1]), ((False, True), [0, 1])]
    assert other.rows == (((False, False), ()), ((True, False), ()))
    decomposition_kernel(spec, f)
    decomposition_kernel(other, f)
    refine_bounds(f, box, 4)
    tube = integrate_embedding(EmbeddingSystem(f, spec), [-0.1, -0.1], [0.1, 0.1], 0.5,
                               step=0.005)
    assert len(tube.times) == 101
    assert len(sources) == 1 and sources[0].startswith("def make(rows):")

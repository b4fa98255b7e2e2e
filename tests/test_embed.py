"""Stacked embedding systems, reach tubes, and trajectory enclosure."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mixedmono import (BlowupError, BoxDomain, DimensionError, EmbeddingSystem, VectorField,
                       build_decomposition, build_embedding, integrate_embedding,
                       jacobian_bounds)


def _embedding(exprs, bounds, epsilon=0.0):
    n = len(bounds)
    f = VectorField.from_strings(exprs, n)
    box = BoxDomain.from_bounds(bounds)
    spec = build_decomposition(jacobian_bounds(f, box), epsilon)
    return f, box, build_embedding(f, spec)


def sample_flow(f, x0, t_end, step):
    """The plain field's state at t_end from x0, by classical RK4 with steps
    of step, which must divide t_end: an oracle for the tubes."""
    h = step
    x = np.array(x0, dtype=float)
    for _ in range(round(t_end / h)):
        k1 = np.array(f.evaluate(x))
        k2 = np.array(f.evaluate(x + 0.5 * h * k1))
        k3 = np.array(f.evaluate(x + 0.5 * h * k2))
        k4 = np.array(f.evaluate(x + h * k3))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return list(x)


# -- construction ----------------------------------------------------------------

def test_build_rejects_non_square_field():
    f = VectorField.from_strings(["x1 + x2"], 2)
    box = BoxDomain.from_bounds([(0, 1), (0, 1)])
    spec = build_decomposition(jacobian_bounds(f, box))
    with pytest.raises(DimensionError):
        build_embedding(f, spec)


def test_build_rejects_mismatched_spec():
    f2 = VectorField.from_strings(["-x1 + x2", "x1 - x2"], 2)
    f1 = VectorField.from_strings(["-x1"], 1)
    spec1 = build_decomposition(jacobian_bounds(f1, BoxDomain.from_bounds([(0, 1)])))
    with pytest.raises(DimensionError):
        build_embedding(f2, spec1)


def test_stacked_field_for_negation():
    # g(x, y) = -y stacks to xdot = -y, ydot = -x
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    assert sys.n == 1
    out = sys.rhs(np.array([0.25, 0.75]))
    assert out == pytest.approx([-0.75, -0.25], abs=1e-12)


def test_stacked_field_for_linear_2d(rng):
    _, _, sys = _embedding(["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)])
    for _ in range(10):
        x1, x2, y1, y2 = rng.uniform(0.0, 1.0, size=4)
        out = sys.rhs(np.array([x1, x2, y1, y2]))
        want = [-y1 + x2, x1 - y2, -x1 + y2, y1 - x2]
        assert out == pytest.approx(want, abs=1e-12)


def test_stacked_field_collapses_on_diagonal(corpus, rng):
    for entry in corpus:
        if entry.field.m != entry.field.n:
            continue
        spec = build_decomposition(jacobian_bounds(entry.field, entry.box))
        sys = build_embedding(entry.field, spec)
        for _ in range(10):
            x = rng.uniform(entry.box.lower_corner(), entry.box.upper_corner())
            fx = entry.field.evaluate(x)
            out = sys.rhs(np.concatenate([x, x]))
            assert out == pytest.approx(np.concatenate([fx, fx]), abs=1e-12)


# -- tube values against hand-solved dynamics --------------------------------------

def test_tube_for_linear_decay_matches_closed_form():
    # xdot = -y, ydot = -x from (0, 1) solves to (-sinh t, cosh t)
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0], [1.0], 1.0, step=1e-3)
    t, lo, hi = tube.final()
    assert t == pytest.approx(1.0, abs=1e-12)
    assert lo[0] == pytest.approx(-math.sinh(1.0), abs=1e-6)
    assert hi[0] == pytest.approx(math.cosh(1.0), abs=1e-6)
    # interior rows follow the same closed form
    for k in range(0, len(tube.times), 100):
        tk = tube.times[k]
        assert tube.lower[k][0] == pytest.approx(-math.sinh(tk), abs=1e-6)
        assert tube.upper[k][0] == pytest.approx(math.cosh(tk), abs=1e-6)


def test_degenerate_box_follows_the_plain_flow():
    f, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [1.0], [1.0], 1.0, step=1e-3)
    _, lo, hi = tube.final()
    assert np.array_equal(tube.lower, tube.upper)
    assert lo[0] == pytest.approx(math.exp(-1.0), abs=1e-6)
    x1 = sample_flow(f, [1.0], 1.0, step=1e-3)
    assert lo[0] == pytest.approx(x1[0], abs=1e-12)


def test_sample_flow_values():
    f = VectorField.from_strings(["-x1"], 1)
    assert sample_flow(f, [1.0], 1.0, step=1e-3)[0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert sample_flow(f, [0.7], 0.0, step=1e-3) == [0.7]
    assert sample_flow(f, [0.0], 3.0, step=1e-2)[0] == 0.0


# -- time grid -------------------------------------------------------------------

def test_tube_time_grid_divisible():
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0], [1.0], 1.0, step=0.25)
    assert tube.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.shape(tube.lower) == (5, 1) and np.shape(tube.upper) == (5, 1)
    assert tube.step == 0.25


def test_tube_time_grid_with_remainder():
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0], [1.0], 1.0, step=0.3)
    assert tube.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])


def test_tube_zero_horizon_is_initial_row():
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0], [1.0], 0.0)
    assert tube.times == pytest.approx([0.0])
    assert tube.lower[0][0] == 0.0 and tube.upper[0][0] == 1.0


def test_tube_input_validation():
    _, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    with pytest.raises(ValueError):
        integrate_embedding(sys, [0.0], [1.0], 1.0, step=0.0)
    with pytest.raises(ValueError):
        integrate_embedding(sys, [0.0], [1.0], -1.0)
    with pytest.raises(ValueError):
        integrate_embedding(sys, [1.0], [0.0], 1.0)
    with pytest.raises(DimensionError):
        integrate_embedding(sys, [0.0, 0.0], [1.0, 1.0], 1.0)


# -- order properties ------------------------------------------------------------

def test_tube_rows_stay_ordered(corpus):
    for entry in corpus:
        if entry.field.m != entry.field.n:
            continue
        spec = build_decomposition(jacobian_bounds(entry.field, entry.box))
        sys = build_embedding(entry.field, spec)
        tube = integrate_embedding(sys, entry.box.lower_corner(),
                                   entry.box.upper_corner(), 0.25, step=1e-2)
        assert np.all(np.asarray(tube.lower) <= np.asarray(tube.upper) + 1e-9)
        assert np.all(np.diff(tube.times) > 0.0)


def test_wider_initial_box_gives_wider_tube():
    _, _, sys = _embedding(["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)])
    inner = integrate_embedding(sys, [0.2, 0.3], [0.7, 0.8], 1.0, step=1e-2)
    outer = integrate_embedding(sys, [0.0, 0.0], [1.0, 1.0], 1.0, step=1e-2)
    assert np.all(np.asarray(outer.lower) <= np.asarray(inner.lower) + 1e-9)
    assert np.all(np.asarray(inner.upper) <= np.asarray(outer.upper) + 1e-9)


def test_tube_contains_sampled_trajectories(rng):
    f, _, sys = _embedding(["-x1"], [(0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0], [1.0], 1.0, step=0.05)
    for x0 in rng.uniform(0.0, 1.0, size=20):
        traj = x0 * np.exp(-np.asarray(tube.times))
        assert np.all(np.asarray(tube.lower)[:, 0] - 1e-6 <= traj)
        assert np.all(traj <= np.asarray(tube.upper)[:, 0] + 1e-6)


def test_tube_contains_matrix_exponential_box():
    # Metzler linear field: the true reach set of a box is the matrix
    # exponential applied cornerwise; the stacked system must contain it
    # (and is strictly wider here because the negative diagonal entries
    # route through the opposite corner)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    _, _, sys = _embedding(["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)])
    lo0, hi0 = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    tube = integrate_embedding(sys, lo0, hi0, 1.0, step=1e-3)
    for k in range(0, len(tube.times), 200):
        ekA = expm(A * tube.times[k])
        assert np.all(tube.lower[k] <= ekA @ lo0 + 1e-9)
        assert np.all(ekA @ hi0 <= np.asarray(tube.upper[k]) + 1e-9)
    _, lo, hi = tube.final()
    assert hi[0] > (expm(A) @ hi0)[0] + 0.1


def test_tube_contains_flow_samples_for_coupled_field(rng):
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    f, _, sys = _embedding(["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)])
    tube = integrate_embedding(sys, [0.0, 0.0], [1.0, 1.0], 0.5, step=0.05)
    for _ in range(20):
        x0 = rng.uniform(0.0, 1.0, size=2)
        for k, t in enumerate(tube.times):
            xt = expm(A * t) @ x0
            assert np.all(np.asarray(tube.lower[k]) - 1e-6 <= xt)
            assert np.all(xt <= np.asarray(tube.upper[k]) + 1e-6)


def test_tube_contains_the_flow_across_a_jump():
    # x2 falls only once x1 passes 0, where step(x1) jumps; the trajectory
    # from (-1, 1) keeps x2 near 1 up to t = 1
    f, _, sys = _embedding(["x2", "-step(x1)"], [(-1.0, 1.0), (-1.0, 1.0)])
    tube = integrate_embedding(sys, [-1.0, -1.0], [1.0, 1.0], 1.0, step=0.01)
    _, lo, hi = tube.final()
    xt = sample_flow(f, [-1.0, 1.0], 1.0, step=0.01)
    assert xt[1] > 0.99
    assert all(a <= x <= b for a, x, b in zip(lo, xt, hi))


# -- divergence ------------------------------------------------------------------

def test_blowup_is_reported_with_time():
    _, _, sys = _embedding(["x1^2"], [(2.0, 2.0)])
    with pytest.raises(BlowupError) as err:
        integrate_embedding(sys, [2.0], [2.0], 1.0, step=1e-3)
    assert 0.0 < err.value.time <= 1.0
    assert "cap exceeded" in str(err.value)


def test_blowup_cap_is_configurable():
    _, _, sys = _embedding(["x1^2"], [(2.0, 2.0)])
    with pytest.raises(BlowupError) as small:
        integrate_embedding(sys, [2.0], [2.0], 1.0, step=1e-3, magnitude_cap=1e2)
    with pytest.raises(BlowupError) as large:
        integrate_embedding(sys, [2.0], [2.0], 1.0, step=1e-3, magnitude_cap=1e10)
    assert small.value.time < large.value.time
    with pytest.raises(BlowupError) as at_start:
        integrate_embedding(sys, [2.0], [2.0], 1.0, step=1e-3, magnitude_cap=1.0)
    assert at_start.value.time == 0.0


def test_rhs_reads_a_list_a_tuple_and_an_array_alike():
    _, _, sys = _embedding(["-x1 + x2^2", "x1 - sin(x2)"], [(0.0, 1.0), (0.0, 1.0)])
    state = [0.25, 0.5, 0.75, 1.0]
    want = sys.rhs(list(state))
    assert sys.rhs(tuple(state)) == want
    assert sys.rhs(np.array(state)) == want
    assert all(type(v) is float for v in want)


@pytest.mark.parametrize("t_end, steps", [(1.0, 4), (0.9, 4), (0.0, 0)])
def test_each_rk4_step_calls_rhs_four_times(monkeypatch, t_end, steps):
    # step 0.25 divides 1.0; 0.9 takes three steps of 0.25 and a remainder step of 0.15
    _, _, sys = _embedding(["-x1 + x2", "x1 - x2"], [(0.0, 1.0), (0.0, 1.0)])
    calls = []
    rhs = EmbeddingSystem.rhs

    def counted(self, state):
        calls.append(state)
        return rhs(self, state)

    monkeypatch.setattr(EmbeddingSystem, "rhs", counted)
    tube = integrate_embedding(sys, [0.0, 0.0], [1.0, 1.0], t_end, step=0.25)
    assert len(tube.times) == steps + 1
    assert len(calls) == 4 * steps

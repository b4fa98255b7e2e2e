"""Acceptance gate: seven end-to-end checks, one printed verdict line each.

Each test prints ``ACCEPTANCE <k> PASS|FAIL: <what was checked>`` on the real
stdout (bypassing capture) so the verdicts are visible in any pytest run, then
fails normally if anything is off.
"""

import math
import sys

import numpy as np
import pytest

from mixedmono import (BoxDomain, Interval, ScalarFunction, VectorField,
                       bound_box, build_decomposition, build_embedding,
                       eval_decomposition,
                       integrate_embedding, jacobian_bounds, jordan_split,
                       refine_bounds, total_variation, unbounded_split)

from conftest import box_samples, grid_points, make_corpus, ordered_pairs

TWO_PI = 2.0 * math.pi


def _verdict(capfd, num, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capfd.disabled():
        sys.stdout.write(f"\nACCEPTANCE {num} {status}: {label}\n")
        sys.stdout.flush()
    assert not failures, "; ".join(failures)


def _decompose(field, box, slack=1e-9, epsilon=0.0):
    jb = jacobian_bounds(field, box, slack=slack)
    return build_decomposition(jb, epsilon)


def _bv_bracket(text, lo, hi, tol=1e-8):
    f = ScalarFunction.from_string(text, lo, hi)
    split = jordan_split(f, tol)
    return split.g(lo, hi), split.g(hi, lo)


def test_1_linear_example_brackets(capfd):
    failures = []
    field = VectorField.from_strings(["-x1"], 1)
    box = BoxDomain.from_bounds([(0.0, 1.0)])
    spec = _decompose(field, box)
    iv = bound_box(spec, field, box)[0]
    if not (abs(iv.lo - (-1.0)) <= 1e-9 and abs(iv.hi - 0.0) <= 1e-9):
        failures.append(f"derivative-sign bracket [{iv.lo}, {iv.hi}] != [-1, 0]")
    lo, hi = _bv_bracket("-x1", 0.0, 1.0)
    if not (abs(lo - (-2.0)) <= 1e-6 and abs(hi - 1.0) <= 1e-6):
        failures.append(f"variation bracket [{lo}, {hi}] != [-2, 1]")
    _verdict(capfd, 1, "-x on [0,1]: sign bracket [-1,0] @1e-9, variation bracket "
                "[-2,1] @1e-6", failures)


def test_2_square_example_brackets_and_refinement(capfd):
    failures = []
    field = VectorField.from_strings(["x1^2"], 1)
    box = BoxDomain.from_bounds([(-1.0, 1.0)])
    spec = _decompose(field, box, slack=0.0)
    iv = bound_box(spec, field, box)[0]
    if not (abs(iv.lo - (-3.0)) <= 1e-9 and abs(iv.hi - 5.0) <= 1e-9):
        failures.append(f"depth-0 bracket [{iv.lo}, {iv.hi}] != [-3, 5]")
    lo, hi = _bv_bracket("x1^2", -1.0, 1.0)
    if not (abs(lo - (-1.0)) <= 1e-6 and abs(hi - 3.0) <= 1e-6):
        failures.append(f"variation bracket [{lo}, {hi}] != [-1, 3]")
    ref = refine_bounds(field, box, depth=1, slack=0.0)[0]
    if not (abs(ref.lo - 0.0) <= 1e-9 and abs(ref.hi - 1.0) <= 1e-9):
        failures.append(f"depth-1 bracket [{ref.lo}, {ref.hi}] != [0, 1]")
    _verdict(capfd, 2, "x^2 on [-1,1]: sign bracket [-3,5] @1e-9, variation bracket "
                "[-1,3] @1e-6, depth-1 [0,1] @1e-9", failures)


def test_3_decomposition_axioms_on_corpus(capfd):
    failures = []
    rng = np.random.default_rng(20240817)
    slack = 1e-9
    for entry in make_corpus():
        spec = _decompose(entry.field, entry.box)
        pts = box_samples(entry.box, rng, 1000)
        worst = max(np.max(np.abs(np.asarray(eval_decomposition(spec, entry.field, p, p))
                                  - entry.field.evaluate(p))) for p in pts)
        if worst > 1e-9:
            failures.append(f"{entry.name}: diagonal gap {worst:.3g} > 1e-9")
        p, q = ordered_pairs(entry.box, rng, 1000)
        other = box_samples(entry.box, rng, 1000)
        bad_x = bad_y = 0.0
        for k in range(1000):
            g_lo = np.asarray(eval_decomposition(spec, entry.field, p[k], other[k]))
            g_hi = np.asarray(eval_decomposition(spec, entry.field, q[k], other[k]))
            bad_x = max(bad_x, float(np.max(g_lo - g_hi)))
            g_big = np.asarray(eval_decomposition(spec, entry.field, other[k], p[k]))
            g_sml = np.asarray(eval_decomposition(spec, entry.field, other[k], q[k]))
            bad_y = max(bad_y, float(np.max(g_sml - g_big)))
        if bad_x > slack:
            failures.append(f"{entry.name}: first-argument growth violated by {bad_x:.3g}")
        if bad_y > slack:
            failures.append(f"{entry.name}: second-argument decay violated by {bad_y:.3g}")
    _verdict(capfd, 3, "corpus of 5 fields, 1000 ordered pairs each: diagonal equality "
                "@1e-9, argumentwise monotonicity @1e-9 slack", failures)


def test_4_bounds_contain_grid_extrema_and_tighten(capfd):
    failures = []
    for entry in make_corpus():
        spec = _decompose(entry.field, entry.box)
        flat = bound_box(spec, entry.field, entry.box)
        deep = refine_bounds(entry.field, entry.box, depth=2)
        pts = grid_points(entry.box, 10_000)
        vals = np.array([entry.field.evaluate(p) for p in pts])
        grid_lo, grid_hi = vals.min(axis=0), vals.max(axis=0)
        for tag, bounds in (("depth-0", flat), ("depth-2", deep)):
            for i, iv in enumerate(bounds):
                margin = min(grid_lo[i] - iv.lo, iv.hi - grid_hi[i])
                if margin < -1e-9:
                    failures.append(f"{entry.name} f{i + 1} {tag}: grid point escapes "
                                    f"by {-margin:.3g}")
        if entry.sign_stable:
            corners = grid_points(entry.box, 2 ** entry.box.n)
            cv = np.array([entry.field.evaluate(c) for c in corners])
            for i, iv in enumerate(flat):
                gap = max(abs(iv.lo - cv[:, i].min()), abs(iv.hi - cv[:, i].max()))
                if gap > 1e-9:
                    failures.append(f"{entry.name} f{i + 1}: endpoints miss corner "
                                    f"values by {gap:.3g}")
    _verdict(capfd, 4, "corpus bounds contain 10^4-point grid ranges @-1e-9 margin; "
                "sign-stable members tight to corner values @1e-9", failures)


def test_5_total_variation_value_additivity_split(capfd):
    failures = []
    tol = 1e-8
    f = ScalarFunction.from_string("sin(x1)", 0.0, TWO_PI)

    # independent oracle: Gauss-Legendre quadrature of |cos| per sign-stable piece
    nodes, weights = np.polynomial.legendre.leggauss(40)
    oracle = 0.0
    for a, b in ((0.0, 0.5 * math.pi), (0.5 * math.pi, 1.5 * math.pi),
                 (1.5 * math.pi, TWO_PI)):
        half = 0.5 * (b - a)
        oracle += half * float(np.sum(weights * np.abs(np.cos(a + half * (nodes + 1.0)))))
    if abs(oracle - 4.0) > 1e-12:
        failures.append(f"quadrature oracle {oracle!r} is off")
    tv = total_variation(f, Interval(0.0, TWO_PI), tol)
    if abs(tv - oracle) > 1e-6:
        failures.append(f"TV(sin) = {tv!r} differs from oracle {oracle!r}")

    rng = np.random.default_rng(20240817)
    for c in rng.uniform(0.0, TWO_PI, 20):
        parts = (total_variation(f, Interval(0.0, float(c)), tol)
                 + total_variation(f, Interval(float(c), TWO_PI), tol))
        if abs(parts - tv) > 3.0 * tol:
            failures.append(f"additivity gap {abs(parts - tv):.3g} at split {c:.6f}")
            break

    split = jordan_split(f, tol)
    xs = np.linspace(0.0, TWO_PI, 1000)
    up = np.array([split.fplus(x) for x in xs])
    dn = np.array([split.fminus(x) for x in xs])
    if np.diff(up).min() < -1e-9:
        failures.append(f"increasing part dips by {-np.diff(up).min():.3g}")
    if np.diff(dn).max() > 1e-9:
        failures.append(f"decreasing part rises by {np.diff(dn).max():.3g}")
    _verdict(capfd, 5, "TV(sin on [0,2pi]) = 4 vs quadrature oracle @1e-6, additivity "
                "@3tol over 20 splits, monotone halves on a 1000-point grid", failures)


def test_6_reach_tube_linear_decay(capfd):
    failures = []
    field = VectorField.from_strings(["-x1"], 1)
    spec = _decompose(field, BoxDomain.from_bounds([(0.0, 1.0)]))
    system = build_embedding(field, spec)

    tube = integrate_embedding(system, [0.0], [1.0], t_end=1.0, step=1e-3)
    _, lo, hi = tube.final()
    if abs(lo[0] - (-math.sinh(1.0))) > 1e-6:
        failures.append(f"lower edge {lo[0]!r} != -sinh(1)")
    if abs(hi[0] - math.cosh(1.0)) > 1e-6:
        failures.append(f"upper edge {hi[0]!r} != cosh(1)")

    point = integrate_embedding(system, [1.0], [1.0], t_end=1.0, step=1e-3)
    _, plo, phi = point.final()
    if not np.array_equal(point.lower, point.upper):
        failures.append("degenerate box split apart")
    if abs(plo[0] - math.exp(-1.0)) > 1e-6:
        failures.append(f"degenerate run {plo[0]!r} != exp(-1)")

    rng = np.random.default_rng(20240817)
    starts = rng.uniform(0.0, 1.0, 100)
    flows = np.outer(np.exp(-np.asarray(tube.times)), starts)  # closed form x0 * e^{-t}
    low = np.asarray(tube.lower)[:, 0][:, None] - 1e-6
    high = np.asarray(tube.upper)[:, 0][:, None] + 1e-6
    if not np.all((flows >= low) & (flows <= high)):
        failures.append("a sampled trajectory leaves the tube")
    _verdict(capfd, 6, "dx/dt = -x from [0,1]: edges (-sinh 1, cosh 1) @1e-6 at step "
                "1e-3, degenerate box -> exp(-1) @1e-6, 100 sampled "
                "trajectories stay inside +1e-6", failures)


def test_7_whole_line_construction_for_x_sin_x(capfd):
    failures = []
    tol = 1e-8
    slack = 10.0 * tol
    f = ScalarFunction.on_reals("x1*sin(x1)")
    split = unbounded_split(f, tol)
    total_variation(f, Interval(-10.0, 10.0), tol)  # warm the profile hull

    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-10.0, 10.0, 1000)
    diag = max(abs(split.g1(x) + split.g2(x) + split.f_base - f(x)) for x in xs)
    if diag > slack:
        failures.append(f"diagonal gap {diag:.3g} > {slack:.1e}")

    a = rng.uniform(-10.0, 10.0, 1000)
    b = rng.uniform(-10.0, 10.0, 1000)
    p, q = np.minimum(a, b), np.maximum(a, b)
    bad1 = max(split.g1(p[k]) - split.g1(q[k]) for k in range(1000))
    bad2 = max(split.g2(q[k]) - split.g2(p[k]) for k in range(1000))
    if bad1 > slack:
        failures.append(f"first part dips by {bad1:.3g}")
    if bad2 > slack:
        failures.append(f"second part rises by {bad2:.3g}")

    for d in (0.5, 1.0, 2.0, 5.0, 10.0):
        if not (split.g1(-d) <= slack and split.g1(d) >= -slack):
            failures.append(f"first part signs wrong around 0 at {d}")
        if not (split.g2(-d) >= -slack and split.g2(d) <= slack):
            failures.append(f"second part signs wrong around 0 at {d}")
    _verdict(capfd, 7, "x*sin(x) on the whole line: split axioms on 1000 pairs over "
                "[-10,10] @10tol, part signs flip across the base point", failures)

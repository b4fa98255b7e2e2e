"""Properties over generated expression trees: the compiled point and interval
evaluators, the decomposition kernel, the RK4 of the embedding, the bisection
of refine_bounds, and the total variation and Jordan split of scalar functions."""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mixedmono import (Binary, BlowupError, BoxDomain, Const, DecompositionSpec, DimensionError,
                       EmbeddingSystem, EvalError, Interval, InvalidBoundsError,
                       NonConvergenceError, Power, ReachTube, ScalarFunction,
                       UnboundedDerivativeError, Unary, Var, VectorField, bound_box,
                       build_decomposition, embed, eval_decomposition, eval_interval, evaluate,
                       integrate_embedding, jacobian_bounds, jordan_split, refine_bounds,
                       total_variation)
from mixedmono.expr import compile_expr
from mixedmono.interval import (iv_abs, iv_add, iv_cos, iv_div, iv_exp, iv_max, iv_min, iv_mul,
                                iv_neg, iv_power, iv_sign, iv_sin, iv_step, iv_sub)

N = 3
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_constants = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
                       st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
# the sampled extremes reach exp and power overflow and infinite products
_coords = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0),
                    st.floats(-1e3, 1e3), st.sampled_from([710.0, -710.0, 1e155, 1e-160]))


def _trees(n):
    leaves = st.one_of(_constants.map(Const), st.integers(1, n).map(Var))

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "abs", "sign", "step"]),
                      children),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div", "min", "max"]),
                      children, children),
            st.builds(Power, children, st.integers(-3, 4)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_TREES = {n: _trees(n) for n in range(1, N + 1)}


# -- reference fold --------------------------------------------------------------

def _finite(*values):
    """Raise where a value that a later node could map to a finite one is not finite."""
    if not all(map(math.isfinite, values)):
        raise EvalError("non-finite operand")


def _fold(e, p):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(p):
            raise DimensionError("short point")
        return p[e.index - 1]
    if isinstance(e, Power):
        b = _fold(e.base, p)
        if e.exponent <= 0:
            _finite(b)
        try:
            return b ** e.exponent
        except (ZeroDivisionError, OverflowError):
            raise EvalError("power") from None
    if isinstance(e, Unary):
        u = _fold(e.arg, p)
        if e.op in ("exp", "sign", "step"):
            _finite(u)
        if e.op == "exp":
            try:
                return math.exp(u)
            except OverflowError:
                raise EvalError("exp") from None
        if e.op == "sign":
            return 0.0 if u == 0.0 else math.copysign(1.0, u)
        if e.op == "step":
            return 1.0 if u > 0.0 else (0.5 if u == 0.0 else 0.0)
        if e.op in ("sin", "cos") and math.isinf(u):
            raise EvalError(e.op)  # where math.sin and math.cos raise ValueError
        return {"neg": lambda: -u, "sin": lambda: math.sin(u), "cos": lambda: math.cos(u),
                "abs": lambda: abs(u)}[e.op]()
    a = _fold(e.left, p)
    b = _fold(e.right, p)
    if e.op == "div":
        if b == 0.0:
            raise EvalError("division")
        _finite(b)
        return a / b
    if e.op in ("min", "max"):
        _finite(a, b)
    return {"add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
            "min": lambda: min(a, b), "max": lambda: max(a, b)}[e.op]()


def _reference(e, p):
    v = _fold(e, p)
    if not math.isfinite(v):
        raise EvalError("non-finite value")
    return v


def _outcome(fn, *args):
    """('value', exact text of every float) or ('error', class name)."""
    try:
        v = fn(*args)
    except Exception as exc:  # the class is what is compared
        return ("error", type(exc).__name__)
    return ("value", tuple(repr(float(x)) for x in np.atleast_1d(v)))


@settings(PROPERTY, max_examples=500)
@given(_TREES[N], st.lists(_coords, min_size=1, max_size=N))
@example(Unary("exp", Var(1)), [710.0])
@example(Power(Var(1), 3), [1e155])
@example(Binary("div", Var(1), Var(2)), [0.0, 0.0])
@example(Binary("mul", Var(1), Var(1)), [1e200])
@example(Binary("min", Const(0.0), Unary("neg", Var(1))), [0.0])
@example(Binary("max", Unary("neg", Var(1)), Const(0.0)), [0.0])
@example(Binary("min", Unary("neg", Var(1)), Const(0.0)), [0.0])
@example(Binary("max", Const(0.0), Unary("neg", Var(1))), [0.0])
@example(Unary("cos", Binary("mul", Var(1), Var(1))), [1e155])
# the first failing node raises: the division before the missing x3, and
# the missing x3 before the division
@example(Binary("add", Binary("div", Const(1.0), Const(0.0)), Var(3)), [1.0])
@example(Binary("add", Var(3), Binary("div", Const(1.0), Const(0.0))), [1.0])
# a later node maps the overflow x1*x1 = inf, or inf - inf = nan, to a finite value
@example(Unary("sign", Binary("sub", Binary("mul", Var(1), Var(1)),
                              Binary("mul", Var(1), Var(1)))), [1e155])
@example(Unary("step", Binary("mul", Var(1), Var(1))), [1e155])
@example(Binary("min", Const(1.0), Binary("mul", Var(1), Var(1))), [1e155])
@example(Binary("max", Binary("mul", Var(1), Var(1)), Const(1.0)), [-1e155])
@example(Binary("div", Const(1.0), Binary("mul", Var(1), Var(1))), [1e155])
@example(Power(Binary("mul", Var(1), Var(1)), -1), [1e155])
@example(Power(Binary("mul", Var(1), Var(1)), 0), [1e155])
@example(Unary("exp", Unary("neg", Binary("mul", Var(1), Var(1)))), [1e155])
def test_compiled_evaluation_matches_reference_fold(e, point):
    want = _outcome(_reference, e, point)
    assert _outcome(compile_expr(e), point) == want
    assert _outcome(VectorField(N, (e,)).compiled[0], point) == want


def test_compiled_evaluation_of_deep_trees():
    # deeper than the nesting the Python parser accepts in one expression
    total = Var(1)
    for k in range(399):
        total = Binary("add", total, Var(2) if k % 3 else Const(0.25 * k))
    waves = Var(1)
    for _ in range(300):
        waves = Unary("sin", waves)
    for e in (total, waves, Binary("mul", total, waves)):
        for point in ([0.5, -1.5], [3.0, 1e-3], [2.0]):
            assert _outcome(compile_expr(e), point) == _outcome(_reference, e, point)


# -- decomposition kernel ------------------------------------------------------------

@st.composite
def _decomposed_fields(draw):
    n = draw(st.integers(1, N))
    field = VectorField(n, tuple(draw(_TREES[n]) for _ in range(n)))
    firsts = st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)
    offsets = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=n, max_size=n)
    spec = DecompositionSpec(tuple(
        (draw(firsts), tuple((j, c) for j, c in enumerate(draw(offsets)) if c != 0.0))
        for _ in range(n)))
    x = draw(st.lists(_coords, min_size=n, max_size=n))
    y = draw(st.lists(_coords, min_size=n, max_size=n))
    return field, spec, x, y


@PROPERTY
@given(_decomposed_fields())
# f_i and the offset sum are both zero: -0.0 + 0.0 is 0.0 in each half, where
# an offset subtracted for g(y, x), or a sum not started at 0.0, gives -0.0
@example((VectorField(1, (Unary("neg", Var(1)),)),
          DecompositionSpec((((True,), ((0, 2.0),)),)), [0.0], [0.0]))
@example((VectorField(1, (Var(1),)),
          DecompositionSpec((((True,), ((0, 2.0),)),)), [-0.0], [0.0]))
def test_embedding_rhs_is_both_decompositions_bit_for_bit(case):
    # both halves of rhs against the fold of the definition; _outcome compares
    # repr, so the sign of a zero counts
    f, spec, x, y = case
    system = EmbeddingSystem(f, spec)

    def stacked():
        return _g_reference(spec, f, x, y) + _g_reference(spec, f, y, x)

    assert _outcome(system.rhs, np.array(x + y)) == _outcome(stacked)


def _g_reference(spec, f, x, y):
    """f_i(z) + c_i . (x - y), summed over every j in index order, c_ij = 0
    where row i has no term j."""
    out = []
    for comp, (first, terms) in zip(f.components, spec.rows):
        z = [xj if use_x else yj for xj, yj, use_x in zip(x, y, first)]
        c = dict(terms)
        off = 0.0
        for j in range(f.n):
            off += c.get(j, 0.0) * (x[j] - y[j])
        out.append(_reference(comp, z) + off)
    return out


def _rk4_reference(system, lo, hi, t_end, step, cap):
    """The array form of the RK4 loop over system.rhs: (times, lower, upper).

    t_end is a whole number of steps.
    """
    def rhs(s):
        return np.array(system.rhs(s))

    def check(s, t):
        if not np.all(np.isfinite(s)) or np.any(np.abs(s) > cap):
            raise BlowupError(t)

    state = np.array(lo + hi, dtype=float)
    check(state, 0.0)
    times, states = [0.0], [state]
    with np.errstate(all="ignore"):
        for k in range(round(t_end / step)):
            t = (k + 1) * step
            try:
                k1 = rhs(state)
                k2 = rhs(state + 0.5 * step * k1)
                k3 = rhs(state + 0.5 * step * k2)
                k4 = rhs(state + step * k3)
            except EvalError:
                raise BlowupError(t) from None
            state = state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            check(state, t)
            times.append(t)
            states.append(state)
    states = np.array(states)
    n = len(lo)
    return np.array(times), states[:, :n], states[:, n:]


def _tube_outcome(fn, *args):
    """('tube', exact text of every time and bound), ('blowup', time) or ('error', class)."""
    try:
        v = fn(*args)
    except BlowupError as exc:
        return ("blowup", repr(exc.time))
    except Exception as exc:  # the class is what is compared
        return ("error", type(exc).__name__)
    if isinstance(v, ReachTube):
        v = (v.times, v.lower, v.upper)
    return ("tube", tuple(repr(float(x)) for a in v for x in np.ravel(a)))


@PROPERTY
@given(_decomposed_fields(), st.sampled_from([0.05, 0.1, 0.25, 0.5]), st.integers(0, 6),
       st.sampled_from([1e12, 1e3, 10.0]))
def test_rk4_on_float_lists_matches_array_form(case, step, steps, cap):
    f, spec, x, y = case
    system = EmbeddingSystem(f, spec)
    lo = [min(a, b) for a, b in zip(x, y)]
    hi = [max(a, b) for a, b in zip(x, y)]
    t_end = steps * step
    with patch.object(embed, "MAGNITUDE_CAP", cap):
        got = _tube_outcome(integrate_embedding, system, lo, hi, t_end, step)
    assert got == _tube_outcome(_rk4_reference, system, lo, hi, t_end, step, cap)


@PROPERTY
@given(_decomposed_fields())
def test_decomposition_matches_its_definition(case):
    f, spec, x, y = case
    assert _outcome(eval_decomposition, spec, f, x, y) == _outcome(_g_reference, spec, f, x, y)


@PROPERTY
@given(_decomposed_fields())
def test_decomposition_agrees_with_field_on_diagonal(case):
    f, spec, x, _ = case
    g = _outcome(eval_decomposition, spec, f, x, x)
    fx = _outcome(f.evaluate, x)
    if g[0] == "value" and fx[0] == "value":
        assert [float(v) for v in g[1]] == [float(v) for v in fx[1]]  # -0.0 == 0.0
    else:
        assert g == fx


# -- interval evaluation -----------------------------------------------------------------

_IV_UNARY = {"neg": iv_neg, "sin": iv_sin, "cos": iv_cos, "exp": iv_exp, "abs": iv_abs,
             "sign": iv_sign, "step": iv_step}
_IV_BINARY = {"add": iv_add, "sub": iv_sub, "mul": iv_mul, "div": iv_div, "min": iv_min,
              "max": iv_max}


def _ifold(e, box):
    """The natural interval extension of e, the range rules folded over the tree
    one node at a time: the endpoints (lo, hi) of its enclosure."""
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Var):
        if e.index > box.n:
            raise DimensionError("short box")
        return box[e.index - 1].lo, box[e.index - 1].hi
    if isinstance(e, Power):
        return iv_power(*_ifold(e.base, box), e.exponent)
    if isinstance(e, Unary):
        lo, hi = _ifold(e.arg, box)
        if e.op == "jump":  # a nonnegative mass where u can vanish
            return 0.0, math.inf if lo <= 0.0 <= hi else 0.0
        return _IV_UNARY[e.op](lo, hi)
    a = _ifold(e.left, box)
    return _IV_BINARY[e.op](*a, *_ifold(e.right, box))


def _endpoints(fn, *args):
    """('value', exact text of every endpoint) or ('error', class name)."""
    try:
        v = fn(*args)
    except Exception as exc:  # the class is what is compared
        return ("error", type(exc).__name__)
    pairs = v if isinstance(v, list) else [v]
    return ("value", tuple(repr(float(x)) for iv in pairs
                           for x in ((iv.lo, iv.hi) if isinstance(iv, Interval) else iv)))


@st.composite
def _boxes(draw, n):
    bounds = [sorted(draw(st.lists(_coords, min_size=2, max_size=2))) for _ in range(n)]
    return BoxDomain.from_bounds(bounds)


@settings(PROPERTY, max_examples=250)
@given(_TREES[N], st.integers(1, N).flatmap(_boxes))
@example(Binary("mul", Var(1), Var(1)), BoxDomain.from_bounds([(1e200, 1e200)]))
@example(Binary("div", Const(1.0), Var(1)), BoxDomain.from_bounds([(1e-320, 1e-310)]))
@example(Power(Var(1), -2), BoxDomain.from_bounds([(-1.0, 0.0)]))
@example(Binary("mul", Const(0.0), Binary("div", Const(1.0), Var(1))),
         BoxDomain.from_bounds([(0.0, 1.0)]))
@example(Binary("add", Var(3), Binary("mul", Var(1), Var(1))),  # left operand fails first
         BoxDomain.from_bounds([(1e200, 1e200)]))
def test_compiled_interval_matches_interval_fold(e, box):
    assert _endpoints(eval_interval, e, box) == _endpoints(_ifold, e, box)


def _enclosure_or_line(e, box):
    """_ifold's endpoints, or the whole line where a range is no interval."""
    try:
        return _ifold(e, box)
    except ValueError:
        return -math.inf, math.inf


@st.composite
def _bounded_fields(draw):
    n = draw(st.integers(1, N))
    m = draw(st.integers(1, 2))
    return VectorField(n, tuple(draw(_TREES[n]) for _ in range(m))), draw(_boxes(n))


@settings(PROPERTY, max_examples=150)
@given(_bounded_fields())
# df1/dx3 = (x1*x2)*(x1*x2) overflows to [inf, inf], while the entries
# after it read its operand x1*x2 and stay bounded
@example((VectorField.from_strings(["(x1*x2)*(x1*x2)*x3", "sin(x1*x2)"], 3),
          BoxDomain.from_bounds([(1e100, 1e100), (1e100, 1e100), (0.0, 1.0)])))
def test_jacobian_ranges_match_interval_fold(case):
    f, box = case
    ranges = f.jacobian_ranges(box.lower_corner(), box.upper_corner(), 0.0)
    assert [len(row) for row in ranges] == [f.n] * f.m
    got = [tuple(map(repr, pair)) for row in ranges for pair in row]
    expected = [tuple(map(repr, _enclosure_or_line(d, box))) for row in f.jacobian for d in row]
    assert got == expected


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N)


def _in_box(box, ts):
    return [min(max(b.lo + t * (b.hi - b.lo), b.lo), b.hi) for b, t in zip(box.intervals, ts)]


@settings(PROPERTY, max_examples=200)
@given(_TREES[N], _boxes(N), st.lists(_FRACTIONS, min_size=1, max_size=4))
def test_eval_interval_contains_evaluate(e, box, fractions):
    try:
        iv = eval_interval(e, box)
    except ValueError:
        return  # a range overflowed to [inf, inf]: no enclosure, so nothing to contain
    for ts in fractions:
        p = _in_box(box, ts)
        try:
            v = evaluate(e, p)
        except EvalError:
            continue
        assert iv.lo <= v <= iv.hi, (p, v, iv)


# -- refine_bounds -------------------------------------------------------------------

def _refine_reference(f, box, depth, epsilon, slack):
    """The bisection over the public layers, one Interval at a time, with its
    own split, hull and intersection on endpoints."""
    parent = bound_box(build_decomposition(jacobian_bounds(f, box, slack=slack), epsilon), f, box)
    if depth == 0:
        return parent
    widths = box.widths()
    k = widths.index(max(widths))  # the widest axis; ties go to the lowest index
    if widths[k] == 0.0:
        return parent
    split = box[k]
    mid = 0.5 * (split.lo + split.hi)
    children = []
    for half in (Interval(split.lo, mid), Interval(mid, split.hi)):
        child = BoxDomain(box.intervals[:k] + (half,) + box.intervals[k + 1:])
        try:
            children.append(_refine_reference(f, child, depth - 1, epsilon, slack))
        except UnboundedDerivativeError:
            children.append(parent)
    # the children's hull intersected with the parent; Interval rejects a disjoint pair
    return [Interval(max(min(a.lo, b.lo), p.lo), min(max(a.hi, b.hi), p.hi))
            for a, b, p in zip(*children, parent)]


_EPSILONS = st.sampled_from([0.0, 0.25])
# with no slack, any constant derivative is a point enclosure
_SLACKS = st.sampled_from([1e-9, 1e-9, 1e-9, 0.0])


@settings(PROPERTY, max_examples=120)
@given(_bounded_fields(), st.integers(0, 3), _EPSILONS, _SLACKS)
@example((VectorField.from_strings(["x1*x2"], 2),  # the children's hull leaves the parent
          BoxDomain.from_bounds([(0.0, 1.0), (-2.0, 1.0)])), 1, 0.0, 1e-9)
def test_refine_bounds_matches_reference_bisection(case, depth, epsilon, slack):
    f, box = case
    assert (_endpoints(refine_bounds, f, box, depth, epsilon, slack)
            == _endpoints(_refine_reference, f, box, depth, epsilon, slack))


def _jump_field(text):
    return VectorField.from_strings([text], 1), BoxDomain.from_bounds([(-1.0, 1.0)])


@settings(PROPERTY, max_examples=100)
@given(_bounded_fields(), st.integers(0, 3), _EPSILONS, st.lists(_FRACTIONS, min_size=1,
                                                                 max_size=4))
# jumps inside the box: of both signs (no bracket), and one falling jump
@example(_jump_field("step(x1) - step(x1-0.5)"), 0, 0.0, [[0.6, 0.0, 0.0]])
@example(_jump_field("sign(x1)*sign(x1-0.5)"), 0, 0.0, [[0.6, 0.0, 0.0]])
@example(_jump_field("step(-x1)"), 2, 0.0, [[0.25, 0.0, 0.0], [0.75, 0.0, 0.0]])
def test_refine_bounds_contains_field(case, depth, epsilon, fractions):
    f, box = case
    try:
        bounds = refine_bounds(f, box, depth, epsilon)
    except (UnboundedDerivativeError, InvalidBoundsError, EvalError, ValueError):
        # no bracket printed, so nothing to contain
        return
    for ts in fractions:
        p = _in_box(box, ts)
        try:
            values = f.evaluate(p)
        except EvalError:
            continue
        for iv, v in zip(bounds, values):
            assert iv.lo <= v <= iv.hi, (p, v, iv)


# g is monotone in exact arithmetic; its float evaluation may round the two
# sides of a comparison apart by a few ulps of the larger
_MONOTONE_ULPS = 4


@settings(PROPERTY, max_examples=150)
@given(_bounded_fields(), _EPSILONS, st.lists(_FRACTIONS, min_size=4, max_size=4))
def test_decomposition_is_monotone_on_its_box(case, epsilon, fractions):
    f, box = case
    try:
        spec = build_decomposition(jacobian_bounds(f, box), epsilon)
    except (UnboundedDerivativeError, InvalidBoundsError):
        return  # no decomposition, so nothing to order
    a, b, c, d = (_in_box(box, ts) for ts in fractions)
    low, high = [min(u, v) for u, v in zip(a, b)], [max(u, v) for u, v in zip(a, b)]
    ylow, yhigh = [min(u, v) for u, v in zip(c, d)], [max(u, v) for u, v in zip(c, d)]
    # nondecreasing in x at y = c, and nonincreasing in y at x = a
    for smaller, larger in (((low, c), (high, c)), ((a, yhigh), (a, ylow))):
        try:
            gs, gl = eval_decomposition(spec, f, *smaller), eval_decomposition(spec, f, *larger)
        except EvalError:
            continue
        for u, v in zip(gs, gl):
            assert u <= v + _MONOTONE_ULPS * math.ulp(max(abs(u), abs(v))), (smaller, larger, u, v)


# -- Jordan split of kink functions ----------------------------------------------------

_SPLIT_CELLS = 256  # a small partition cap keeps each example cheap


@settings(PROPERTY, max_examples=100)
@given(_TREES[1], st.floats(-4.0, 4.0), st.floats(1e-3, 4.0), st.integers(1, 5),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_kink_split_reads_one_partition(e, lo, width, k, fractions):
    hi = lo + width
    f = ScalarFunction(e, Interval(lo, hi))
    try:
        split = jordan_split(f, 1e-8, _SPLIT_CELLS)
        assert split.fplus(lo) == 0.0
        assert split.fplus(hi) == total_variation(f, f.domain, 1e-8, _SPLIT_CELLS)
        # the partition starts from 32 equal cells, so these 2^k + 1
        # points (k <= 5) are among its nodes
        plus = [split.fplus(x) for x in np.linspace(lo, hi, 2 ** k + 1)]
        assert all(a <= b for a, b in zip(plus, plus[1:])), plus
        f_lo = f(lo)
        for t in fractions:
            x = min(lo + t * width, hi)
            p = split.fplus(x)
            # f+(x) sums |Δf| over a partition of [lo, x]; the rounding of
            # that sum may leave it a few ulps short of the one difference
            assert p >= abs(f(x) - f_lo) * (1.0 - 1e-12), (x, p, f(x), f_lo)
    except (NonConvergenceError, EvalError, ValueError):
        return


@settings(PROPERTY, max_examples=100)
@given(_TREES[1], st.floats(-4.0, 4.0), st.floats(1e-3, 4.0))
# a kink at 0.3, inside a start cell, where the enclosure of f'' is two-signed
@example(Unary("abs", Binary("sub", Power(Var(1), 2), Const(0.09))), 0.0, 1.0)
def test_variation_is_no_less_than_a_grid_sum(e, lo, width):
    # every partition sum is at most the variation, and the certified
    # partition's sum is within tol of it
    hi = lo + width
    f = ScalarFunction(e, Interval(lo, hi))
    try:
        tv = total_variation(f, f.domain, 1e-8, _SPLIT_CELLS)
        values = [f(x) for x in np.linspace(lo, hi, 65)]
    except (NonConvergenceError, EvalError, ValueError):
        return
    grid = math.fsum(abs(v - u) for u, v in zip(values, values[1:]))
    assert tv >= grid - 1e-8, (tv, grid)

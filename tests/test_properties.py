"""Properties over generated expression trees: the compiled point and interval
evaluators, the decomposition kernel, the bisection of refine_bounds and the
Jordan split of kink functions."""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from mixedmono import (Binary, BoxDomain, Const, DecompositionSpec, DimensionError, EvalError,
                       Interval, InvalidBoundsError, NonConvergenceError, Power, ScalarFunction,
                       UnboundedDerivativeError, Unary, Var, VectorField, bound_box,
                       build_decomposition, build_embedding, eval_decomposition, eval_interval,
                       evaluate, hull, intersect, jacobian_bounds, jordan_split, refine_bounds,
                       total_variation)
from mixedmono.expr import compile_expr, is_smooth, lower_interval

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

def _fold(e, p):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(p):
            raise DimensionError("short point")
        return p[e.index - 1]
    if isinstance(e, Power):
        b = _fold(e.base, p)
        try:
            return b ** e.exponent
        except (ZeroDivisionError, OverflowError):
            raise EvalError("power") from None
    if isinstance(e, Unary):
        u = _fold(e.arg, p)
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
        return a / b
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
@example(Unary("cos", Binary("mul", Var(1), Var(1))), [1e155])
def test_compiled_evaluation_matches_reference_fold(e, point):
    assert _outcome(compile_expr(e), point) == _outcome(_reference, e, point)


# -- decomposition kernel ------------------------------------------------------------

@st.composite
def _decomposed_fields(draw):
    n = draw(st.integers(1, N))
    field = VectorField(n, tuple(draw(_TREES[n]) for _ in range(n)))
    flags = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    offsets = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n * n,
                       max_size=n * n)
    spec = DecompositionSpec(np.reshape(draw(flags), (n, n)),
                             np.reshape(draw(offsets), (n, n)),
                             -np.reshape(draw(offsets), (n, n)), 0.0)
    x = draw(st.lists(_coords, min_size=n, max_size=n))
    y = draw(st.lists(_coords, min_size=n, max_size=n))
    return field, spec, x, y


@PROPERTY
@given(_decomposed_fields())
def test_embedding_rhs_is_both_decompositions_bit_for_bit(case):
    f, spec, x, y = case
    system = build_embedding(f, spec)

    def stacked():
        return np.concatenate([eval_decomposition(spec, f, x, y),
                               eval_decomposition(spec, f, y, x)])

    assert _outcome(system.rhs, np.array(x + y)) == _outcome(stacked)


def _g_reference(spec, f, x, y):
    """f_i(z) + (alpha_i - beta_i) . (x - y), summed in index order."""
    out = []
    for i, comp in enumerate(f.components):
        z = [xj if first else yj for xj, yj, first in zip(x, y, spec.use_first[i])]
        off = 0.0
        for j in range(f.n):
            off += float(spec.alpha[i, j] - spec.beta[i, j]) * (x[j] - y[j])
        out.append(_reference(comp, z) + off)
    return out


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

def _ifold(e, box):
    """The natural interval extension of e, folded over the Interval methods."""
    if isinstance(e, Const):
        return Interval.point(e.value)
    if isinstance(e, Var):
        if e.index > box.n:
            raise DimensionError("short box")
        return box[e.index - 1]
    if isinstance(e, Power):
        return _ifold(e.base, box).power(e.exponent)
    if isinstance(e, Unary):
        u = _ifold(e.arg, box)
        return {"neg": u.__neg__, "sin": u.sin, "cos": u.cos, "exp": u.exp, "abs": u.abs,
                "sign": u.sign, "step": u.step}[e.op]()
    a = _ifold(e.left, box)
    b = _ifold(e.right, box)
    return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.__truediv__,
            "min": a.min_with, "max": a.max_with}[e.op](b)


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
    lo = box.lower_corner().tolist()
    hi = box.upper_corner().tolist()
    expected = _endpoints(_ifold, e, box)
    assert _endpoints(lower_interval(e), lo, hi) == expected


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N)


@settings(PROPERTY, max_examples=200)
@given(_TREES[N], _boxes(N), st.lists(_FRACTIONS, min_size=1, max_size=4))
def test_eval_interval_contains_evaluate(e, box, fractions):
    try:
        iv = eval_interval(e, box)
    except ValueError:
        return  # a range overflowed to [inf, inf]: no enclosure, so nothing to contain
    for ts in fractions:
        p = [min(max(b.lo + t * (b.hi - b.lo), b.lo), b.hi) for b, t in zip(box.intervals, ts)]
        try:
            v = evaluate(e, p)
        except EvalError:
            continue
        assert iv.lo <= v <= iv.hi, (p, v, iv)


# -- refine_bounds -------------------------------------------------------------------

def _refine_reference(f, box, depth, epsilon, slack):
    """The bisection over the public layers, one Interval at a time."""
    parent = bound_box(build_decomposition(jacobian_bounds(f, box, slack=slack), epsilon), f, box)
    if depth == 0:
        return parent
    axis = box.widest_axis()
    if box[axis - 1].width == 0.0:
        return parent
    children = []
    for half in box.split(axis):
        try:
            children.append(_refine_reference(f, half, depth - 1, epsilon, slack))
        except UnboundedDerivativeError:
            children.append(parent)
    return [intersect(hull(a, b), p) for a, b, p in zip(*children, parent)]


@st.composite
def _bounded_fields(draw):
    n = draw(st.integers(1, N))
    m = draw(st.integers(1, 2))
    return VectorField(n, tuple(draw(_TREES[n]) for _ in range(m))), draw(_boxes(n))


_EPSILONS = st.sampled_from([0.0, 0.25])
# with no slack, any constant derivative is a degenerate enclosure (InvalidBoundsError)
_SLACKS = st.sampled_from([1e-9, 1e-9, 1e-9, 0.0])


@settings(PROPERTY, max_examples=120)
@given(_bounded_fields(), st.integers(0, 3), _EPSILONS, _SLACKS)
@example((VectorField.from_strings(["x1*x2"], 2),  # the children's hull leaves the parent
          BoxDomain.from_bounds([(0.0, 1.0), (-2.0, 1.0)])), 1, 0.0, 1e-9)
def test_refine_bounds_matches_reference_bisection(case, depth, epsilon, slack):
    f, box = case
    assert (_endpoints(refine_bounds, f, box, depth, epsilon, slack)
            == _endpoints(_refine_reference, f, box, depth, epsilon, slack))


@settings(PROPERTY, max_examples=100)
@given(_bounded_fields(), st.integers(0, 3), _EPSILONS, st.lists(_FRACTIONS, min_size=1,
                                                                 max_size=4))
def test_refine_bounds_contains_field(case, depth, epsilon, fractions):
    f, box = case
    try:
        bounds = refine_bounds(f, box, depth, epsilon)
    except (UnboundedDerivativeError, InvalidBoundsError, EvalError, ValueError):
        # no bracket printed, so nothing to contain
        return
    for ts in fractions:
        p = [min(max(b.lo + t * (b.hi - b.lo), b.lo), b.hi) for b, t in zip(box.intervals, ts)]
        try:
            values = f.evaluate(p)
        except EvalError:
            continue
        for iv, v in zip(bounds, values):
            assert iv.lo <= v <= iv.hi, (p, v, iv)


# -- Jordan split of kink functions ----------------------------------------------------

_SPLIT_CELLS = 256  # a small partition cap keeps each example cheap


@settings(PROPERTY, max_examples=100)
@given(_TREES[1], st.floats(-4.0, 4.0), st.floats(1e-3, 4.0), st.integers(1, 5),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_kink_split_reads_one_partition(e, lo, width, k, fractions):
    assume(not is_smooth(e))
    hi = lo + width
    f = ScalarFunction(e, Interval(lo, hi))
    try:
        split = jordan_split(f, 1e-8, _SPLIT_CELLS)
        assert split.fplus(lo) == 0.0
        assert split.fplus(hi) == total_variation(f, f.domain, 1e-8, _SPLIT_CELLS)
        # a converged partition has at least 32 dyadic cells, so these
        # 2^k + 1 points (k <= 5) are among its nodes
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

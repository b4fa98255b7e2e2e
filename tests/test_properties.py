"""Properties over generated expression trees: the compiled evaluator and the decomposition kernel."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mixedmono import (Binary, Const, DecompositionSpec, DimensionError, EvalError, Power,
                       Unary, Var, VectorField, build_embedding, eval_decomposition)
from mixedmono.expr import compile_expr

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

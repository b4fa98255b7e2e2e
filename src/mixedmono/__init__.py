"""Decomposition functions, interval bounds, and reach tubes for mixed monotone systems."""

from .errors import (BlowupError, ConfigError, DimensionError, EvalError, NonConvergenceError,
                     ParseError, ToolkitError, UnboundedDerivativeError)
from .expr import (Binary, Const, Expr, Power, Unary, Var, differentiate, eval_interval,
                   evaluate, parse, to_string)
from .interval import BoxDomain, Interval, leq_orthant
from .jacbounds import VectorField, jacobian_bounds
from .decomp import (DecompositionSpec, bound_box, build_decomposition,
                     eval_decomposition, format_decomposition, refine_bounds)
from .jordan import (JordanSplit, ScalarFunction, UnboundedSplit, jordan_split,
                     total_variation, unbounded_decomposition, unbounded_split)
from .embed import EmbeddingSystem, ReachTube, integrate_embedding

__version__ = "0.1.0"

__all__ = [
    "BlowupError", "ConfigError", "DimensionError", "EvalError", "NonConvergenceError",
    "ParseError", "ToolkitError", "UnboundedDerivativeError",
    "Binary", "Const", "Expr", "Power", "Unary", "Var",
    "differentiate", "eval_interval", "evaluate", "parse", "to_string",
    "BoxDomain", "Interval", "leq_orthant",
    "VectorField", "jacobian_bounds",
    "DecompositionSpec", "bound_box", "build_decomposition", "eval_decomposition",
    "format_decomposition", "refine_bounds",
    "JordanSplit", "ScalarFunction", "UnboundedSplit", "jordan_split", "total_variation",
    "unbounded_decomposition", "unbounded_split",
    "EmbeddingSystem", "ReachTube", "integrate_embedding",
    "__version__",
]

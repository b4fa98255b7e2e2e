"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(ToolkitError):
    """Expression text violates the grammar; carries the offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DimensionError(ToolkitError):
    """Mismatched dimensions or a variable index outside the declared range."""


class EvalError(ToolkitError):
    """Evaluation hit an undefined operation or a non-finite intermediate."""


class UnboundedDerivativeError(ToolkitError):
    """A partial derivative enclosure is (-inf, inf), or the offset built from
    it overflows, where a bounded one is required.  col is None where a
    whole row is to blame: the offset sum of f_row overflows on a box."""

    def __init__(self, row: int, col: int | None, message: str = ""):
        super().__init__(message or f"derivative enclosure for f{row}/x{col} is (-inf, inf)")
        self.row = row
        self.col = col


class NonConvergenceError(ToolkitError):
    """An iterative estimate failed to stabilize within its refinement cap."""


class BlowupError(ToolkitError):
    """Integrated state exceeded the magnitude cap (finite-time divergence)."""

    def __init__(self, time: float):
        super().__init__(f"state magnitude cap exceeded at t={time:.6g}")
        self.time = time


class ConfigError(ToolkitError):
    """Run configuration is missing, malformed, or inconsistent."""

"""Exception types shared across the package, and the one check each of an
integer count and of a scalar number parameter."""

import math
import numbers


class RobsynError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(RobsynError):
    """Array shapes are inconsistent with the declared network or problem dimensions."""


class SchemaError(RobsynError):
    """A serialized document or configuration does not match the expected schema."""


class NonConvergence(RobsynError):
    """Fixed-point iteration exhausted its budget without meeting the residual tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed-point iteration did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class Infeasible(RobsynError):
    """The optimization problem admits no feasible point at the requested tolerances."""


class NumericalFailure(RobsynError):
    """The solver stalled or lost numerical precision before reaching a conclusive status."""


class NonPositiveDefinite(RobsynError):
    """A matrix required to be positive definite is not."""


class SingularH(RobsynError):
    """The condensed quadratic cost matrix is singular and the problem cannot be reduced."""


class MaxIterations(RobsynError):
    """An iterative solver hit its iteration cap before reaching the requested accuracy."""


def check_count(value, name: str) -> None:
    """Raise ValueError unless value is an integer (not a bool) of at least 1."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def check_number(value, name: str, sign: str = "nonnegative") -> None:
    """Raise ValueError, naming the field, unless value is a finite real
    number (an int, a float or a NumPy scalar, not a bool) that is at or
    above zero, above zero if sign is "positive", or of any sign if sign is
    "any"."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    finite = isinstance(value, numbers.Integral) or math.isfinite(value)
    if not finite or (sign == "nonnegative" and value < 0) or (sign == "positive" and value <= 0):
        rule = "finite" if sign == "any" else f"{sign} and finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")

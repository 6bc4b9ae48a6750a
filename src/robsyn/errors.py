"""Exception types shared across the package, and the one check of an
integer count."""

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

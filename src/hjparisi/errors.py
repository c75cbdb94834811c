"""Exception types shared across the package.

ValidationError subclasses signal bad inputs or infeasible budgets and map
to CLI exit code 1; NonConvergence signals a solver that ran out of
iterations and maps to exit code 2.
"""


class ValidationError(ValueError):
    """Base class for input validation failures."""


class BadBreakpoints(ValidationError):
    """Breakpoint sequence is not strictly increasing in [0, 1) from 0."""


class NotIncreasing(ValidationError):
    """A matrix-path increment has a negative eigenvalue beyond tolerance."""


class PartitionMismatch(ValidationError):
    """Two objects that must share a breakpoint partition do not."""


class NotUltrametric(ValidationError):
    """An overlap matrix violates the ultrametric triple inequality."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class Singular(ValidationError):
    """A matrix that must be positive definite is not."""


class BudgetExceeded(ValidationError):
    """A deterministic evaluation would exceed its configured budget."""


class NonConvergence(RuntimeError):
    """An iterative method failed to reach its tolerance."""

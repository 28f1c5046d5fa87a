"""Exception types shared across the package."""


class MalformedInstanceError(ValueError):
    """Weight matrix is not a valid instance (asymmetric, negative, NaN, ...)."""


class EmptyPoolError(ValueError):
    """An edge was requested from fewer than two nodes."""


class BudgetError(ValueError):
    """An exact oracle call exceeded its size or time budget."""

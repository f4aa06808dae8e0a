"""Exception types shared across the package."""


class KStruveError(Exception):
    """Base class for all package errors."""


class DomainError(KStruveError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConvergenceError(KStruveError, ArithmeticError):
    """A series exceeded its overflow guard or could not be summed."""


class QuadratureError(KStruveError, ArithmeticError):
    """A quadrature rule hit a non-finite integrand value."""


class SolverError(KStruveError, RuntimeError):
    """The Volterra recurrence became singular (cannot happen for valid input)."""


class QuadratureWarning(UserWarning):
    """An adaptive rule spent its subinterval budget above tolerance.

    The rule still returns its value; ``error_estimate`` is its absolute
    error estimate at the stop.
    """

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate

"""Exception hierarchy shared across the package.

Validation errors (bad user input, out-of-domain arguments) map to CLI
exit code 2; convergence errors map to exit code 3.
"""


class EuphError(Exception):
    """Base class for all package errors."""


class ValidationError(EuphError, ValueError):
    """Invalid input: bad model parameters, arguments outside contracts."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedModelError(ValidationError):
    """Operation defined only for one sign of the deformation."""


class UndefinedCriticalError(ValidationError):
    """No ionization point exists for this level (n = 1)."""


class UndefinedInversionError(ValidationError):
    """No level-crossing deformation exists for this level."""


class ComplexRootsError(EuphError):
    """The quadratic for the reduction constant k has no real roots."""

    def __init__(self, message, discriminant=None):
        super().__init__(message)
        self.discriminant = discriminant


class NotAPerfectSquareError(EuphError):
    """The expression under the root is not the square of a polynomial."""


class NoBoundBranchError(EuphError):
    """No reduction branch is regular at s -> inf (complex indicial exponents)."""


class MaxIterationsError(EuphError):
    """Iteration limit reached before the requested tolerance."""


class NonNormalizableError(EuphError):
    """The closed-form state is not square integrable on its domain."""


class ConvergenceError(EuphError):
    """Numerical scheme did not converge: a Richardson ratio off the expected
    order, or a quadrature past its panel cap."""


class NonIntegrableWarning(UserWarning):
    """Weighted inner product diverges at an endpoint; result is nan."""

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


class NotAPerfectSquareError(EuphError):
    """The expression under the root is not the square of a polynomial."""


class NoBoundBranchError(EuphError):
    """No reduction branch is regular at s -> inf (complex indicial exponents)."""


class NonNormalizableError(EuphError):
    """The closed-form state is not square integrable on its domain."""


class ConvergenceError(EuphError):
    """A numerical result failed its check: a self-overlap off 1 by more
    than 1e-8 (``wavefunction``), a quadrature that did not converge, or a
    bound state's normalization sum that is not positive and finite."""

"""Exception types shared across the library."""


class GvandError(Exception):
    """Base class for all library-specific errors."""


class RingMismatchError(GvandError):
    """Operands live in different coefficient rings or variable sets."""


class ZeroPolynomialError(GvandError):
    """Operation undefined for the zero polynomial."""


class NoRootError(GvandError):
    """The requested Frobenius root does not exist."""


class NegativeExponentError(GvandError):
    """A monomial substitution produced a negative exponent."""


class MissingAssignmentError(GvandError):
    """Evaluation point omits a variable that occurs in the polynomial."""


class DegenerateSupportError(GvandError):
    """The exponent set is too small or too flat for the requested quantity."""


class SizeCapError(GvandError):
    """Input exceeds a configured size cap."""


class NotSimplicialError(GvandError):
    """Operation requires a simplicial subdivision."""


class PerturbationExhaustedError(GvandError):
    """No perturbation produced a simplicial subdivision within the retry limit."""


# Nothing raises this any more; perfbench/layers.py reads it when it wraps.
class SpecializationUnluckyError(GvandError):
    """Random specialization kept hitting degenerate values."""


class AllPointsSingularError(GvandError):
    """Every sampled evaluation point made the reference minor vanish."""


class CertificateMismatchError(GvandError):
    """A constructive certificate check failed against the instance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvariantViolationError(GvandError):
    """An internal mathematical invariant was falsified at runtime."""


class InputError(GvandError):
    """Malformed user input; the CLI maps this to exit code 2."""

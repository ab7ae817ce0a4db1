"""Exception types shared across the package."""


class OrderlexError(Exception):
    """Base class for errors raised by this package."""


class WordParseError(OrderlexError, ValueError):
    """Raised when a word string contains an unknown letter."""


class CertificationError(OrderlexError, ValueError):
    """An endomorphism presented as an automorphism failed its inverse check."""


class IllDefinedHomomorphismError(OrderlexError, ValueError):
    """Generator images do not satisfy the mapping-torus relations."""


class RepresentationError(OrderlexError, ValueError):
    """A linear representation violates a required constraint."""


class EnumerationLimitError(OrderlexError, RuntimeError):
    """Group closure exceeded the configured element bound."""


class SingularMatrixError(OrderlexError, ArithmeticError):
    """Matrix inversion was requested for a singular matrix."""


class ConsistencyError(OrderlexError, AssertionError):
    """Two independent computations of the same quantity disagreed.

    This is an internal guard; seeing it means a bug, not bad input.
    """


class SelectorError(OrderlexError, LookupError):
    """A homomorphism or representation selector matched nothing."""


class ManifestError(OrderlexError, ValueError):
    """A manifest file failed to parse or validate.

    The location attribute points at the offending JSON path or the
    line/column of a syntax error.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)

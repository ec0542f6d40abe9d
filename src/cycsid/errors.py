"""Exception types shared across the package."""


class CycsidError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(CycsidError):
    """Matrix or vector dimensions are inconsistent."""


class NonSquareError(CycsidError):
    """A square matrix was required."""


class SingularMatrixError(CycsidError):
    """Matrix is numerically rank deficient where regularity is required."""


class InvalidRateError(CycsidError, ValueError):
    """A sensor rate must be a positive integer and its offset lie in [0, rate)."""


class RankDeficientAError(CycsidError):
    """The state matrix must have full rank for the multirate analysis."""


class MalformedCycledSignalError(CycsidError):
    """A cycled sample has mass outside its active block."""


class InsufficientDataError(CycsidError):
    """Not enough samples for the requested operation."""


class ExcitationDeficientError(CycsidError):
    """Input data is not persistently exciting at the required order."""


class RankConditionError(CycsidError):
    """A matrix violates its full-rank condition: a transform selector, or
    the shifted extended observability estimate at the requested Hankel depth."""


class DivergentModelError(CycsidError):
    """The identified state matrix overflows the B/D/x0 regressor."""


class StructureViolationError(CycsidError):
    """A matrix failed a required structural check."""


class AssumptionFailedError(CycsidError):
    """No sampling phase yields an observable masked output pair."""


class ParseError(CycsidError):
    """A file could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class SchemaError(CycsidError):
    """A parsed file is missing or mistypes a required field."""


# Exit codes of the command line, and the errors each one stands for; the
# CLI and the built-in studies map errors through the same tuples.
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STRUCTURE = 4

DATA_ERRORS = (InsufficientDataError, ExcitationDeficientError, ParseError, SchemaError)
STRUCTURE_ERRORS = (AssumptionFailedError, StructureViolationError, DivergentModelError,
                    RankConditionError, RankDeficientAError, SingularMatrixError)

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


class InsufficientDataError(CycsidError):
    """Not enough samples for the requested operation."""


class ExcitationDeficientError(CycsidError):
    """Input data is not persistently exciting at the required order."""


class RankConditionError(CycsidError):
    """The shifted extended observability estimate cannot reach full rank at
    the requested Hankel depth: the sampling pattern or the data are too
    sparse for it."""


class DivergentModelError(CycsidError):
    """A model's matrices overflow the B/D/x0 regressor, the model's Markov
    parameters or its transform."""


class DivergentPlantError(CycsidError, ValueError):
    """The plant's state overflows over the simulated record, or its
    matrices overflow the reference checks: the plant and the sample count
    come from the configuration."""


class MemoryBudgetError(CycsidError, ValueError):
    """An array the run would build exceeds numerics.MEMORY_BUDGET: the
    configuration's period and sample count ask for more memory than a run
    may take."""


class StructureViolationError(CycsidError):
    """A matrix failed a required structural check.  When the coordinate
    transform failed, attempt holds its record (rank, regular, cond, applied,
    max_offpattern); otherwise it is None."""

    def __init__(self, message, attempt=None):
        super().__init__(message)
        self.attempt = attempt


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


# The kinds of refused run.  kind(e) is the one classifier: the CLI prints
# a refusal's prefix and exits with its code, and the built-in studies and
# the report files record its kind, all read through KINDS.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STRUCTURE = 4

DATA_ERRORS = (InsufficientDataError, ExcitationDeficientError, ParseError, SchemaError)
STRUCTURE_ERRORS = (AssumptionFailedError, StructureViolationError, DivergentModelError,
                    RankConditionError, RankDeficientAError, SingularMatrixError)
#: the errors a run is refused with; any other exception is a fault and propagates
REFUSALS = (CycsidError, ValueError, OSError)
#: kind -> (exit code, stderr prefix)
KINDS = {"config": (EXIT_CONFIG, "config error"), "data": (EXIT_DATA, "data error"),
         "structure": (EXIT_STRUCTURE, "verification failure")}


def kind(e):
    """The kind of the refusal e, one of REFUSALS: "data" for DATA_ERRORS,
    "structure" for STRUCTURE_ERRORS, and "config" for every other one."""
    if isinstance(e, DATA_ERRORS):
        return "data"
    return "structure" if isinstance(e, STRUCTURE_ERRORS) else "config"

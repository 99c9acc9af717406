"""Exception taxonomy shared across the package."""


class QsimpError(Exception):
    """Base class for every error raised by this package."""

    code = "Error"


class SingularMatrix(QsimpError):
    """An operation required a nonzero determinant and did not get one."""

    code = "SingularMatrix"


class DimensionMismatch(QsimpError):
    """Operands have incompatible dimensions."""

    code = "DimensionMismatch"


class NonPositiveDiagonal(QsimpError):
    """An index set was requested for a diagonal with entries below 1."""

    code = "NonPositiveDiagonal"


class UnsupportedFormat(QsimpError):
    """Unknown rendering format."""

    code = "UnsupportedFormat"


class ParseError(QsimpError):
    """A job document failed validation; the message names the field."""

    code = "ParseError"


class ConsistencyError(QsimpError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""

    code = "ConsistencyError"


class OutputTooLarge(QsimpError):
    """A job's result is too large to print: it holds an integer past the
    interpreter's limit on integer-to-string conversion, or it is a
    presentation whose index set has more than presentation.MAX_INDICES
    multi-indices."""

    code = "OutputTooLarge"


class InternalError(QsimpError):
    """A job failed with an exception outside this taxonomy; reported as an
    Error line so the rest of the batch still runs."""

    code = "Internal"

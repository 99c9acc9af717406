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


class NotTriangular(QsimpError):
    """The triangular criterion was asked about a non-triangular matrix."""

    code = "NotTriangular"


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


class InternalError(QsimpError):
    """A job failed with an exception outside this taxonomy; reported as an
    Error line so the rest of the batch still runs."""

    code = "Internal"

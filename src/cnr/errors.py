"""Exception types shared across the package."""


class CnrError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(CnrError):
    pass


class NotPsdError(CnrError):
    pass


class DiagonalNotOneError(CnrError):
    pass


class OutOfDiskError(CnrError):
    pass


class NotUnitaryError(CnrError):
    pass


class RangeNotRealError(CnrError):
    """The range is not contained in the real line: the imaginary part of the
    input must be diagonal with zero normalized trace."""


class NotDecomposableError(CnrError):
    """No PSD + trace-zero-diagonal split exists.

    Carries the best correlation matrix found (``witness``) and the value it
    attains (``attained``), an upper bound on the minimum of the range.
    """

    def __init__(self, message, witness=None, attained=None, margin=None):
        super().__init__(message)
        self.witness = witness
        self.attained = attained
        self.margin = margin


class CancelledError(CnrError):
    """A cooperative cancellation token asked a long solve to stop."""


class MatrixParseError(CnrError):
    pass


class DimensionMismatchError(MatrixParseError):
    pass

"""Exception types shared across the package, and the check that raises
them for one matrix or for each matrix of a stack."""

import numpy as np


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


class MatrixParseError(CnrError):
    pass


class DimensionMismatchError(MatrixParseError):
    pass


def require(ok, error: type[CnrError], message: str, *values) -> None:
    """Raise error(message.format(*values)) unless ok holds.

    For a stack of matrices, ok holds one verdict per matrix and each value
    one entry per matrix: the error names the first matrix that fails and
    formats the values at it.
    """
    if isinstance(ok, (bool, np.bool_)):
        if not ok:
            raise error(message.format(*values))
        return
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise error(f"stack index {i}: " + message.format(*(v[i] for v in values)))

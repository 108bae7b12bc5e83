"""Correlation matrices (Hermitian PSD with unit diagonal) and their Gram
factorizations by unit vectors.

Inner-product convention, used everywhere in the package: <x, y> is linear in
x and conjugate-linear in y.  A Gram factor stores unit row vectors e_1..e_n
in C^n and maps to the correlation matrix B with B[i, j] = <e_i, e_j>, i.e.
B = V V* for the row matrix V.  This n-dimensional factorization is lossless:
every n x n correlation matrix arises this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DiagonalNotOneError, NotPsdError, OutOfDiskError, require

PSD_TOL = 1e-10
DIAG_TOL = 1e-10
UNIT_TOL = 1e-12


@dataclass
class GramFactor:
    """Unit vectors e_1..e_n as the rows of an n x n complex array.  A
    factor of rank r < n may hold its rows in its first k >= r columns and
    zeros in the rest, as a primal recovered from complementary slackness
    does (k = isqrt(n))."""

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass
class CorrelationMatrix:
    """Validated element of the elliptope, or a stack of them."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]


def gram_factor(vectors) -> GramFactor:
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"expected n unit vectors in C^n, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValueError("Gram vectors must have unit norm")
    return GramFactor(v)


def gram_to_correlation(g: GramFactor) -> CorrelationMatrix:
    """B[i, j] = <e_i, e_j>: the Gram matrix of the factor's rows."""
    v = g.vectors
    b = v @ v.conj().T
    b = (b + b.conj().T) / 2.0
    np.fill_diagonal(b, 1.0)
    return CorrelationMatrix(b)


def validate_correlation(b) -> CorrelationMatrix:
    """Check Hermitian, unit diagonal, PSD; raise on violation.  b may be a
    stack of matrices (one leading axis): each is checked, and an error
    names the first that fails.

    The PSD tolerance (smallest eigenvalue >= -1e-10) deliberately accepts
    boundary points: extreme points of the elliptope are rank-deficient.
    """
    m = matcore.as_matrix(b, stack=True)
    # hermitian_eigs makes the one Hermitian check; the PSD verdict still
    # comes after the diagonal's
    lam_min = matcore.hermitian_eigs(m).eigenvalues[..., 0]
    diag_err = np.max(np.abs(np.diagonal(m, axis1=-2, axis2=-1) - 1.0), axis=-1)
    require(diag_err <= DIAG_TOL, DiagonalNotOneError, "diagonal deviates from one by {:.3e}", diag_err)
    require(lam_min >= -PSD_TOL, NotPsdError, "smallest eigenvalue {:.3e} below tolerance", lam_min)
    return CorrelationMatrix((m + m.conj().swapaxes(-1, -2)) / 2.0)


def random_gram(n: int, rng: np.random.Generator) -> GramFactor:
    """n i.i.d. complex Gaussian vectors in C^n, normalized."""
    if n < 1:
        raise ValueError("n must be positive")
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return GramFactor(v)


def random_correlation(n: int, rng: np.random.Generator) -> CorrelationMatrix:
    return gram_to_correlation(random_gram(n, rng))


def correlation_2x2(z: complex) -> CorrelationMatrix:
    """[[1, z], [conj(z), 1]]; valid exactly for |z| <= 1."""
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise OutOfDiskError(f"|z| = {abs(z):.6f} exceeds 1")
    return CorrelationMatrix(np.array([[1.0, z], [z.conjugate(), 1.0]], dtype=np.complex128))


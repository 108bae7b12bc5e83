"""Dense complex linear algebra kernel.

Hermitian eigendecomposition and operator norm (LAPACK through numpy.linalg),
traces, Hermitian parts, and random matrix generation.  Everything operates
on square complex128 numpy arrays and is pure given an explicit rng.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError

ATOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return frobenius(m - m.conj().T) <= ATOL * (1.0 + frobenius(m))


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigs(m) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix (LAPACK via
    np.linalg.eigh).  Raises NotHermitianError if the input is not Hermitian
    to working precision; the exactly symmetrised matrix is decomposed."""
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitianError("input is not Hermitian to working precision")
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return SpectralDecomposition(lam, v)


def lambda_min(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigs(m).eigenvalues[0])


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def normalized_trace(m) -> complex:
    """Mean of the diagonal entries."""
    a = as_matrix(m)
    return complex(np.trace(a)) / a.shape[0]


def hermitian_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Split M = S + iK with S, K Hermitian: S = (M+M*)/2, K = (M-M*)/2i."""
    a = as_matrix(m)
    s = (a + a.conj().T) / 2.0
    k = (a - a.conj().T) / 2.0j
    return s, k


def ginibre_random(n: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries."""
    if n < 1:
        raise ValueError("n must be positive")
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def haar_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed k x k unitary: Ginibre, then QR with phase correction."""
    if k < 1:
        raise ValueError("k must be positive")
    z = ginibre_random(k, rng)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph

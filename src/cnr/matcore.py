"""Dense complex linear algebra kernel.

Hermitian eigendecomposition and operator norm (LAPACK through numpy.linalg),
traces, Hermitian parts, and random matrix generation.  Everything operates
on square complex128 numpy arrays and is pure given an explicit rng;
is_hermitian and hermitian_eigs also take stacks of them along one leading
axis, and ginibre_random and haar_unitary also make them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, require

ATOL = 1e-12


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce to a finite square complex128 array; with stack, also accept
    a stack of them along one leading axis, as numpy.linalg does."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ValueError(f"expected {what}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def is_hermitian(m: np.ndarray):
    """Hermitian to working precision, max|M - M*| <= ATOL (1 + max|M|) over
    the entries: a bool for one matrix, an array of them for a stack.  The
    test runs on M / 4, which is exact and keeps M - M* and every modulus
    finite, so no finite input overflows it."""
    q = np.asarray(m) * 0.25
    gap = np.max(np.abs(q - q.conj().swapaxes(-1, -2)), axis=(-2, -1))
    ok = gap <= ATOL * (0.25 + np.max(np.abs(q), axis=(-2, -1)))
    return bool(ok) if q.ndim == 2 else ok


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns; for a
    stack, one row of eigenvalues and one matrix of columns per matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigs(m) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix, or of each matrix
    in a stack (LAPACK via np.linalg.eigh).  Raises NotHermitianError if an
    input is not Hermitian to working precision; the exactly symmetrised
    matrix is decomposed."""
    a = as_matrix(m, stack=True)
    require(is_hermitian(a), NotHermitianError, "input must be Hermitian to working precision")
    lam, v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)
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


def ginibre_random(n: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries: an n x n matrix, or a
    shape + (n, n) stack drawn as successive matrices would be."""
    if n < 1:
        raise ValueError("n must be positive")
    g = rng.standard_normal(tuple(shape) + (2, n, n))
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def haar_unitary(k: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-distributed k x k unitary: Ginibre, then QR with phase correction
    (Mezzadri, Notices AMS 2007).  With shape, a shape + (k, k) array of
    independent ones from one draw and one stacked QR, reading the random
    stream as successive single draws do."""
    if k < 1:
        raise ValueError("k must be positive")
    q, r = np.linalg.qr(ginibre_random(k, rng, shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]

"""Quotient seminorm modulo trace-zero diagonals, the radius/seminorm
equivalence constant, and the direct-sum law.

The seminorm of T is the smallest operator norm of T - D over complex
trace-zero diagonals D: the norm of T's image in the quotient by those
diagonals.  Both it and the range radius vanish exactly on trace-zero
diagonals, so on each dimension there is a best constant kappa with
kappa * seminorm <= radius <= seminorm; kappa is bracketed between
1/(4n+2) and, for the canonical sparse witness, the computed radius itself.

The seminorm is computed by one centred log-det barrier solve, on the path
routine that crange.polish_dual also follows, and certified by a dual bound
read from the barrier's inverse slack matrix after each level, so each
result is a bracket lower <= seminorm <= value.  Singular values come from the
Hermitian dilation, so every eigensolve goes through matcore.hermitian_eigs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, matcore
from .crange import DIRECTIONS, SolveConfig, _centred_path, radius, range_boundary

SEMINORM_TOL = 1e-6  # bracket width, relative to max |T_ij|
END_TOL = 5e-9  # the barrier path ends with its first level at mu <= END_TOL * ||T||_F / (8n)
KAPPA_DIRECTIONS = 64  # support grid of the radius inside kappa_search
KAPPA_BUDGET = 20  # default radius/seminorm evaluations of kappa_search


@dataclass
class SeminormResult:
    """Two-sided seminorm: value is attained by the trace-zero diagonal shift
    (upper bound), lower is the barrier's dual bound, and agreed means the
    bracket closed: value - lower <= SEMINORM_TOL * max |T_ij|."""

    value: float
    diagonal: np.ndarray
    agreed: bool
    lower: float


@dataclass
class KappaEstimate:
    """Search record for the equivalence constant at dimension n.

    best_ratio is the smallest radius/seminorm ratio the search found.  It
    divides a radius lower bound by a seminorm upper bound, so it can sit
    below its witness's true ratio: it estimates kappa from above but is
    not a proven upper bound.  lower_bound is the proven 1/(4n+2).
    quoted_upper records the 2/n figure; the direct sum law applied to the
    canonical witness (a single off-diagonal one padded by zeros) gives
    radius 1/n, not 2/n, so the witness ratio sits below quoted_upper and
    the discrepancy is flagged, not resolved.
    """

    n: int
    best_ratio: float
    witness: np.ndarray
    lower_bound: float
    quoted_upper: float
    flags: tuple[str, ...] = ()


@dataclass
class DirectSumReport:
    """Support identity h(S1 (+) S2) = (k1/n) h(S1) + (k2/n) h(S2)."""

    max_support_dev: float
    hausdorff: float
    thetas: np.ndarray
    combined: np.ndarray
    direct: np.ndarray


def _dilation(x: np.ndarray, s: float = 0.0) -> np.ndarray:
    """[[sI, X], [X*, sI]]: PSD exactly when s >= ||X||; at s = 0 its
    eigenvalues are +-sigma_i(X)."""
    n = x.shape[0]
    z = s * np.eye(2 * n, dtype=np.complex128)
    z[:n, n:] = x
    z[n:, :n] = x.conj().T
    return z


def _singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of a square X, ascending: the upper half of the
    spectrum of its Hermitian dilation (no squared condition number)."""
    n = x.shape[0]
    return np.maximum(matcore.hermitian_eigs(_dilation(x)).eigenvalues[n:], 0.0)


def _barrier(t: np.ndarray, d: np.ndarray, sigma: float):
    """Interior-point solve of the seminorm minimization from the diagonal d
    (sigma = ||T - diag(d)||), certified by a dual bound.

    Works on the epigraph form  min s  s.t.  Z = [[sI, M], [M*, sI]] >= 0 with
    M = T - diag(d) and both diagonal sums of d pinned to zero, following the
    shared centred log-det barrier path (crange._centred_path) in the real
    variables (s, Re d, Im d); the pin is two extra rows of the Newton KKT
    system.  The sparsity of the constraint derivatives makes gradient and
    Hessian assembly O(n^2) from W = Z^-1.

    Returns (value, d, lower) with value attained by d.  For Y, the
    lower-left block of W with its diagonal replaced by its mean,
    tr(Y D) = 0 for every trace-zero diagonal D, so |tr(Y T)| =
    |tr(Y (T - D))| <= ||Y||_1 ||T - D||: lower is the best |tr(Y T)| / ||Y||_1
    over the centred levels, read by the path's level hook.  The last level
    alone is not enough: its slack s - sigma is so small that rounding leaves
    W's diagonal uneven by up to ~1e-5 relative, and the averaging turns that
    into a loss of ~1e-6."""
    n = t.shape[0]
    scale = matcore.frobenius(t)
    s = sigma + max(0.02 * sigma, 1e-4 * scale)

    # Newton KKT matrix: the Hessian block is rewritten at every step, the
    # rows and columns pinning both diagonal sums of d stay fixed
    kkt = np.zeros((2 * n + 3, 2 * n + 3))
    kkt[2 * n + 1, 1 : n + 1] = kkt[1 : n + 1, 2 * n + 1] = 1.0
    kkt[2 * n + 2, n + 1 : 2 * n + 1] = kkt[n + 1 : 2 * n + 1, 2 * n + 2] = 1.0
    hess = kkt[: 2 * n + 1, : 2 * n + 1]

    def diagonal(x):
        return x[1 : n + 1] + 1j * x[n + 1 :]

    def newton(w, mu):
        w2 = w @ w
        w21 = w[n:, :n]
        p1 = w21 * w21.T
        p2 = w[:n, :n].T * w[n:, n:]
        g_d = 2.0 * mu * np.conj(np.diag(w21))
        grad = np.concatenate([[1.0 - mu * float(np.trace(w).real)], g_d.real, g_d.imag])
        hess[0, 0] = mu * float(np.trace(w2).real)
        h_d = -2.0 * mu * np.conj(np.diag(w2[n:, :n]))
        hess[0, 1 : n + 1] = hess[1 : n + 1, 0] = h_d.real
        hess[0, n + 1 :] = hess[n + 1 :, 0] = h_d.imag
        hess[1 : n + 1, 1 : n + 1] = 2.0 * mu * (p1 + p2).real
        hess[1 : n + 1, n + 1 :] = 2.0 * mu * (p2 - p1).imag
        hess[n + 1 :, 1 : n + 1] = hess[1 : n + 1, n + 1 :].T
        hess[n + 1 :, n + 1 :] = 2.0 * mu * (p2 - p1).real
        return grad, np.linalg.solve(kkt, np.concatenate([-grad, [0.0, 0.0]]))[: 2 * n + 1]

    lowers = [0.0]

    def level(w):
        y = w[n:, :n].copy()
        np.fill_diagonal(y, np.mean(np.diag(y)))
        nuclear = float(np.sum(_singular_values(y)))
        if nuclear > 0.0:
            lowers.append(abs(complex(np.sum(y * t.T))) / nuclear)

    x = _centred_path(
        lambda x: _dilation(t - np.diag(diagonal(x)), x[0]),
        newton,
        np.concatenate([[s], d.real, d.imag]),
        max(s - sigma, 1e-5 * scale),
        lambda mu: mu <= END_TOL * scale / (8.0 * n),
        level,
    )
    d = diagonal(x)
    return float(_singular_values(t - np.diag(d))[-1]), d, max(lowers)


def correlation_seminorm_full(t) -> SeminormResult:
    """Minimized operator norm over complex trace-zero diagonal shifts.

    The problem is convex, so one barrier solve from the trace-centred
    diagonal of T suffices; its dual bound certifies the result.  The
    returned value is attained by the returned diagonal, hence always an
    upper bound on the true infimum.  The solve runs on T / max |T_ij| and is
    scaled back (the seminorm is homogeneous), so neither the barrier nor the
    tolerance depends on the scale of T."""
    t = matcore.as_matrix(t)
    n = t.shape[0]
    scale = float(np.max(np.abs(t)))
    if n == 1 or scale == 0.0:  # the seminorm is |t_11|, or T is zero
        return SeminormResult(scale, np.zeros(n, dtype=np.complex128), True, scale)
    t = t / scale
    d = np.diag(t) - np.mean(np.diag(t))
    sigma = float(_singular_values(t - np.diag(d))[-1])
    if sigma <= 1e-13 * matcore.frobenius(t):
        return SeminormResult(scale * sigma, scale * d, sigma <= SEMINORM_TOL, 0.0)
    value, d, lower = _barrier(t, d, sigma)
    return SeminormResult(scale * value, scale * d, value - lower <= SEMINORM_TOL, scale * lower)


def correlation_seminorm(t) -> float:
    return correlation_seminorm_full(t).value


def sparse_witness(n: int) -> np.ndarray:
    """Single off-diagonal one padded by zeros: seminorm 1, radius 1/n."""
    w = np.zeros((n, n), dtype=np.complex128)
    w[0, 1] = 1.0
    return w


def kappa_search(
    n: int,
    budget: int = KAPPA_BUDGET,
    rng: np.random.Generator | None = None,
    cfg: SolveConfig = SolveConfig(),
) -> KappaEstimate:
    """Random plus local search minimizing radius/seminorm at dimension n.

    budget counts radius/seminorm evaluations, the first on the canonical
    sparse witness, so best_ratio never exceeds its ratio (about 1/n).  A
    result below the proven lower bound 1/(4n+2) would contradict the
    bracket and is flagged rather than silently accepted.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = rng if rng is not None else np.random.default_rng(0)

    def ratio(t: np.ndarray) -> tuple[float, np.ndarray]:
        sn = correlation_seminorm_full(t)
        if sn.value <= 1e-12:
            return np.inf, t
        t_norm = (t - np.diag(sn.diagonal)) / sn.value
        return radius(t_norm, KAPPA_DIRECTIONS, cfg), t_norm

    best_ratio, best_t = ratio(sparse_witness(n))
    rest = budget - 1  # evaluations left after the sparse witness
    starts = min(rest, max(1, rest // 4))
    for s in range(starts):
        t = matcore.ginibre_random(n, rng)
        if s % 2 == 1:  # sparse starts: the known extremal shape
            mask = rng.random((n, n)) < 2.0 / n
            np.fill_diagonal(mask, False)
            t = t * mask
            if not mask.any():
                t[0, 1] = 1.0
        r, tn = ratio(t)
        if r < best_ratio:
            best_ratio, best_t = r, tn
        for _ in range(rest // starts - 1 + (s < rest % starts)):
            step = 0.3 * rng.standard_normal((n, n)) + 0.3j * rng.standard_normal((n, n))
            r2, tn2 = ratio(tn + step)
            if r2 < r:
                r, tn = r2, tn2
                if r < best_ratio:
                    best_ratio, best_t = r, tn
    flags = []
    lower = 1.0 / (4 * n + 2)
    if best_ratio < lower - 1e-6:
        flags.append("ratio_below_proven_lower_bound")
    flags.append("quoted_upper_vs_direct_sum_witness_discrepancy")
    return KappaEstimate(
        n=n,
        best_ratio=float(best_ratio),
        witness=best_t,
        lower_bound=lower,
        quoted_upper=2.0 / n,
        flags=tuple(flags),
    )


def direct_sum_check(
    s1, s2, cfg: SolveConfig = SolveConfig(), m: int = DIRECTIONS
) -> DirectSumReport:
    """Compare the range of S1 (+) S2 against the weighted Minkowski
    combination of the block ranges, via support functions on a shared grid
    and the Hausdorff distance of the induced outer polygons."""
    s1 = matcore.as_matrix(s1)
    s2 = matcore.as_matrix(s2)
    k1, k2 = s1.shape[0], s2.shape[0]
    n = k1 + k2
    a = np.zeros((n, n), dtype=np.complex128)
    a[:k1, :k1] = s1
    a[k1:, k1:] = s2
    rb = range_boundary(a, m, cfg)
    rb1 = range_boundary(s1, m, cfg)
    rb2 = range_boundary(s2, m, cfg)
    thetas = rb.thetas()
    direct = rb.supports()
    combined = (k1 / n) * rb1.supports() + (k2 / n) * rb2.supports()
    dev = float(np.max(np.abs(direct - combined)))
    poly_direct = rb.outer_polygon()
    poly_combined = geometry.halfplane_polygon(thetas, combined)
    hd = geometry.hausdorff(poly_direct, poly_combined)
    return DirectSumReport(
        max_support_dev=dev,
        hausdorff=float(hd),
        thetas=thetas,
        combined=combined,
        direct=direct,
    )

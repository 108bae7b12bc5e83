"""Quotient seminorm modulo trace-zero diagonals, the radius/seminorm
equivalence constant, and the direct-sum law.

The seminorm of T is the smallest operator norm of T - D over complex
trace-zero diagonals D: the norm of T's image in the quotient by those
diagonals.  Both it and the range radius vanish exactly on trace-zero
diagonals, so on each dimension there is a best constant kappa with
kappa * seminorm <= radius <= seminorm; kappa is bracketed between
1/(4n+2) and, for the canonical sparse witness, the computed radius itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .crange import SolveConfig, radius, range_boundary

SEMINORM_TOL = 1e-6
POLYAK_ITERS = 12


@dataclass
class SeminormResult:
    value: float
    diagonal: np.ndarray
    agreed: bool  # independent restarts matched to tolerance


@dataclass
class KappaEstimate:
    """Search record for the equivalence constant at dimension n.

    best_ratio is an upper bound on kappa by construction.  lower_bound is
    the proven 1/(4n+2).  quoted_upper records the 2/n figure; the direct
    sum law applied to the canonical witness (a single off-diagonal one
    padded by zeros) gives radius 1/n, not 2/n, so the witness ratio sits
    below quoted_upper and the discrepancy is flagged, not resolved.
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


def _top_singular_triple(m: np.ndarray):
    g = m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    dec = matcore.hermitian_eigs(g)
    lam = max(float(dec.eigenvalues[-1]), 0.0)
    sigma = math.sqrt(lam)
    v = dec.eigenvectors[:, -1]
    if sigma > 0.0:
        u = (m @ v) / sigma
    else:
        u = np.zeros_like(v)
        u[0] = 1.0
    return sigma, u, v


def _project_trace_zero(d: np.ndarray) -> np.ndarray:
    return d - np.mean(d)


def _descend(t: np.ndarray, d0: np.ndarray, iters: int) -> tuple[float, np.ndarray]:
    """Polyak subgradient descent on d -> ||T - diag(d)|| over trace-zero d.

    Subgradient from the top singular pair (u, v): the entrywise direction
    u_i conj(v_i), projected onto the trace-zero hyperplane.  The Polyak
    target tracks the best value seen minus a decaying slack.
    """
    d = _project_trace_zero(d0.astype(np.complex128))
    sigma, u, v = _top_singular_triple(t - np.diag(d))
    best, best_d = sigma, d.copy()
    slack = max(0.1 * sigma, 1e-3)
    stall = 0
    for _ in range(iters):
        g = -u * np.conj(v)
        g = _project_trace_zero(g)
        gn = float(np.real(np.vdot(g, g)))
        if gn < 1e-30:
            break
        step = (sigma - (best - slack)) / gn
        d = _project_trace_zero(d - step * g)
        sigma, u, v = _top_singular_triple(t - np.diag(d))
        if sigma < best - 1e-14:
            best, best_d = sigma, d.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                slack *= 0.5
                stall = 0
                d = best_d.copy()
                sigma, u, v = _top_singular_triple(t - np.diag(d))
        if slack < 1e-9:
            break
    return best, best_d


def _barrier_refine(t: np.ndarray, d0: np.ndarray, rel_tol: float = 1e-10):
    """Interior-point refinement of the seminorm minimization.

    Works on the epigraph form  min s  s.t.  [[sI, M], [M*, sI]] >= 0 with
    M = T - diag(d) and both diagonal sums pinned to zero; damped Newton on
    the logdet barrier along a decreasing centering path.  The sparsity of
    the constraint derivatives makes gradient and Hessian assembly O(n^2)
    from the inverse slack matrix.  Returns (value, d) with the value
    attained by d (so always a valid upper bound)."""
    n = t.shape[0]
    d = _project_trace_zero(d0.astype(np.complex128))
    scale = max(matcore.frobenius(t), 1e-30)
    sigma = _top_singular_triple(t - np.diag(d))[0]
    s = sigma + max(0.02 * sigma, 1e-4 * scale)
    mu = max(s - sigma, 1e-5 * scale)
    mu_end = rel_tol * scale / (8.0 * n)

    idx = np.arange(n)
    cons = np.zeros((2, 1 + 2 * n))
    cons[0, 1 : n + 1] = 1.0
    cons[1, n + 1 :] = 1.0

    eye2n = np.eye(2 * n, dtype=np.complex128)

    def slack(s_val, d_val):
        m = t - np.diag(d_val)
        z = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        z[:n, :n] = s_val * np.eye(n)
        z[n:, n:] = s_val * np.eye(n)
        z[:n, n:] = m
        z[n:, :n] = m.conj().T
        return z

    def try_factor(s_val, d_val):
        """Cholesky of the slack matrix: positivity test plus log-det."""
        z = slack(s_val, d_val)
        try:
            c = np.linalg.cholesky(z)
        except np.linalg.LinAlgError:
            return None, None
        return z, 2.0 * float(np.sum(np.log(np.diag(c).real)))

    z, logdet = try_factor(s, d)
    while mu > mu_end:
        for _ in range(2):
            w = np.linalg.solve(z, eye2n)
            w = (w + w.conj().T) / 2.0
            w2 = w @ w
            w21 = w[n:, :n]
            p1 = w21 * w21.T
            p2 = w[:n, :n].T * w[n:, n:]
            grad = np.empty(1 + 2 * n)
            grad[0] = 1.0 - mu * float(np.trace(w).real)
            grad[1 : n + 1] = -mu * (-2.0 * w21[idx, idx].real)
            grad[n + 1 :] = -mu * (2.0 * w21[idx, idx].imag)
            hess = np.empty((1 + 2 * n, 1 + 2 * n))
            hess[0, 0] = mu * float(np.trace(w2).real)
            w2_21 = w2[n:, :n]
            hess[0, 1 : n + 1] = hess[1 : n + 1, 0] = mu * (-2.0 * w2_21[idx, idx].real)
            hess[0, n + 1 :] = hess[n + 1 :, 0] = mu * (2.0 * w2_21[idx, idx].imag)
            hess[1 : n + 1, 1 : n + 1] = 2.0 * mu * (p1 + p2).real
            hess[1 : n + 1, n + 1 :] = 2.0 * mu * (p2 - p1).imag
            hess[n + 1 :, 1 : n + 1] = hess[1 : n + 1, n + 1 :].T
            hess[n + 1 :, n + 1 :] = 2.0 * mu * (p2 - p1).real
            kkt = np.zeros((2 * n + 3, 2 * n + 3))
            kkt[: 2 * n + 1, : 2 * n + 1] = hess
            kkt[: 2 * n + 1, 2 * n + 1 :] = cons.T
            kkt[2 * n + 1 :, : 2 * n + 1] = cons
            rhs = np.zeros(2 * n + 3)
            rhs[: 2 * n + 1] = -grad
            try:
                step = np.linalg.solve(kkt, rhs)[: 2 * n + 1]
            except np.linalg.LinAlgError:
                break
            f0 = s - mu * logdet
            tstep = 1.0
            for _ in range(40):
                s_new = s + tstep * step[0]
                d_new = d + tstep * (step[1 : n + 1] + 1j * step[n + 1 :])
                z_new, logdet_new = try_factor(s_new, d_new)
                if z_new is not None:
                    f_new = s_new - mu * logdet_new
                    if f_new <= f0 + 1e-12 * (1.0 + abs(f0)):
                        s, d, z, logdet = s_new, d_new, z_new, logdet_new
                        break
                tstep *= 0.5
        mu *= 0.12
    sigma = _top_singular_triple(t - np.diag(d))[0]
    return float(sigma), d


def correlation_seminorm_full(t) -> SeminormResult:
    """Minimized operator norm over complex trace-zero diagonal shifts.

    A short Polyak subgradient phase from two deterministic starts (zero; the
    trace-centered diagonal of T) warm-starts the barrier refinement; the
    problem is convex, so the two starts must agree, which is checked and
    reported.  The returned value is attained by the returned diagonal,
    hence always an upper bound on the true infimum."""
    t = matcore.as_matrix(t)
    n = t.shape[0]
    scale = matcore.frobenius(t)
    if scale == 0.0 or n == 1:
        return SeminormResult(0.0 if n > 1 else float(abs(t[0, 0])), np.zeros(n, dtype=np.complex128), True)
    center = _project_trace_zero(np.diag(t).copy())
    results = []
    for d0 in (np.zeros(n, dtype=np.complex128), center):
        val, dd = _descend(t, d0, POLYAK_ITERS)
        if val <= 1e-13 * scale:
            return SeminormResult(0.0, dd, True)
        results.append((val, dd))
    results.sort(key=lambda r: r[0])
    val0, d_ref = _barrier_refine(t, results[0][1])
    val1, d_alt = _barrier_refine(t, results[-1][1], rel_tol=1e-6)
    if val1 < val0:
        val0, d_ref = val1, d_alt
    agreed = abs(val1 - val0) <= SEMINORM_TOL
    return SeminormResult(float(val0), d_ref, agreed)


def correlation_seminorm(t) -> float:
    return correlation_seminorm_full(t).value


def sparse_witness(n: int) -> np.ndarray:
    """Single off-diagonal one padded by zeros: seminorm 1, radius 1/n."""
    w = np.zeros((n, n), dtype=np.complex128)
    w[0, 1] = 1.0
    return w


def kappa_search(
    n: int,
    budget: int = 20,
    rng: np.random.Generator | None = None,
    cfg: SolveConfig | None = None,
    m: int = 64,
) -> KappaEstimate:
    """Random plus local search minimizing radius/seminorm at dimension n.

    The canonical sparse witness is always in the start set, so best_ratio
    never exceeds its ratio (about 1/n).  A result below the proven lower
    bound 1/(4n+2) would contradict the bracket and is flagged rather than
    silently accepted.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = rng if rng is not None else np.random.default_rng(0)
    cfg = cfg or SolveConfig()

    def ratio(t: np.ndarray) -> tuple[float, np.ndarray]:
        sn = correlation_seminorm_full(t)
        if sn.value <= 1e-12:
            return np.inf, t
        t_norm = (t - np.diag(sn.diagonal)) / sn.value
        return radius(t_norm, m, cfg), t_norm

    best_ratio, best_t = ratio(sparse_witness(n))
    starts = max(1, budget // 4)
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
        for _ in range(max(0, budget // starts - 1)):
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
    s1, s2, cfg: SolveConfig | None = None, m: int = 64
) -> DirectSumReport:
    """Compare the range of S1 (+) S2 against the weighted Minkowski
    combination of the block ranges, via support functions on a shared grid
    and the Hausdorff distance of the induced outer polygons."""
    from . import geometry

    s1 = matcore.as_matrix(s1)
    s2 = matcore.as_matrix(s2)
    cfg = cfg or SolveConfig()
    k1, k2 = s1.shape[0], s2.shape[0]
    n = k1 + k2
    a = np.zeros((n, n), dtype=np.complex128)
    a[:k1, :k1] = s1
    a[k1:, k1:] = s2
    rb = range_boundary(a, m, cfg)
    rb1 = range_boundary(s1, m, cfg.derive(7919))
    rb2 = range_boundary(s2, m, cfg.derive(7927))
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

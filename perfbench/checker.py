"""Independent output checks for the benchmark workloads.

Uses numpy only (``np.linalg.eigvalsh`` and ``np.linalg.norm(., 2)``) and
never ``cnr.matcore``, so a defect in the package's own eigensolver or norm
cannot vouch for itself.  Every ``check_*`` function returns a list of
problems; an empty list means the result is accepted.  Tolerances scale with
the norm of the matrix involved.
"""

from __future__ import annotations

import copy

import numpy as np

REL_TOL = 1e-9


def _tol(scale: float) -> float:
    return REL_TOL * (1.0 + scale)


def _rotated(a: np.ndarray, theta: float) -> np.ndarray:
    """Re(exp(-i theta) A) as a Hermitian matrix."""
    r = np.exp(-1j * theta) * a
    return (r + r.conj().T) / 2.0


def _eigvals(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def check_support(a: np.ndarray, s, gap_tol: float) -> list[str]:
    """One support solve: diag(y) - H is PSD, the value is attained by the
    unit-row maximizer, the reported gap is the true one and within gap_tol
    when certified, and the value is at most the classical support."""
    h = _rotated(a, s.theta)
    tol = _tol(float(np.linalg.norm(h, 2)))
    where = f"theta={s.theta:.6f}"
    out = []
    y = np.asarray(s.dual_y, dtype=float)
    if _eigvals(np.diag(y) - h)[0] < -tol:
        out.append(f"{where}: diag(y) - H is not PSD")
    v = np.asarray(s.maximizer.vectors)
    if np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) > REL_TOL:
        out.append(f"{where}: maximizer rows are not unit vectors")
    value = float(np.real(np.trace(h @ (v @ v.conj().T)))) / a.shape[0]
    if abs(value - s.value) > tol:
        out.append(f"{where}: value {s.value!r} != recomputed {value!r}")
    gap = float(np.mean(y)) - value
    if abs(gap - s.gap) > tol:
        out.append(f"{where}: gap {s.gap!r} != recomputed {gap!r}")
    if s.certified and gap > gap_tol + tol:
        out.append(f"{where}: certified but gap {gap:.3e} > {gap_tol:.1e}")
    if s.value > _eigvals(h)[-1] + tol:
        out.append(f"{where}: support exceeds the classical support")
    return out


def check_boundary(a: np.ndarray, result, gap_tol: float) -> list[str]:
    """``(RangeBoundary, inner_hull, outer_polygon)``: every support solve;
    the inner hull encloses the witness points and respects every dual
    bound; outer vertex k lies on supporting lines k and k+1."""
    rb, inner, outer = result
    out = []
    for s in rb.samples:
        out.extend(check_support(a, s, gap_tol))
    thetas = np.array([s.theta for s in rb.samples])
    supports = np.array([s.value for s in rb.samples])
    duals = np.array([np.mean(s.dual_y) for s in rb.samples])
    tol = 10.0 * _tol(float(np.linalg.norm(a, 2)))
    inner = np.asarray(inner, dtype=float).reshape(-1, 2)
    outer = np.asarray(outer, dtype=float).reshape(-1, 2)
    proj = np.cos(thetas)[:, None] * inner[:, 0] + np.sin(thetas)[:, None] * inner[:, 1]
    if np.max(proj - duals[:, None]) > tol:
        out.append("inner hull leaves a certified half-plane")
    if len(inner) >= 3:
        n = a.shape[0]
        w = np.array([np.trace(a @ (s.maximizer.vectors @ s.maximizer.vectors.conj().T)) / n for s in rb.samples])
        p, q = inner, np.roll(inner, -1, axis=0)
        cross = (q[:, 0] - p[:, 0])[:, None] * (w.imag - p[:, 1][:, None]) - (q[:, 1] - p[:, 1])[:, None] * (
            w.real - p[:, 0][:, None]
        )
        if np.min(cross) < -tol:
            out.append("a witness point lies outside the inner hull")
    # vertex k of the outer polygon is where supporting lines k and k+1 meet
    lines = ((thetas, supports), (np.roll(thetas, -1), np.roll(supports, -1)))
    if len(outer) != len(thetas) or any(
        np.max(np.abs(np.cos(t) * outer[:, 0] + np.sin(t) * outer[:, 1] - h)) > tol for t, h in lines
    ):
        out.append("outer polygon vertices are not on adjacent supporting lines")
    return out


def check_split(a: np.ndarray, decomposable: bool, result) -> list[str]:
    """``(Decomposition, SosCertificate, VerificationReport)`` for a
    decomposable input, or the ``NotDecomposableError`` for the others."""
    n = a.shape[0]
    tol = _tol(float(np.linalg.norm(a, 2)))
    if not decomposable:
        if not isinstance(result, Exception):
            return ["verdict: decomposed an input built to be non-decomposable"]
        if result.witness is None:
            return ["non-decomposable verdict carries no witness"]
        b = np.asarray(result.witness.matrix)
        out = []
        if np.max(np.abs(b - b.conj().T)) > REL_TOL or np.max(np.abs(np.diag(b) - 1.0)) > REL_TOL:
            out.append("witness is not Hermitian with unit diagonal")
        if _eigvals(b)[0] < -REL_TOL * n:
            out.append("witness is not PSD")
        value = float(np.real(np.trace(a @ b))) / n
        if not value < 0.0:
            out.append(f"witness value {value!r} is not negative")
        if abs(value - result.attained) > tol:
            out.append(f"witness value {value!r} != reported {result.attained!r}")
        return out
    if isinstance(result, Exception):
        return [f"verdict: decomposable input rejected ({type(result).__name__})"]
    dec, cert, report = result
    p = np.asarray(dec.P)
    d = np.asarray(dec.D)
    out = []
    if np.max(np.abs(p - p.conj().T)) > tol or _eigvals(p)[0] < -tol:
        out.append("P is not Hermitian PSD")
    if np.max(np.abs(p + d - a)) > tol:
        out.append("P + D != A")
    if np.any(d[~np.eye(n, dtype=bool)] != 0.0) or abs(np.trace(d)) > tol:
        out.append("D is not a trace-zero diagonal")
    z = a - sum((np.outer(q, q.conj()) for q in cert.coeffs), start=np.zeros_like(a))
    if np.max(np.abs(z - np.diag(np.diag(z)))) > 10.0 * tol or abs(np.trace(z)) > 10.0 * tol:
        out.append("A minus the sum of squares is not a trace-zero diagonal")
    if not report.valid:
        out.append("verify_certificate rejected the certificate")
    return out


def check_seminorm(t: np.ndarray, result) -> list[str]:
    """The reported value is the norm of T - diag(d), d has trace zero, and
    the value lies between max |T_ij| (i != j) and ||T||."""
    d = np.asarray(result.diagonal)
    norm_t = float(np.linalg.norm(t, 2))
    tol = _tol(norm_t)
    out = []
    attained = float(np.linalg.norm(t - np.diag(d), 2))
    if abs(attained - result.value) > tol:
        out.append(f"value {result.value!r} != ||T - diag(d)|| = {attained!r}")
    if abs(np.sum(d)) > tol:
        out.append("diagonal shift does not have trace zero")
    off = np.abs(t - np.diag(np.diag(t)))
    if result.value < float(np.max(off)) - tol or result.value > norm_t + tol:
        out.append("value outside [max off-diagonal entry, ||T||]")
    return out


def check_induced(t: np.ndarray, result, directions: int = 16) -> list[str]:
    """Every sampled trace value lies in the classical numerical range,
    tested against its supporting half-planes at evenly spaced angles."""
    pts = np.asarray(result.points)
    tol = _tol(float(np.linalg.norm(t, 2)))
    for k in range(directions):
        theta = 2.0 * np.pi * k / directions
        bound = _eigvals(_rotated(t, theta))[-1]
        if np.max(np.real(np.exp(-1j * theta) * pts)) > bound + tol:
            return [f"a sampled point leaves the classical range at theta={theta:.4f}"]
    return []


def tamper(workload: str, result):
    """A deliberately wrong copy of a result, which the checks must reject."""
    bad = copy.deepcopy(result)
    if workload == "boundary":
        s = bad[0].samples[0]
        s.dual_y = s.dual_y - 1e-3
    elif workload == "split" and isinstance(bad, Exception):
        bad.witness.matrix[0, 0] = 1.5
    elif workload == "split":
        bad[0].P[0, 0] += 1e-3
    elif workload == "seminorm":
        bad.value += 1e-3
    elif workload == "induced":
        bad.points[0] += 10.0 * (1.0 + np.max(np.abs(bad.points)))
    return bad

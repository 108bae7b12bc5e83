"""Correlation numerical range of a complex matrix.

The range of A is {normalized_trace(A B) : B a correlation matrix}; it is a
compact convex set, so it is computed by support directions.  For the angle
theta the support problem is

    maximize   normalized_trace(H B)   over correlation matrices B,
    H = Re(exp(-i theta) A),

an SDP over the elliptope.  Each solve returns two-sided bounds: the feasible
maximizer B gives the attained value (lower bound), and a real diagonal y
with diag(y) - H PSD gives the upper bound mean(y).  The solver itself is
block-coordinate ascent on a unit-vector Gram factor of B; the dual
certificate turns the heuristic ascent into a rigorous bracket and triggers
restarts at non-global fixed points.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .elliptope import CorrelationMatrix, GramFactor, gram_to_correlation, random_gram
from .errors import RangeNotRealError

FLAG_GAP = "gap_not_closed"
IMPROVE_TOL = 1e-13  # ascent plateau: per-sweep gain at or below this
MAX_SWEEPS = 5000  # ascent sweeps per restart
DIRECTIONS = 256  # default support grid of boundaries, radius and membership

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolveConfig:
    """Solver configuration shared by all support solves.

    The CLI reads its defaults from these fields; restarts must be at least
    1, and seed (never read from the environment) and counter seed every
    random restart.  cancel is an optional zero-argument callable polled
    between ascent chunks and restarts; returning True aborts the solve with
    CancelledError (cooperative cancellation for long batch runs).
    """

    tol: float = 1e-8
    restarts: int = 8
    seed: int = 0
    counter: int = 0
    cancel: object = None

    def derive(self, k: int) -> "SolveConfig":
        """Child config for the k-th subproblem (per-direction seeds)."""
        return replace(self, counter=self.counter * 1000003 + k + 1)

    def rng(self, restart: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.counter, restart])

    def check_cancelled(self) -> None:
        if self.cancel is not None and self.cancel():
            from .errors import CancelledError

            raise CancelledError("solve cancelled")


@dataclass
class SupportResult:
    """Certified solve of one support direction.

    value is attained by the maximizer (lower bound); mean(dual_y) is an
    upper bound whenever diag(dual_y) - H is PSD, which holds for every
    result this module returns (up to the 1e-10 eigenvalue tolerance).
    gap = mean(dual_y) - value.  flags is empty for certified solves and
    contains "gap_not_closed" when the bracket stayed wider than cfg.tol.
    """

    theta: float
    value: float
    maximizer: GramFactor
    witness_point: complex
    dual_y: np.ndarray
    gap: float
    flags: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return FLAG_GAP not in self.flags

    @property
    def minimum(self) -> float:
        """For direction pi the support value is the negated minimum of the
        real range; this is that minimum."""
        return -self.value

    def correlation(self) -> CorrelationMatrix:
        return gram_to_correlation(self.maximizer)


@dataclass
class RangeBoundary:
    """Support solves on a uniform angle grid.

    The support function is 1-Lipschitz in the matrix: changing A to A'
    moves every support value by at most the operator norm of A - A'.
    """

    matrix_hash: str
    samples: list[SupportResult]
    radius: float

    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.samples])

    def supports(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    def witness_points(self) -> np.ndarray:
        return np.array([s.witness_point for s in self.samples])

    def flags(self) -> tuple[str, ...]:
        out: list[str] = []
        for k, s in enumerate(self.samples):
            out.extend(f"{f}@{k}" for f in s.flags)
        return tuple(out)

    def inner_hull(self) -> np.ndarray:
        from .geometry import convex_hull

        pts = self.witness_points()
        return convex_hull(np.column_stack([pts.real, pts.imag]))

    def outer_polygon(self) -> np.ndarray:
        from .geometry import halfplane_polygon

        return halfplane_polygon(self.thetas(), self.supports())


@dataclass
class Containment:
    contains: bool
    margin: float
    inconclusive: bool
    theta_star: float


def matrix_hash(a) -> str:
    m = matcore.as_matrix(a)
    parts = [f"n={m.shape[0]}"]
    for x in m.ravel():
        parts.append(format(x.real, ".17g"))
        parts.append(format(x.imag, ".17g"))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def rotated_hermitian_part(a: np.ndarray, theta: float) -> np.ndarray:
    """Re(exp(-i theta) A) as a Hermitian matrix."""
    s, k = matcore.hermitian_parts(a)
    return math.cos(theta) * s + math.sin(theta) * k


def _ascend(h: np.ndarray, v: np.ndarray, max_sweeps: int, prev: float = -np.inf):
    """Block-coordinate ascent on the Gram rows of B.

    Row update: e_i <- c_i / ||c_i|| with c_i the H-weighted sum of the other
    rows; a zero c_i leaves e_i unchanged (any unit vector is then optimal,
    keeping the current one is the deterministic tie-break).  Returns
    (rows, value, plateaued); plateaued means the per-sweep improvement fell
    below IMPROVE_TOL before the sweep budget ran out.
    """
    n = h.shape[0]
    hoff = h.copy()
    np.fill_diagonal(hoff, 0.0)
    val = prev
    for _ in range(max_sweeps):
        for i in range(n):
            u = hoff[i] @ v
            nu = np.linalg.norm(u)
            if nu > 0.0:
                v[i] = u / nu
        b = v @ v.conj().T
        val = float(np.sum(h * b.T).real) / n
        if val - prev <= IMPROVE_TOL:
            return v, val, True
        prev = val
    return v, val, False


def _start(n: int, restart: int, cfg: SolveConfig) -> np.ndarray:
    if restart == 0:
        return np.eye(n, dtype=np.complex128)
    return random_gram(n, cfg.rng(restart)).vectors


def repair_dual(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uniform shift making diag(y) - H exactly PSD."""
    lam = matcore.hermitian_eigs(np.diag(y) - h).eigenvalues[0]
    return y - lam if lam < 0.0 else y


def polish_dual(h, y0, target, stop_tol=1e-12):
    """Minimize mean(y) over feasible duals diag(y) - H >= 0.

    Short barrier path: damped Newton steps on
    mean(y) - mu * logdet(diag(y) - H) for a decreasing mu schedule.  The
    gradient and Hessian come from the inverse slack matrix; the barrier
    suboptimality at level mu is n*mu, so the final mu puts the mean within
    stop_tol of the true dual optimum.  stop_tol, and so the final mu, is
    floored at 8 n eps (1 + max|H|): below the eigensolves' resolution the
    Newton steps only grow until they overflow.  Returns the best
    exactly-feasible iterate seen (the warm start is kept if no step
    improves on it).
    """
    n = h.shape[0]
    scale = 1.0 + float(np.max(np.abs(h)))
    stop_tol = max(stop_tol, 8.0 * n * np.finfo(float).eps * scale)
    y = repair_dual(h, np.asarray(y0, dtype=float))
    best = y.copy()
    best_mean = float(np.mean(y))
    if best_mean - target <= stop_tol:
        return best
    y = y + 1e-6 * scale  # strictly interior start
    mu = 1e-6 * scale
    while mu > stop_tol / (4.0 * n):
        for _ in range(2):
            dec = matcore.hermitian_eigs(np.diag(y) - h)
            lam = dec.eigenvalues
            if lam[0] <= 0.0:  # fell out of the cone: back off
                y = y - lam[0] + mu
                dec = matcore.hermitian_eigs(np.diag(y) - h)
                lam = dec.eigenvalues
            q = dec.eigenvectors
            zinv = (q / lam[None, :]) @ q.conj().T
            grad = np.full(n, 1.0 / n) - mu * np.diag(zinv).real
            hess = mu * np.abs(zinv) ** 2
            try:
                dy = np.linalg.solve(hess + 1e-300 * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                dy = -grad
            t = 1.0
            for _ in range(30):
                lam_new = matcore.hermitian_eigs(np.diag(y + t * dy) - h).eigenvalues[0]
                if lam_new > 0.0:
                    break
                t *= 0.5
            else:
                t = 0.0
            y = y + t * dy
            yf = repair_dual(h, y)
            mf = float(np.mean(yf))
            if mf < best_mean:
                best_mean = mf
                best = yf
            if best_mean - target <= stop_tol:
                return best
        mu *= 0.1
    return best


def support_direction(a, theta: float, cfg: SolveConfig = SolveConfig()) -> SupportResult:
    """Certified support value of the range of A in direction theta."""
    if cfg.restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {cfg.restarts}")
    a = matcore.as_matrix(a)
    n = a.shape[0]
    h = rotated_hermitian_part(a, theta)

    best_value = -np.inf
    best_v = None
    best_dual = np.inf
    best_y = None
    certified = False
    polishes = 0
    chunk = 150
    for restart in range(cfg.restarts):
        cfg.check_cancelled()
        v = _start(n, restart, cfg)
        value = -np.inf
        sweeps_left = MAX_SWEEPS
        while not certified:
            cfg.check_cancelled()
            v, value, plateaued = _ascend(h, v, min(chunk, sweeps_left), value)
            sweeps_left -= chunk
            b = v @ v.conj().T
            y = repair_dual(h, np.diag(h @ b).real.copy())
            mean_y = float(np.mean(y))
            if value > best_value:
                best_value = value
                best_v = v.copy()
            if mean_y < best_dual:
                best_dual = mean_y
                best_y = y
            if best_dual - best_value <= cfg.tol:
                certified = True
            elif plateaued or sweeps_left <= 0:
                break
        if certified:
            break
        if best_dual - best_value <= 1e-4 and polishes < 2:
            # near miss: the ascent is at the optimum but the slackness-based
            # dual candidate is slightly loose; tighten it directly
            polishes += 1
            y = polish_dual(h, best_y, best_value, stop_tol=cfg.tol / 4.0)
            mean_y = float(np.mean(y))
            if mean_y < best_dual:
                best_dual = mean_y
                best_y = y
            if best_dual - best_value <= cfg.tol:
                certified = True
                break

    gap = best_dual - best_value
    flags = () if certified else (FLAG_GAP,)
    b_best = best_v @ best_v.conj().T
    witness = complex(np.sum(a * b_best.T)) / n
    return SupportResult(
        theta=float(theta),
        value=best_value,
        maximizer=GramFactor(best_v),
        witness_point=witness,
        dual_y=best_y,
        gap=float(gap),
        flags=flags,
    )


def range_boundary(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> RangeBoundary:
    """Support solves at theta_k = 2 pi k / m; the hull of the witness points
    and the intersection of the supporting half-planes sandwich the range."""
    if m < 3:
        raise ValueError("need at least 3 directions")
    a = matcore.as_matrix(a)
    samples = [
        support_direction(a, 2.0 * math.pi * k / m, cfg.derive(k)) for k in range(m)
    ]
    radius = max(s.value for s in samples)
    return RangeBoundary(matrix_hash=matrix_hash(a), samples=samples, radius=radius)


def _refine(a, m: int, cfg: SolveConfig, theta0: float, objective):
    """Golden-section maximum of objective(theta, h(theta)) over theta0 +- 2 pi/m,
    h the support function, to within 1e-6 in theta; the support solves take
    the per-direction seeds that follow the m grid directions, derive(m + 1),
    derive(m + 2), ...  Returns (theta, objective value, flags), each flag
    indexed by its solve's derive counter like the grid's."""
    counter = itertools.count(m + 1)
    flags: list[str] = []

    def f(theta: float) -> float:
        k = next(counter)
        res = support_direction(a, theta, cfg.derive(k))
        flags.extend(f"{flag}@{k}" for flag in res.flags)
        return objective(theta, res.value)

    step = 2.0 * math.pi / m
    lo, hi = theta0 - step, theta0 + step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-6:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2.0, max(f1, f2), tuple(flags)


def radius_full(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> tuple[float, tuple[str, ...]]:
    """Largest modulus over the range: grid maximum of the support values,
    refined by golden section near the argmax.  Returns the radius and the
    flags of every support solve it ran, grid and refinement."""
    a = matcore.as_matrix(a)
    boundary = range_boundary(a, m, cfg)
    values = boundary.supports()
    k = int(np.argmax(values))
    _, refined, flags = _refine(a, m, cfg, boundary.samples[k].theta, lambda t, h: h)
    return max(float(values[k]), float(refined)), boundary.flags() + flags


def radius(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> float:
    return radius_full(a, m, cfg)[0]


def contains(a, point: complex, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> Containment:
    """Membership via supporting half-planes: the point is inside iff
    Re(exp(-i theta) point) <= h(theta) for every direction."""
    a = matcore.as_matrix(a)
    point = complex(point)
    boundary = range_boundary(a, m, cfg)
    values = boundary.supports()
    thetas = boundary.thetas()
    margins = values - (np.cos(thetas) * point.real + np.sin(thetas) * point.imag)
    k = int(np.argmin(margins))
    theta_star, neg, _ = _refine(
        a, m, cfg, thetas[k], lambda t, h: math.cos(t) * point.real + math.sin(t) * point.imag - h
    )
    margin = min(float(margins[k]), float(-neg))
    uncertified = [s.gap for s in boundary.samples if not s.certified]
    gap_bound = max(uncertified) if uncertified else 0.0
    inconclusive = bool(uncertified) and abs(margin) < gap_bound
    return Containment(
        contains=margin >= -1e-9,
        margin=margin,
        inconclusive=inconclusive,
        theta_star=float(theta_star),
    )


def real_range_screen(a) -> np.ndarray:
    """Check that the range is real: the skew part of A must be diagonal with
    zero normalized trace.  Returns the Hermitian part; raises otherwise."""
    a = matcore.as_matrix(a)
    s, k = matcore.hermitian_parts(a)
    scale = 1.0 + float(np.max(np.abs(a)))
    off = k - np.diag(np.diag(k))
    if np.max(np.abs(off)) > 1e-10 * scale:
        raise RangeNotRealError(
            "range is not real: the skew-Hermitian part is not diagonal"
        )
    tau = matcore.normalized_trace(k)
    if abs(tau) > 1e-10:
        raise RangeNotRealError(
            "range is not real: the imaginary diagonal has nonzero mean"
        )
    return s


def min_real_value(a, cfg: SolveConfig = SolveConfig()) -> SupportResult:
    """Certified minimum of a real range, solved as the support direction pi
    of the Hermitian part.  The minimum is the ``minimum`` property (negated
    support value); the witness point attains it."""
    s = real_range_screen(a)
    return support_direction(s, math.pi, cfg)


def classical_support(a, theta: float) -> float:
    """Support of the classical numerical range: the largest eigenvalue of
    the rotated Hermitian part.  Dominates the correlation-range support."""
    a = matcore.as_matrix(a)
    return float(matcore.hermitian_eigs(rotated_hermitian_part(a, theta)).eigenvalues[-1])

"""Correlation numerical range of a complex matrix.

The range of A is {normalized_trace(A B) : B a correlation matrix}; it is a
compact convex set, so it is computed by support directions.  For the angle
theta the support problem is

    maximize   normalized_trace(H B)   over correlation matrices B,
    H = Re(exp(-i theta) A),

an SDP over the elliptope.  Each solve returns two-sided bounds: the feasible
maximizer B gives the attained value (lower bound), and a real diagonal y
with diag(y) - H PSD gives the upper bound mean(y).  Each restart runs one
chunk of block-coordinate ascent on a unit-vector Gram factor of B against
its slackness dual; an open bracket goes to a centred log-det barrier path
on the dual (polish_dual), whose interior end point also yields a primal.
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
MAX_SWEEPS = 150  # ascent sweeps per restart
DIRECTIONS = 256  # default support grid of boundaries, radius and membership

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolveConfig:
    """Solver configuration shared by all support solves.

    The CLI reads its defaults from these fields; restarts must be at least
    1, and seed (never read from the environment) and counter seed every
    random restart.  cancel is an optional zero-argument callable polled
    once per restart; returning True aborts the solve with CancelledError
    (cooperative cancellation for long batch runs).
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

    value is attained by the maximizer (lower bound), Gram rows from an
    ascent chunk; mean(dual_y) is an upper bound, as diag(dual_y) - H is PSD
    (repaired slackness dual) or positive definite (barrier iterate).
    gap = mean(dual_y) - value.  flags is empty for certified solves: gap
    plus the rounding floor of H's off-diagonal part is at most cfg.tol.
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


def _ascend(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Block-coordinate ascent on the Gram rows of B.

    Row update: e_i <- c_i / ||c_i|| with c_i the H-weighted sum of the other
    rows; a zero c_i leaves e_i unchanged (any unit vector is then optimal,
    keeping the current one is the deterministic tie-break).  Runs until the
    per-sweep improvement falls to IMPROVE_TOL, at most MAX_SWEEPS sweeps, and
    returns the rows.
    """
    n = h.shape[0]
    hoff = h.copy()
    np.fill_diagonal(hoff, 0.0)
    prev = -np.inf
    for _ in range(MAX_SWEEPS):
        for i in range(n):
            u = hoff[i] @ v
            nu = math.sqrt(np.vdot(u, u).real)
            if nu > 0.0:
                v[i] = u / nu
        val = float(np.vdot(v, h @ v).real) / n
        if val - prev <= IMPROVE_TOL:
            break
        prev = val
    return v


def _start(n: int, restart: int, cfg: SolveConfig) -> np.ndarray:
    if restart == 0:
        return np.eye(n, dtype=np.complex128)
    return random_gram(n, cfg.rng(restart)).vectors


def repair_dual(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uniform shift making diag(y) - H exactly PSD."""
    lam = matcore.hermitian_eigs(np.diag(y) - h).eigenvalues[0]
    return y - lam if lam < 0.0 else y


def _rounding_floor(h: np.ndarray) -> float:
    """8 n eps (1 + max|H|): the resolution of mean(y) and of tr(HB)/n."""
    return 8.0 * h.shape[0] * np.finfo(float).eps * (1.0 + float(np.max(np.abs(h))))


def polish_dual(h, y0, target, stop_tol=1e-12):
    """Minimize mean(y) over feasible duals diag(y) - H >= 0.

    Centred barrier path: damped Newton steps on mean(y) - mu logdet(diag(y)
    - H), with a Cholesky line search and an Armijo test, until the decrement
    is at most 1e-3 mu; mu starts at (mean(y0) - target) / n, shrinks 10x per
    level and ends once n mu <= stop_tol / 4, with stop_tol floored at
    8 n eps (1 + max|H|).  At a centred point the unit-diagonal rescaling of
    (diag(y) - H)^-1 is a primal within about n mu of mean(y).  Returns the
    repaired warm start if it is within stop_tol of target, else the last
    centred iterate, which is strictly interior.
    """
    n = h.shape[0]
    eps_floor = _rounding_floor(h)
    stop_tol = max(stop_tol, eps_floor)
    y = repair_dual(h, np.asarray(y0, dtype=float))
    gap = float(np.mean(y)) - target
    if gap <= stop_tol:
        return y
    mu = gap / n
    y = y + gap  # strictly interior start: gap exceeds the rounding floor

    def barrier(y):
        """Barrier value and Cholesky factor L of diag(y) - H; (inf, None) outside."""
        try:
            c = np.linalg.cholesky(np.diag(y) - h)
        except np.linalg.LinAlgError:
            return np.inf, None
        return float(np.mean(y)) - 2.0 * mu * float(np.sum(np.log(np.diag(c).real))), c

    while True:
        f, c = barrier(y)
        if c is None:  # rounding put the start outside the cone
            return y - gap
        for _ in range(100):
            g = np.linalg.inv(c)
            w = g.conj().T @ g  # (diag(y) - H)^-1 = L^-* L^-1, Hermitian by construction
            grad = 1.0 / n - mu * np.diag(w).real
            try:
                dy = np.linalg.solve(mu * np.abs(w) ** 2, -grad)
            except np.linalg.LinAlgError:  # Hessian singular at rounding level
                return y
            slope = float(grad @ dy)
            for t in 0.5 ** np.arange(30):
                f_new, c_new = barrier(y + t * dy)
                if f_new <= f + 0.25 * t * slope + eps_floor:
                    break
            else:
                break
            y, f, c = y + t * dy, f_new, c_new
            if -slope <= 1e-3 * mu:
                break
        if n * mu <= stop_tol / 4.0:
            return y
        mu *= 0.1


def support_direction(a, theta: float, cfg: SolveConfig = SolveConfig()) -> SupportResult:
    """Certified support value of the range of A in direction theta.

    Each restart runs one ascent chunk and checks it against its slackness
    dual; if that bracket is open, polish_dual's barrier path tightens the
    dual, and a second ascent chunk from its interior primal tightens the
    primal.  The result keeps the best primal and the best dual seen."""
    if cfg.restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {cfg.restarts}")
    a = matcore.as_matrix(a)
    n = a.shape[0]
    h = rotated_hermitian_part(a, theta)
    # B's unit diagonal makes diag(H) add mean(d) to every value; solving
    # without it keeps its rounding out of diag(y) - H and of the gap
    d = np.diag(h).real
    h = h - np.diag(d)
    floor = _rounding_floor(h)  # certify a gap of tol only with rounding counted

    best_value, best_v, best_dual, best_y = -np.inf, None, np.inf, None

    def keep(v, y) -> bool:
        nonlocal best_value, best_v, best_dual, best_y
        value = float(np.vdot(v, h @ v).real) / n
        if value > best_value:
            best_value, best_v = value, v
        if float(np.mean(y)) < best_dual:
            best_dual, best_y = float(np.mean(y)), y
        return best_dual - best_value + floor <= cfg.tol

    for restart in range(cfg.restarts):
        cfg.check_cancelled()
        v = _ascend(h, _start(n, restart, cfg))
        if keep(v, repair_dual(h, np.sum((h @ v) * v.conj(), axis=1).real)):
            break
        y = polish_dual(h, best_y, best_value, stop_tol=cfg.tol / 4.0)
        try:  # rows of the unit-diagonal rescaling of (diag(y) - H)^-1 = G* G,
            # G = L^-1 for the Cholesky factor L; ascent polishes that primal
            g = np.linalg.inv(np.linalg.cholesky(np.diag(y) - h))
            v = _ascend(h, (g / np.linalg.norm(g, axis=0)).conj().T)
        except np.linalg.LinAlgError:  # a warm start on the cone's boundary
            pass
        if keep(v, y):
            break

    gap = best_dual - best_value
    return SupportResult(
        theta=float(theta),
        value=best_value + float(np.mean(d)),
        maximizer=GramFactor(best_v),
        witness_point=complex(np.vdot(best_v, a @ best_v)) / n,
        dual_y=best_y + d,
        gap=float(gap),
        flags=() if gap + floor <= cfg.tol else (FLAG_GAP,),
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

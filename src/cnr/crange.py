"""Correlation numerical range of a complex matrix.

The range of A is {normalized_trace(A B) : B a correlation matrix}; it is a
compact convex set, so it is computed by support directions.  For the angle
theta the support problem is

    maximize   normalized_trace(H B)   over correlation matrices B,
    H = Re(exp(-i theta) A),

an SDP over the elliptope.  Each solve returns two-sided bounds: the feasible
maximizer B gives the attained value (lower bound), and a real diagonal y
with diag(y) - H PSD gives the upper bound mean(y).  Each solve runs one
chunk of block-coordinate ascent on a unit-vector Gram factor of B, from
B = I, against its slackness dual; an open bracket goes to a centred log-det
barrier path on the dual (polish_dual, on the path routine _centred_path
that the seminorm also follows), whose interior end point also yields a
primal.  Solves are deterministic and take no seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .elliptope import CorrelationMatrix, GramFactor, gram_to_correlation
from .errors import RangeNotRealError
from .geometry import convex_hull, halfplane_polygon

FLAG_GAP = "gap_not_closed"
IMPROVE_TOL = 1e-13  # ascent plateau: per-sweep gain at or below this
MAX_SWEEPS = 150  # sweeps per ascent chunk
DIRECTIONS = 256  # default support grid of boundaries, radius and membership

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolveConfig:
    """Solver configuration shared by all support solves.

    tol is the certification gap tolerance; one that is not positive and
    finite is rejected here, when the setting is made, and the CLI reads its
    default here.  Nothing reads seed: support solves are deterministic.  It
    stays only because perfbench/workloads.py still passes it, and goes once
    ROADMAP item 1 drops that argument.
    """

    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


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
        pts = self.witness_points()
        return convex_hull(np.column_stack([pts.real, pts.imag]))

    def outer_polygon(self) -> np.ndarray:
        return halfplane_polygon(self.thetas(), self.supports())


@dataclass
class Containment:
    contains: bool
    margin: float
    inconclusive: bool
    theta_star: float


def rotated_hermitian_part(a: np.ndarray, theta: float) -> np.ndarray:
    """Re(exp(-i theta) A) as a Hermitian matrix."""
    s, k = matcore.hermitian_parts(a)
    return math.cos(theta) * s + math.sin(theta) * k


def _ascend(h: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Block-coordinate ascent on the Gram rows of B.

    Row update: e_i <- c_i / ||c_i|| with c_i the H-weighted sum of the other
    rows; a zero c_i leaves e_i unchanged (any unit vector is then optimal,
    keeping the current one is the deterministic tie-break).  Runs until the
    per-sweep improvement falls to IMPROVE_TOL, at most MAX_SWEEPS sweeps, and
    returns the rows with their value Re tr(H V V*) / n.
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
    return v, val


def repair_dual(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uniform shift making diag(y) - H exactly PSD."""
    lam = matcore.hermitian_eigs(np.diag(y) - h).eigenvalues[0]
    return y - lam if lam < 0.0 else y


def _rounding_floor(h: np.ndarray) -> float:
    """8 n eps (1 + max|H|): the resolution of mean(y) and of tr(HB)/n."""
    return 8.0 * h.shape[0] * np.finfo(float).eps * (1.0 + float(np.max(np.abs(h))))


# Centred barrier path, shared by polish_dual and metrics._barrier: damped
# Newton steps centre each mu level, up to and including one with decrement
# -grad.step <= PATH_TOL * mu (PATH_STEPS is only a safety stop: the slowest
# level seen takes 11 steps on the seminorm at n <= 16, benchmark inputs and
# the masked-sparse input of test_seminorm_centres_slow_levels alike, and 9
# on support solves at n <= 32); then mu shrinks by PATH_SHRINK.  A step of
# Newton decrement lam starts at length 1/(1 + lam) if lam > 1/4, else 1,
# and is halved, at most 40 times, until it stays in the cone.
PATH_TOL = 1e-6
PATH_STEPS = 100
PATH_SHRINK = 0.02


def _inverse_factor(m):
    """L^-1 for the Cholesky factor L of the Hermitian matrix m, or None if m
    is not positive definite; numpy factors NaN input into a NaN factor
    without raising, so a factor that is not finite is refused too."""
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(c) if np.isfinite(c).all() else None


def _centred_path(slack, newton, x, mu, stop, level=None):
    """Follow the path of minimizers of c.x - mu logdet(slack(x)), for a cost
    c that only newton sees.

    slack(x) is a Hermitian matrix, affine in the real vector x; x must make
    it positive definite, else LinAlgError is raised.  newton(w, mu) returns
    the gradient and the Newton step at the iterate x with w = slack(x)^-1,
    formed once per accepted step; a LinAlgError from it ends the level.
    Its matrix must be the exact Hessian, so that lam = sqrt(-grad.step / mu)
    is the step's local norm: the damped step 1/(1 + lam) then stays in the
    Dikin ellipsoid, hence in the cone, and lowers the merit by at least
    mu (lam - ln(1 + lam)) > 0, so no merit is evaluated: a trial step is
    taken once slack(x) has a finite Cholesky factor.  After each level,
    level(slack(x)^-1) is called if given; it must not modify its argument,
    which the next Newton system reads.  The path ends once stop(mu) holds.
    Returns the last centred iterate, which is strictly interior.
    """
    g = _inverse_factor(slack(x))
    if g is None:
        raise np.linalg.LinAlgError("the path must start inside the cone")
    w = g.conj().T @ g  # slack^-1 = L^-* L^-1, Hermitian by construction
    while True:
        for _ in range(PATH_STEPS):
            try:
                grad, dx = newton(w, mu)
            except np.linalg.LinAlgError:  # Newton system singular at rounding level
                break
            decrement = -float(grad @ dx)
            lam = math.sqrt(max(decrement / mu, 0.0))
            t0 = 1.0 / (1.0 + lam) if lam > 0.25 else 1.0
            for t in (t0 * 0.5**k for k in range(40)):
                x_new = x + t * dx
                g = _inverse_factor(slack(x_new))
                if g is not None:
                    break
            else:
                break
            x, w = x_new, g.conj().T @ g
            if decrement <= PATH_TOL * mu:
                break
        if level is not None:
            level(w)
        if stop(mu):
            return x
        mu *= PATH_SHRINK


def polish_dual(h, y0, target, stop_tol):
    """Minimize mean(y) over feasible duals diag(y) - H >= 0.

    Follows _centred_path on mean(y) - mu logdet(diag(y) - H) from the
    repaired warm start shifted up by its gap to target; mu starts at that
    gap / n and the path ends once n mu <= stop_tol / 4, with stop_tol
    floored at 8 n eps (1 + max|H|).  At a centred point the unit-diagonal
    rescaling of (diag(y) - H)^-1 is a primal within about n mu of mean(y).
    Returns the repaired warm start if it is within stop_tol of target, else
    the last centred iterate, which is strictly interior.
    """
    n = h.shape[0]
    stop_tol = max(stop_tol, _rounding_floor(h))
    y = repair_dual(h, np.asarray(y0, dtype=float))
    gap = float(np.mean(y)) - target
    if gap <= stop_tol:
        return y

    def newton(w, mu):
        grad = 1.0 / n - mu * np.diag(w).real
        return grad, np.linalg.solve(mu * np.abs(w) ** 2, -grad)

    try:  # strictly interior start: gap exceeds the rounding floor
        return _centred_path(
            lambda y: np.diag(y) - h, newton, y + gap, gap / n,
            lambda mu: n * mu <= stop_tol / 4.0,
        )
    except np.linalg.LinAlgError:  # rounding put the start outside the cone
        return y


def support_direction(a, theta: float, cfg: SolveConfig = SolveConfig()) -> SupportResult:
    """Certified support value of the range of A in direction theta.

    One ascent chunk from B = I is checked against its slackness dual; if
    that bracket is open, polish_dual's barrier path tightens the dual, and
    a second ascent chunk from its interior primal tightens the primal.  The
    result keeps the better primal, and the polished dual unless the repaired
    one is lower by more than the rounding floor; it is flagged
    gap_not_closed if they are still more than cfg.tol apart."""
    a = matcore.as_matrix(a)
    n = a.shape[0]
    h = rotated_hermitian_part(a, theta)
    # B's unit diagonal makes diag(H) add mean(d) to every value; solving
    # without it keeps its rounding out of diag(y) - H and of the gap
    d = np.diag(h).real
    h = h - np.diag(d)
    floor = _rounding_floor(h)  # certify a gap of tol only with rounding counted

    v, value = _ascend(h, np.eye(n, dtype=np.complex128))
    y = repair_dual(h, np.sum((h @ v) * v.conj(), axis=1).real)
    if float(np.mean(y)) - value + floor > cfg.tol:
        y_polished = polish_dual(h, y, value, stop_tol=cfg.tol / 4.0)
        # the polished dual has a Cholesky factor, the repaired one need not:
        # keep the repaired one only if it is lower beyond rounding
        if float(np.mean(y_polished)) < float(np.mean(y)) + floor:
            y = y_polished
        # rows of the unit-diagonal rescaling of (diag(y) - H)^-1 = G* G,
        # G = L^-1 for the Cholesky factor L; ascent polishes that primal
        g = _inverse_factor(np.diag(y_polished) - h)
        if g is not None:  # else a warm start on the cone's boundary
            v_polished, value_polished = _ascend(h, (g / np.linalg.norm(g, axis=0)).conj().T)
            if value_polished > value:
                v, value = v_polished, value_polished

    gap = float(np.mean(y)) - value
    return SupportResult(
        theta=float(theta),
        value=value + float(np.mean(d)),
        maximizer=GramFactor(v),
        witness_point=complex(np.vdot(v, a @ v)) / n,
        dual_y=y + d,
        gap=gap,
        flags=() if gap + floor <= cfg.tol else (FLAG_GAP,),
    )


def check_directions(m: int) -> None:
    """Reject a support grid of fewer than 3 directions, whose supporting
    half-planes cannot bound the range."""
    if m < 3:
        raise ValueError("need at least 3 directions")


def range_boundary(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> RangeBoundary:
    """Support solves at theta_k = 2 pi k / m; the hull of the witness points
    and the intersection of the supporting half-planes sandwich the range."""
    check_directions(m)
    a = matcore.as_matrix(a)
    samples = [support_direction(a, 2.0 * math.pi * k / m, cfg) for k in range(m)]
    radius = max(s.value for s in samples)
    return RangeBoundary(samples=samples, radius=radius)


def _refine(a, m: int, cfg: SolveConfig, theta0: float, objective):
    """Golden-section maximum of objective(theta, h(theta)) over theta0 +- 2 pi/m,
    h the support function, to within 1e-6 in theta.  Returns (theta,
    objective value, flags); the flags of its support solves are indexed
    m + 1, m + 2, ..., after the m grid directions."""
    index = itertools.count(m + 1)
    flags: list[str] = []

    def f(theta: float) -> float:
        k = next(index)
        res = support_direction(a, theta, cfg)
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
    Re(exp(-i theta) point) <= h(theta) for every direction.  A point whose
    modulus overflows is rejected before any solve (by math.hypot, which
    returns inf where abs() raises OverflowError)."""
    point = complex(point)
    if not math.isfinite(math.hypot(point.real, point.imag)):
        raise ValueError(f"point must be finite, with a finite modulus, got {point}")
    a = matcore.as_matrix(a)
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

"""Correlation numerical range of a complex matrix.

The range of A is {normalized_trace(A B) : B a correlation matrix}; it is a
compact convex set, so it is computed by support directions.  For the angle
theta the support problem is

    maximize   normalized_trace(H B)   over correlation matrices B,
    H = Re(exp(-i theta) A),

an SDP over the elliptope.  Each solve returns two-sided bounds: the feasible
maximizer B gives the attained value (lower bound), and a real diagonal y
with diag(y) - H PSD gives the upper bound mean(y).

A grid of directions (range_boundary) is one stacked solve: a long-step
log-det barrier path on the dual of every direction at once (polish_dual
on a stack, on the path routine _centred_path that the seminorm also
follows), whose centred interior end points also yield the primals.  Each
direction follows its own path, so no grid sample depends on another or on
the order of the directions.  One direction, as the golden-section refinement of
radius and contains solves it, runs one chunk of block-coordinate ascent on
a unit-vector Gram factor of B, from B = I or from the previous
direction's maximizer, against its slackness dual; an open bracket goes to
the same barrier path for that one matrix.  The refinement chains its
solves, and a rank-deficient start can stall its ascent (a row update keeps
the rows in the span of the current ones); the bracket that leaves open
goes to polish_dual as above.  Solves are deterministic and take no seed.
"""

from __future__ import annotations

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
    ascent chunk or from the barrier's primal; mean(dual_y) is an upper
    bound, as diag(dual_y) - H is PSD (repaired slackness dual) or positive
    definite (barrier iterate).
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

    def uppers(self) -> np.ndarray:
        """value + gap of each sample: its dual bound, at or above h(theta_k)."""
        return np.array([s.value + s.gap for s in self.samples])

    def witness_points(self) -> np.ndarray:
        return np.array([s.witness_point for s in self.samples])

    def flags(self) -> tuple[str, ...]:
        return _indexed_flags(self.samples)

    def margin(self, points) -> float:
        """Least slack u_k - Re(exp(-i theta_k) z) over the grid and the
        complex points z, u_k the dual bound of sample k (uppers): negative
        only if a point is outside a proven supporting half-plane."""
        thetas, points = self.thetas(), np.asarray(points, dtype=np.complex128)
        proj = np.cos(thetas)[:, None] * points.real + np.sin(thetas)[:, None] * points.imag
        return float(np.min(self.uppers()[:, None] - proj))

    def inner_hull(self) -> np.ndarray:
        pts = self.witness_points()
        return convex_hull(np.column_stack([pts.real, pts.imag]))

    def outer_polygon(self) -> np.ndarray:
        """Intersection of the half-planes at the dual bounds (uppers), which
        contains the range."""
        return halfplane_polygon(self.thetas(), self.uppers())


def _indexed_flags(solves, first: int = 0) -> tuple[str, ...]:
    """Each flag of each solve as flag@k, k the solve's index from first."""
    return tuple(f"{flag}@{k}" for k, s in enumerate(solves, first) for flag in s.flags)


@dataclass
class Containment:
    contains: bool
    margin: float
    inconclusive: bool
    theta_star: float
    flags: tuple[str, ...]


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


def _slack(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """diag(y) - H; for an (m, n, n) stack of H, one per row of the (m, n) y."""
    return np.diag(y) - h if h.ndim == 2 else y[..., None] * np.eye(h.shape[-1]) - h


def repair_dual(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uniform shift making diag(y) - H exactly PSD; for a stack of H, each
    row of y gets its own shift."""
    lam = matcore.hermitian_eigs(_slack(y, h)).eigenvalues[..., :1]
    return y - np.minimum(lam, 0.0)


def _rounding_floor(h: np.ndarray):
    """8 n eps (1 + max|H|): the resolution of mean(y) and of tr(HB)/n; one
    per matrix of a stack."""
    return 8.0 * h.shape[-1] * np.finfo(float).eps * (1.0 + np.max(np.abs(h), axis=(-2, -1)))


# Centred barrier path, shared by polish_dual and metrics._barrier, a
# long-step path (Nesterov and Nemirovski 1994): a level before the last
# ends at its first full-length Newton step, one of decrement lam <= 1/4,
# which leaves the iterate in the quadratic region of the next level; the
# last level, and every level of a path with a level hook, is centred up to
# and including a step with decrement -grad.step <= PATH_TOL * mu, or one
# that does not lower the decrement below the step before it (rounding has
# then stalled the level); then mu shrinks by PATH_SHRINK.  A step that
# leaves the iterate in place, all of it lost to rounding or none of its
# trials in the cone, ends any level: the next would repeat it.  PATH_STEPS
# is only a safety stop: the slowest level seen takes 11 steps, on the
# seminorm at n <= 16 (benchmark inputs and the masked-sparse input of
# test_seminorm_centres_slow_levels alike) and on support solves at
# n <= 32.  A step of Newton decrement lam starts at length 1/(1 + lam)
# if lam > 1/4, else 1, and is halved, at most 40 times, until it stays in
# the cone.
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


def _inverse_factors(m):
    """_inverse_factor of each matrix of the stack m: (G, ok), ok marking the
    matrices that have a finite Cholesky factor L and G holding their L^-1
    (NaN for the others).  np.linalg.cholesky raises for the whole stack if
    one matrix is not positive definite; each is then factored alone."""
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        gs = [_inverse_factor(mj) for mj in m]
        ok = np.array([g is not None for g in gs])
        return np.array([np.full_like(mj, np.nan) if g is None else g for g, mj in zip(gs, m)]), ok
    ok = np.isfinite(c).all(axis=(-2, -1))
    if ok.all():
        return np.linalg.inv(c), ok
    g = np.full_like(c, np.nan)
    g[ok] = np.linalg.inv(c[ok])
    return g, ok


def _gram(g):
    """G* G, for G = L^-1 and L the Cholesky factor of a slack matrix: its
    inverse, Hermitian by construction; of each matrix of a stack."""
    return g.conj().swapaxes(-1, -2) @ g


def _primal_rows(g):
    """Gram rows of the unit-diagonal rescaling of G* G (of each of a stack),
    the primal of a barrier point with slack inverse G* G."""
    return (g / np.linalg.norm(g, axis=-2, keepdims=True)).conj().swapaxes(-1, -2)


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
    taken once slack(x) has a finite Cholesky factor.  A level where
    stop(mu) does not hold ends at its first step with lam <= 1/4; the last
    is centred to a decrement of PATH_TOL mu, or until a step in that region
    stops lowering it; a step that leaves x in place ends any level (see
    PATH_TOL).  With a level hook every level is centred that way, and
    level(slack(x)^-1) is called after each; it must not modify its
    argument, which the next Newton system reads.  The path ends once
    stop(mu) holds.  Returns the last iterate, strictly interior.

    A 2-D x is a stack of iterates, one row per matrix, and mu an array of
    their levels; _centred_stack follows each matrix's path on it, and
    calls no level hook.
    """
    if x.ndim == 2:
        return _centred_stack(slack, newton, x, mu, stop)
    g = _inverse_factor(slack(x))
    if g is None:
        raise np.linalg.LinAlgError("the path must start inside the cone")
    w = _gram(g)
    while True:
        last = stop(mu)
        centre = last or level is not None  # else end at the first full step
        prev = math.inf
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
            if np.array_equal(x_new, x):  # rounding lost the step: the next repeats it
                break
            x, w = x_new, _gram(g)
            if decrement <= PATH_TOL * mu or (lam <= 0.25 and not (centre and decrement < prev)):
                break
            prev = decrement
        if level is not None:
            level(w)
        if last:
            return x
        mu *= PATH_SHRINK


def _centred_stack(slack, newton, x, mu, stop):
    """_centred_path on a stack: row j of x follows matrix j's path with its
    own mu[j], Newton decrement, damped step, halving and level ends, as it
    would alone.  Each round takes one step on every matrix still on the
    path, its first trial on the whole stack; only the rows whose trial left
    the cone are halved, on their own.  A matrix leaves at the end of the
    level where stop holds, and its row is final.

    The callbacks work on the rows still on the path: slack(x, k) and
    stop(mu, k) also receive k, the stack indices of those rows, and
    newton(w, mu) takes them in that order.  If one Newton system
    of the stack is singular, each is solved alone, and those that are
    singular take a zero step, which leaves the row in place and so ends its
    level; a stacked Cholesky factorisation falls back in the same way
    (_inverse_factors)."""
    x, mu = np.array(x, dtype=float), np.array(mu, dtype=float)
    k = np.arange(len(x))  # stack indices of the rows still on the path
    g, ok = _inverse_factors(slack(x, k))
    if not ok.all():
        raise np.linalg.LinAlgError("the path must start inside the cone")
    out, w, steps = x.copy(), _gram(g), np.zeros(len(k), dtype=int)
    prev = np.full(len(k), np.inf)  # each row's last decrement on its level
    while k.size:
        try:
            grad, dx = newton(w, mu)
        except np.linalg.LinAlgError:  # one system is singular: solve each alone
            grad, dx = np.zeros_like(x), np.zeros_like(x)
            for j in range(len(k)):
                try:
                    (grad[j],), (dx[j],) = newton(w[j : j + 1], mu[j : j + 1])
                except np.linalg.LinAlgError:
                    pass
        decrement = -np.einsum("ij,ij->i", grad, dx)
        lam = np.sqrt(np.maximum(decrement / mu, 0.0))
        t = np.where(lam > 0.25, 1.0 / (1.0 + lam), 1.0)
        x_old, x_new = x, x + t[:, None] * dx
        g, ok = _inverse_factors(slack(x_new, k))
        if ok.all():
            x, w = x_new, _gram(g)
        else:  # halve the steps that left the cone, on those rows alone
            x = x.copy()
            x[ok], w[ok] = x_new[ok], _gram(g[ok])
            j = np.flatnonzero(~ok)
            for _ in range(39):
                t[j] *= 0.5
                x_new = x[j] + t[j, None] * dx[j]
                g, ok = _inverse_factors(slack(x_new, k[j]))
                x[j[ok]], w[j[ok]] = x_new[ok], _gram(g[ok])
                j = j[~ok]
                if not j.size:
                    break
        steps += 1
        last = stop(mu, k)
        # a full step ends the level, unless it is the last and still centring
        settled = (lam <= 0.25) & ~(last & (decrement < prev))
        # so does a row left in place, by rounding or by no step in the cone:
        # its next step would repeat this one
        idle = (x == x_old).all(axis=1)
        ended = idle | (decrement <= PATH_TOL * mu) | settled | (steps == PATH_STEPS)
        leave = ended & last
        mu[ended] *= PATH_SHRINK
        steps[ended], prev = 0, np.where(ended, np.inf, decrement)
        if leave.any():
            out[k[leave]] = x[leave]
            keep = ~leave
            k, x, w, mu, steps, prev = k[keep], x[keep], w[keep], mu[keep], steps[keep], prev[keep]
    return out


def polish_dual(h, y0, target, stop_tol):
    """Minimize mean(y) over feasible duals diag(y) - H >= 0.

    Follows _centred_path on mean(y) - mu logdet(diag(y) - H) from the
    repaired warm start shifted up by its gap to target; mu starts at that
    gap / n and the path ends once n mu <= stop_tol / 4, with stop_tol
    floored at 8 n eps (1 + max|H|); only that last level is centred, the
    ones before end at their first full Newton step.  At a centred point the
    unit-diagonal rescaling of (diag(y) - H)^-1 is a primal within about
    n mu of mean(y).  Returns the repaired warm start if it is within
    stop_tol of target, else the path's end point, which is strictly
    interior.

    An (m, n, n) stack of H is polished on one stacked path, each matrix as
    it would be alone, with y0 broadcast to (m, n) and target to (m,).
    """
    n = h.shape[-1]
    stop_tol = np.maximum(stop_tol, _rounding_floor(h))
    y = repair_dual(h, np.broadcast_to(np.asarray(y0, dtype=float), h.shape[:-1]))
    gap = np.mean(y, axis=-1) - target
    if h.ndim == 3:
        return _polish_stack(h, y, gap, stop_tol)
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


def _polish_stack(h, y, gap, stop_tol):
    """polish_dual's path for the stack h from its repaired duals y, whose
    gaps and stopping tolerances are one per matrix."""
    n = h.shape[-1]
    k = np.flatnonzero(gap > stop_tol)
    # rounding can put a shifted start outside the cone: that matrix keeps y
    k = k[_inverse_factors(_slack(y[k] + gap[k, None], h[k]))[1]]
    if not k.size:
        return y

    def newton(w, mu):
        grad = 1.0 / n - mu[:, None] * np.diagonal(w, axis1=1, axis2=2).real
        return grad, np.linalg.solve(mu[:, None, None] * np.abs(w) ** 2, -grad[..., None])[..., 0]

    y[k] = _centred_path(
        lambda x, j: _slack(x, h[k[j]]), newton, y[k] + gap[k, None], gap[k] / n,
        lambda mu, j: n * mu <= stop_tol[k[j]] / 4.0,
    )
    return y


def support_direction(
    a, theta, cfg: SolveConfig = SolveConfig(), *, start: SupportResult | None = None
) -> SupportResult | SupportResults:
    """Certified support value of the range of A in direction theta.

    One ascent chunk is checked against its slackness dual; it starts from
    B = I or, if start (the solve of a nearby direction) is given, from a
    copy of start's Gram rows, which must be n x n, else ValueError.  If
    that bracket is open, polish_dual's barrier path tightens the dual, and
    a second ascent chunk from its interior primal tightens the primal.  The
    result keeps the better primal, and the polished dual unless the repaired
    one is lower by more than the rounding floor; it is flagged
    gap_not_closed if they are still more than cfg.tol apart.

    A 1-D array theta is solved as one stack by _support_stack, which returns
    one SupportResult per angle and takes no start.  One direction is faster
    on the ascent above, many on the stacked barrier path."""
    a = matcore.as_matrix(a)
    if np.ndim(theta) == 1:
        if start is not None:
            raise ValueError("start is for a single theta")
        return _support_stack(a, np.asarray(theta, dtype=float), cfg)
    n = a.shape[0]
    if start is None:
        v0 = np.eye(n, dtype=np.complex128)
    elif start.maximizer.vectors.shape == (n, n):
        v0 = np.array(start.maximizer.vectors, dtype=np.complex128)  # _ascend writes its rows
    else:
        raise ValueError(f"start's maximizer must be {n} x {n}, got shape {start.maximizer.vectors.shape}")
    h = rotated_hermitian_part(a, theta)
    # B's unit diagonal makes diag(H) add mean(d) to every value; solving
    # without it keeps its rounding out of diag(y) - H and of the gap
    d = np.diag(h).real
    h = h - np.diag(d)
    floor = _rounding_floor(h)  # certify a gap of tol only with rounding counted

    v, value = _ascend(h, v0)
    y = repair_dual(h, np.sum((h @ v) * v.conj(), axis=1).real)
    if float(np.mean(y)) - value + floor > cfg.tol:
        y_polished = polish_dual(h, y, value, stop_tol=cfg.tol / 4.0)
        # the polished dual has a Cholesky factor, the repaired one need not:
        # keep the repaired one only if it is lower beyond rounding
        if float(np.mean(y_polished)) < float(np.mean(y)) + floor:
            y = y_polished
        # ascent polishes the unit-diagonal rescaling of (diag(y) - H)^-1
        g = _inverse_factor(np.diag(y_polished) - h)
        if g is not None:  # else a warm start on the cone's boundary
            v_polished, value_polished = _ascend(h, _primal_rows(g))
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


class SupportResults(list):
    """The SupportResult of each angle of one stacked solve, in their order;
    certified answers for all of them what it answers for one."""

    @property
    def certified(self) -> bool:
        return all(s.certified for s in self)


def _support_stack(a: np.ndarray, thetas: np.ndarray, cfg: SolveConfig) -> SupportResults:
    """support_direction at each angle of thetas, from one stacked barrier
    solve.  B = I attains 0 on every H_k without its diagonal, so the dual
    is polish_dual(H, 0, 0, cfg.tol / 4), started from repair_dual(H, 0) =
    lambda_max(H_k) 1.  The primal is the unit-diagonal rescaling of
    (diag(y_k) - H_k)^-1, or B = I where that has no Cholesky factor (a dual
    left on the cone's boundary, as for H_k = 0) or attains less than 0.
    Certified as support_direction certifies, with the same rounding floor."""
    n = a.shape[0]
    s, k = matcore.hermitian_parts(a)
    h = np.cos(thetas)[:, None, None] * s + np.sin(thetas)[:, None, None] * k
    d = np.diagonal(h, axis1=1, axis2=2).real
    h = h - d[..., None] * np.eye(n)
    floor = _rounding_floor(h)
    y = polish_dual(h, 0.0, 0.0, cfg.tol / 4.0)
    g, ok = _inverse_factors(_slack(y, h))
    v = np.broadcast_to(np.eye(n, dtype=np.complex128), h.shape).copy()
    v[ok] = _primal_rows(g[ok])
    value = np.sum(v.conj() * (h @ v), axis=(1, 2)).real / n
    v[value < 0.0], value = np.eye(n), np.maximum(value, 0.0)
    gap = np.mean(y, axis=1) - value
    value += np.mean(d, axis=1)
    witness = np.sum(v.conj() * (a @ v), axis=(1, 2)) / n
    stacked = (
        SupportResult(
            theta=float(thetas[j]),
            value=float(value[j]),
            maximizer=GramFactor(v[j]),
            witness_point=complex(witness[j]),
            dual_y=y[j] + d[j],
            gap=float(gap[j]),
            flags=() if gap[j] + floor[j] <= cfg.tol else (FLAG_GAP,),
        )
        for j in range(len(thetas))
    )
    # near a sub-precision tol the barrier's primal can fall short; a bracket
    # left open gets the one-direction solve from that primal, if narrower
    return SupportResults(
        r if r.certified else min(r, support_direction(a, r.theta, cfg, start=r), key=lambda s: s.gap)
        for r in stacked
    )


def check_directions(m: int) -> None:
    """Reject a support grid of fewer than 3 directions, whose supporting
    half-planes cannot bound the range."""
    if m < 3:
        raise ValueError("need at least 3 directions")


def range_boundary(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> RangeBoundary:
    """Support solves at theta_k = 2 pi k / m, all m as one stacked barrier
    solve, so that no sample depends on another; the hull of the witness
    points and the intersection of the supporting half-planes sandwich the
    range."""
    check_directions(m)
    samples = support_direction(a, 2.0 * math.pi * np.arange(m) / m, cfg)
    return RangeBoundary(samples=samples, radius=max(s.value for s in samples))


def _refine(a, m: int, cfg: SolveConfig, boundary: RangeBoundary, objective):
    """Maximum of objective(theta, h(theta)), h the support function, over
    the m-direction grid boundary, refined by golden section over theta_k
    +- 2 pi/m to within 1e-6 in theta, k the first best grid sample; the
    first refinement solve starts from sample k, each later one from the one
    before.  Returns (theta, value, solves, flags): the final bracket's
    centre, the best of sample k's and the bracket's scores, the grid samples
    then the refinement's, and all their flags, the refinement's indexed
    m + 1, m + 2, ..., after the m grid directions."""
    scores = [objective(s.theta, s.value) for s in boundary.samples]
    best = max(scores)
    sample = boundary.samples[scores.index(best)]
    refined: list[SupportResult] = []

    def f(theta: float) -> float:
        refined.append(support_direction(a, theta, cfg, start=refined[-1] if refined else sample))
        return objective(theta, refined[-1].value)

    step = 2.0 * math.pi / m
    lo, hi = sample.theta - step, sample.theta + step
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
    flags = boundary.flags() + _indexed_flags(refined, m + 1)
    return (lo + hi) / 2.0, max(best, f1, f2), boundary.samples + refined, flags


def radius_full(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> tuple[float, tuple[str, ...]]:
    """Largest modulus over the range: the largest support value on the
    grid, refined by _refine's golden section around it.  Returns the radius
    and the flags of every support solve it ran, grid and refinement."""
    a = matcore.as_matrix(a)
    _, value, _, flags = _refine(a, m, cfg, range_boundary(a, m, cfg), lambda t, h: h)
    return value, flags


def radius(a, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> float:
    return radius_full(a, m, cfg)[0]


def contains(a, point: complex, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()) -> Containment:
    """Membership via supporting half-planes: the margin is the least slack
    h(theta) - Re(exp(-i theta) point) at the attained values, found by
    _refine at theta_star.  The point is outside only if the dual margin,
    the least slack at the dual bounds value + gap over every solve, is
    below -1e-9, so no point of the range is called outside; if the margin
    is below -1e-9 and the dual margin is not, the verdict is inconclusive.
    flags are those of every solve, and the verdict is also inconclusive if
    one of them is open with a gap above |margin|.  A point whose modulus
    overflows is rejected before any solve (by math.hypot, which returns inf
    where abs() raises OverflowError)."""
    point = complex(point)
    if not math.isfinite(math.hypot(point.real, point.imag)):
        raise ValueError(f"point must be finite, with a finite modulus, got {point}")
    a = matcore.as_matrix(a)

    def proj(t: float) -> float:
        return math.cos(t) * point.real + math.sin(t) * point.imag

    theta_star, neg, solves, flags = _refine(a, m, cfg, range_boundary(a, m, cfg), lambda t, h: proj(t) - h)
    margin = 0.0 - neg  # +0.0, not -0.0, on the boundary, as h - Re(...) gives it
    dual_margin = min(s.value + s.gap - proj(s.theta) for s in solves)
    return Containment(
        contains=dual_margin >= -1e-9,
        margin=margin,
        inconclusive=margin < -1e-9 <= dual_margin or any(not s.certified and s.gap > abs(margin) for s in solves),
        theta_star=float(theta_star),
        flags=flags,
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

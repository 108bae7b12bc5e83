"""Correlation numerical range of a complex matrix.

The range of A is {normalized_trace(A B) : B a correlation matrix}; it is a
compact convex set, so it is computed by support directions.  For the angle
theta the support problem is

    maximize   normalized_trace(H B)   over correlation matrices B,
    H = Re(exp(-i theta) A),

an SDP over the elliptope.  Each solve returns two-sided bounds: the feasible
maximizer B gives the attained value (lower bound), and a real diagonal y
with diag(y) - H PSD gives the upper bound mean(y).

Every solve follows a long-step log-det barrier path on the dual
(polish_dual, on the path routine _centred_path that the seminorm also
follows), whose centred interior end point also yields the primal.  A grid
of directions (range_boundary) is one stacked path, on which each direction
follows its own path, so no grid sample depends on another or on the order
of the directions; one direction, as decompose's minimum at theta = pi, is
the path of one matrix.  A warm solve, as the golden-section refinement of
radius and contains chains them, starts that path from the previous
direction's dual, against the value of its maximizer.  Where the barrier's
primal leaves a bracket open (the last level's centring stalls at rank-2
optima), a primal is recovered from complementary slackness at the final
dual (_recover), in one stacked call over the open directions, from the fit
_slackness_fit that the seminorm's dual bound shares.  Before that path, a
cold grid at small n (isqrt(n) <= RANK_ONE_ISQRT) tries the rank-one point
of every direction (_rank_one, power and Newton steps on the torus, the
mirror of _recover: a dual from a primal, certified by repair_dual), and
only the directions whose bracket that leaves open take the stacked path.
Solves are deterministic and take no seed.
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

    value is attained by the maximizer (lower bound): the Gram rows of the
    barrier's primal, of B = I or the warm start's maximizer, of a
    recovered primal, or the rank-one point; mean(dual_y) is an upper bound,
    as diag(dual_y) - H is PSD (repaired dual) or positive definite (barrier
    iterate).
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
# long-step path (Nesterov and Nemirovski 1994) with one level policy for
# both: a level before the last ends at its first full-length Newton step,
# one of decrement lam <= 1/4, which leaves the iterate in the quadratic
# region of the next level; the last level is centred up to and including a
# step with decrement -grad.step <= PATH_TOL * mu, or one that does not
# lower the decrement below the step before it (rounding has then stalled
# the level); then mu shrinks by PATH_SHRINK, but not below the path's floor
# mu_min.  polish_dual's floor is n mu = _rounding_floor(H) / 4, where its
# stop rule holds: below it the decrement wanders at rounding, and a last
# level ran to the safety stop.  A step that leaves the iterate in place,
# all of it lost to rounding or none of its trials in the cone, ends any
# level: the next would repeat it.
#
# A step of Newton decrement lam starts at length 1/(1 + lam) if lam > 1/4,
# else 1, and is halved, at most 40 times, until it stays in the cone.  A
# level's first step can start longer, at PATH_SHRINK (the tangent entry).
# From a centre of a path that is linear in mu, the Newton step of the next
# level is 1/PATH_SHRINK times the move to its centre, and its decrement,
# (1/PATH_SHRINK - 1) times the dual local norm of the barrier's gradient,
# is the same at every level: 49 where the optimal primal has rank 1
# (1/(1 + lam) is PATH_SHRINK there) and 69 = 49 sqrt(2) at rank 2, where
# the damped step covers 71% of the move and a level took 5 to 7 steps.  So
# on every level a first step whose lam is within ENTRY_TOL of the previous
# level's first lam starts at PATH_SHRINK if that is longer.  PATH_STEPS is
# only a safety stop: the slowest level seen takes 11 steps on support
# solves at n <= 32; on the seminorm, 10 over the benchmark inputs of seeds
# 1-12 (n <= 16), 9 on the masked-sparse input of
# test_seminorm_centres_slow_levels and 24, its second, on a Ginibre n = 64
# input.
PATH_TOL = 1e-6
PATH_STEPS = 100
PATH_SHRINK = 0.02
ENTRY_TOL = 0.05  # relative change of the first lam that takes the tangent entry


def _cholesky(m):
    """Cholesky factor L of the Hermitian matrix m, or NaN if m is not
    positive definite; of each matrix of a stack.  np.linalg.cholesky raises
    for the whole stack if one matrix is not positive definite; the stack is
    then halved, and each half factored in the same way, so f failing
    matrices of m cost O(f log m) factorisations.  A matrix's factor is the
    same, bit for bit, in a stack or alone."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if m.ndim == 2 or len(m) == 1:
            return np.full_like(m, np.nan)
        half = len(m) // 2
        return np.concatenate([_cholesky(m[:half]), _cholesky(m[half:])])


def _inverse_factor(m):
    """L^-1 for the Cholesky factor L of the Hermitian matrix m, or None if m
    is not positive definite; numpy factors NaN input into a NaN factor
    without raising, so a factor that is not finite is refused too."""
    c = _cholesky(m)
    return np.linalg.inv(c) if np.isfinite(c).all() else None


def _inverse_factors(m):
    """_inverse_factor of each matrix of the stack m: (G, ok), ok marking the
    matrices that have a finite Cholesky factor L and G holding their L^-1
    (NaN for the others); those with a factor are inverted as one stack."""
    c = _cholesky(m)
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


def _centred_path(slack, newton, x, mu, stop, mu_min=0.0):
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
    taken once slack(x) has a finite Cholesky factor.  A level's first step
    takes the tangent entry, PATH_SHRINK, when its lam is within ENTRY_TOL of
    the previous level's first lam (see PATH_TOL).  A level where stop(mu)
    does not hold ends at its first step with lam <= 1/4; the last is
    centred to a decrement of PATH_TOL mu, or until a step in that region
    stops lowering it; a step that leaves x in place ends any level.  mu
    shrinks by PATH_SHRINK from level to level, to no less than mu_min,
    where stop must hold.  The path ends once stop(mu) holds.  Returns the
    last iterate, strictly interior.

    A 2-D x is a stack of iterates, one row per matrix, and mu an array of
    their levels; _centred_stack follows each matrix's path on it.
    """
    if x.ndim == 2:
        return _centred_stack(slack, newton, x, mu, stop, mu_min)
    g = _inverse_factor(slack(x))
    if g is None:
        raise np.linalg.LinAlgError("the path must start inside the cone")
    w = _gram(g)
    entry = math.nan  # the previous level's first lam
    while True:
        last = stop(mu)  # the last level is centred, the others end at a full step
        prev = math.inf
        for step in range(PATH_STEPS):
            try:
                grad, dx = newton(w, mu)
            except np.linalg.LinAlgError:  # Newton system singular at rounding level
                break
            decrement = -float(grad @ dx)
            lam = math.sqrt(max(decrement / mu, 0.0))
            t0 = 1.0 / (1.0 + lam) if lam > 0.25 else 1.0
            if step == 0:  # the tangent entry
                if abs(lam - entry) <= ENTRY_TOL * entry:
                    t0 = max(t0, PATH_SHRINK)
                entry = lam
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
            if decrement <= PATH_TOL * mu or (lam <= 0.25 and not (last and decrement < prev)):
                break
            prev = decrement
        if last:
            return x
        mu = max(mu * PATH_SHRINK, mu_min)


def _centred_stack(slack, newton, x, mu, stop, mu_min):
    """_centred_path on a stack: row j of x follows matrix j's path with its
    own mu[j] and floor mu_min[j] (a scalar is every row's), Newton
    decrement, damped step or tangent entry, halving and level ends, as it
    would alone.  Each round takes one step on every matrix still on the
    path, its first trial on the whole stack; only the rows at a level's
    first step check for the tangent entry, and only the rows whose trial
    left the cone are halved, on their own.  A matrix leaves at the end of
    the level where stop holds, and its row is final.

    The callbacks work on the rows still on the path: slack(x, k) and
    stop(mu, k) also receive k, the stack indices of those rows, and
    newton(w, mu) takes them in that order.  If one Newton system
    of the stack is singular, each is solved alone, and those that are
    singular take a zero step, which leaves the row in place and so ends its
    level; a stacked Cholesky factorisation falls back in the same way
    (_inverse_factors)."""
    x, mu = np.array(x, dtype=float), np.array(mu, dtype=float)
    mu_min = np.broadcast_to(mu_min, mu.shape).copy()
    k = np.arange(len(x))  # stack indices of the rows still on the path
    g, ok = _inverse_factors(slack(x, k))
    if not ok.all():
        raise np.linalg.LinAlgError("the path must start inside the cone")
    out, w, steps = x.copy(), _gram(g), np.zeros(len(k), dtype=int)
    prev = np.full(len(k), np.inf)  # each row's last decrement on its level
    entry = np.full(len(k), np.nan)  # each row's first lam on its level before
    first = np.ones(len(k), dtype=bool)  # the rows at a level's first step
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
        # the tangent entry (see PATH_TOL), on the rows at a level's first step
        tangent = first & (np.abs(lam - entry) <= ENTRY_TOL * entry)
        t = np.maximum(t, PATH_SHRINK * tangent)
        entry = np.where(first, lam, entry)
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
        mu = np.where(ended, np.maximum(mu * PATH_SHRINK, mu_min), mu)
        steps[ended], prev, first = 0, np.where(ended, np.inf, decrement), ended
        if leave.any():
            out[k[leave]] = x[leave]
            keep = ~leave
            k, x, w, mu, mu_min = k[keep], x[keep], w[keep], mu[keep], mu_min[keep]
            steps, prev, entry, first = steps[keep], prev[keep], entry[keep], first[keep]
    return out


FIT_RIDGE = 1e-13  # Tikhonov term of _slackness_fit, relative to its normal matrix's largest diagonal entry


def _hermitian_basis(r: int) -> tuple[np.ndarray, np.ndarray]:
    """A real basis of the r x r Hermitian matrices, r^2 of them: E_ab + E_ba
    for a <= b and i (E_ab - E_ba) for a < b.  Also returns, for each, the
    size of the smallest top-left block that holds it."""
    a, b = np.triu_indices(r)
    units = np.zeros((len(a), r, r), dtype=np.complex128)
    units[np.arange(len(a)), a, b] = 1.0
    sym, skew = units + units.swapaxes(1, 2), 1j * (units - units.swapaxes(1, 2))
    off = a < b
    return np.concatenate([sym, skew[off]]), np.concatenate([b, b[off]]) + 1


def _slackness_fit(u, v):
    """The complementary-slackness fit of _recover and of the seminorm's
    dual bound (metrics._subspace_bound): at an optimum, an optimal PSD M
    of small rank r lies in a known subspace (Alizadeh, Haeberly and
    Overton, Math. Program. 1997), with r^2 at most the number of real
    constraints (Pataki, Math. Oper. Res. 1998).

    u and v are (..., n, R), leading axes a stack.  For each r <= R, the r^2
    real parameters of a Hermitian M_r are fitted by least squares to
    diag(U_r M_r V_r*) = c 1, c its mean, and tr M_r = 1, all r in one
    stacked solve of the normal equations; the columns a smaller r leaves
    unused are zeroed with 1 on their diagonal, so M_r is zero outside its
    top-left r x r block.  The ridge FIT_RIDGE keeps underdetermined fits
    (repeated singular values, masked-sparse inputs) finite and M small.
    Returns np.linalg.eigh of the (..., R, R, R) stack of M_r."""
    r = u.shape[-1]
    basis, size = _hermitian_basis(r)
    flat = basis.reshape(len(basis), -1)
    # diag(U E_p V*) for each basis matrix E_p, with its mean taken off
    k = (u[..., :, None] * v.conj()[..., None, :]).reshape(*u.shape[:-1], -1) @ flat.T
    k -= k.mean(axis=-2, keepdims=True)
    trace = np.trace(basis, axis1=1, axis2=2).real
    normal = (k.conj().swapaxes(-1, -2) @ k).real + np.outer(trace, trace)
    ridge = FIT_RIDGE * np.max(np.diagonal(normal, axis1=-2, axis2=-1), axis=-1)
    normal += ridge[..., None, None] * np.eye(len(basis))
    used = size <= np.arange(1, r + 1)[:, None]  # the columns of each r
    normal = np.where(used[:, :, None] & used[:, None, :], normal[..., None, :, :], np.eye(len(basis)))
    p = np.linalg.solve(normal, (trace * used)[..., None])
    return np.linalg.eigh((p[..., 0] @ flat).reshape(*p.shape[:-3], r, r, r))


def polish_dual(h, y0, target, stop_tol):
    """Minimize mean(y) over feasible duals diag(y) - H >= 0.

    Follows _centred_path on mean(y) - mu logdet(diag(y) - H) from the
    repaired warm start shifted up by its gap to target; mu starts at that
    gap / n and the path ends once n mu <= stop_tol / 4, with stop_tol
    floored at 8 n eps (1 + max|H|); only that last level is centred, the
    ones before end at their first full Newton step.  mu never falls below
    the floor where n mu = 8 n eps (1 + max|H|) / 4.  At a centred point the
    unit-diagonal rescaling of (diag(y) - H)^-1 is a primal within about
    n mu of mean(y).  Returns the repaired warm start if it is within
    stop_tol of target, else the path's end point, which is strictly
    interior.

    An (m, n, n) stack of H is polished on one stacked path, each matrix as
    it would be alone, with y0 broadcast to (m, n) and target to (m,).
    """
    n = h.shape[-1]
    floor = _rounding_floor(h)
    stop_tol = np.maximum(stop_tol, floor)
    y = repair_dual(h, np.broadcast_to(np.asarray(y0, dtype=float), h.shape[:-1]))
    gap = np.mean(y, axis=-1) - target
    if h.ndim == 3:
        return _polish_stack(h, y, gap, stop_tol, floor)
    if gap <= stop_tol:
        return y

    def newton(w, mu):
        grad = 1.0 / n - mu * w.diagonal().real
        return grad, np.linalg.solve(mu * np.abs(w) ** 2, -grad)

    # floor <= stop_tol, so mu_min <= mu_stop: the path stops at the floor
    mu_stop, mu_min = stop_tol / (4.0 * n), floor / (4.0 * n)
    try:  # strictly interior start: gap exceeds the rounding floor
        return _centred_path(
            lambda y: np.diag(y) - h, newton, y + gap, gap / n, lambda mu: mu <= mu_stop, mu_min=mu_min
        )
    except np.linalg.LinAlgError:  # rounding put the start outside the cone
        return y


def _polish_stack(h, y, gap, stop_tol, floor):
    """polish_dual's path for the stack h from its repaired duals y, whose
    gaps, stopping tolerances and rounding floors are one per matrix."""
    n = h.shape[-1]
    k = np.flatnonzero(gap > stop_tol)
    # rounding can put a shifted start outside the cone: that matrix keeps y
    k = k[_inverse_factors(_slack(y[k] + gap[k, None], h[k]))[1]]
    if not k.size:
        return y
    neg_h, mu_stop, mu_min = -h[k], stop_tol[k] / (4.0 * n), floor[k] / (4.0 * n)

    def slack(x, j):  # diag(x) - H on rows j of the path, in one gather
        s = neg_h[j]  # a new contiguous array, so reshape gives a view of it
        s.reshape(len(j), -1)[:, :: n + 1] += x
        return s

    def newton(w, mu):
        grad = 1.0 / n - mu[:, None] * np.diagonal(w, axis1=1, axis2=2).real
        return grad, np.linalg.solve(mu[:, None, None] * np.abs(w) ** 2, -grad[..., None])[..., 0]

    y[k] = _centred_path(
        slack, newton, y[k] + gap[k, None], gap[k] / n, lambda mu, j: mu <= mu_stop[j], mu_min=mu_min
    )
    return y


def support_direction(
    a, theta, cfg: SolveConfig = SolveConfig(), *, start: SupportResult | None = None
) -> SupportResult | SupportResults:
    """Certified support value of the range of A in direction theta, from
    _barrier_solve: a 1-D array theta as one stack, with one SupportResult
    per angle, and a scalar theta as one matrix.  start, the solve of a
    nearby direction of the same A, makes the solve of a scalar theta warm;
    a start for a stack, or of another size, is a ValueError.  A bracket
    wider than cfg.tol, rounding floor included, is flagged gap_not_closed."""
    a = matcore.as_matrix(a)
    one = np.ndim(theta) == 0
    thetas = np.array([float(theta)]) if one else np.asarray(theta, dtype=float)
    if start is not None and not one:
        raise ValueError("start is for a single theta")
    if start is not None and start.maximizer.n != a.shape[0]:
        raise ValueError(f"start must solve a {a.shape[0]} x {a.shape[0]} matrix, got n = {start.maximizer.n}")
    results = _barrier_solve(a, thetas, cfg, start)
    return results[0] if one else results


def _bare_parts(a, thetas):
    """(H, d, floor) for the angles thetas: the stack of H_k = Re(exp(-i
    theta_k) A) without its diagonal d_k, and their rounding floors.  B's
    unit diagonal makes diag(H_k) add mean(d_k) to every value; solving
    without it keeps its rounding out of diag(y) - H and of the gap."""
    s, k = matcore.hermitian_parts(a)
    h = np.cos(thetas)[:, None, None] * s + np.sin(thetas)[:, None, None] * k
    d = np.diagonal(h, axis1=1, axis2=2).real
    h = h - d[..., None] * np.eye(a.shape[0])
    return h, d, _rounding_floor(h)


class SupportResults(list):
    """The SupportResult of each angle of one stacked solve, in their order;
    certified answers for all of them what it answers for one."""

    @property
    def certified(self) -> bool:
        return all(s.certified for s in self)


def _barrier_solve(a: np.ndarray, thetas: np.ndarray, cfg: SolveConfig, start=None) -> SupportResults:
    """support_direction at each angle of thetas, from the barrier path
    (_barrier_path) or the rank-one point (_rank_one).  A cold solve of two
    or more angles at n with isqrt(n) <= RANK_ONE_ISQRT (Pataki's bound
    then allows optima of rank at most 2, and rank one dominates) first
    tries the rank-one point of every angle, from the phases of H_k's top
    eigenvector.  At n <= 3 every optimum has rank one, so a row whose
    bracket stays open there restarts once, from the phases of the lowest
    eigenvector of its slack diag(y_k) - H_k.  A row whose bracket closes,
    gap plus rounding floor at most cfg.tol, is final; only the others run
    the cold stacked path, as a stack even if one row is left, so they keep
    the bits of a path-only solve.  One angle, a warm solve and larger n
    take the path alone: one angle leaves nothing to amortise the pass
    over, and at larger n rank-two optima dominate."""
    n = a.shape[0]
    h, d, floor = _bare_parts(a, thetas)
    if start is not None:
        v0 = start.maximizer.vectors
        target = float(_attained(h[0], v0))
        v, value, y = _barrier_path(h, floor, cfg, True, v0, start.dual_y - d[0], target)
    elif len(h) == 1 or math.isqrt(n) > RANK_ONE_ISQRT:
        v, value, y = _barrier_path(h, floor, cfg, len(h) == 1)
    else:
        eigs = matcore.hermitian_eigs(h)
        shift = np.maximum(-eigs.eigenvalues[:, :1], 0.0)
        v, value, y = _rank_one(h, eigs.eigenvectors[..., -1], shift)
        j = _open_rows(y, value, floor, cfg)
        if j.size and math.isqrt(n) == 1:  # every optimum has rank one: restart once
            u = matcore.hermitian_eigs(_slack(y[j], h[j])).eigenvectors[..., 0]
            v[j], value[j], y[j] = _rank_one(h[j], u, shift[j])
            j = j[_open_rows(y[j], value[j], floor[j], cfg)]
        if j.size:
            v[j], value[j], y[j] = _barrier_path(h[j], floor[j], cfg, False)
    return _results(a, thetas, d, floor, v, value, y, cfg)


def _open_rows(y, value, floor, cfg: SolveConfig):
    """Indices of the rows whose bracket, gap mean(y) - value plus the
    rounding floor, is wider than cfg.tol."""
    return np.flatnonzero(np.mean(y, axis=1) - value + floor > cfg.tol)


def _attained(h, v):
    """Re tr(H V V*) / n: the value of the Gram rows v on H (of each of a
    stack), n its size."""
    return np.sum(v.conj() * (h @ v), axis=(-2, -1)).real / h.shape[-1]


def _barrier_path(h, floor, cfg: SolveConfig, one: bool, v0=None, y0=0.0, target=0.0):
    """(v, value, y) of the (m, n, n) stack h of H without its diagonal, from
    the barrier path: the dual is polish_dual(H, y0, target, cfg.tol / 4),
    one stacked path, or the path of the one matrix if one.  Cold (v0 None),
    y0 = 0, whose repair is lambda_max(H_k) 1, and target = 0, which B = I
    attains on every H_k without its diagonal.  Warm, y0 is start's dual
    less the new diagonal and target the value of start's maximizer v0 on
    the new H, which attains it.  The primal is the unit-diagonal rescaling
    of (diag(y_k) - H_k)^-1, or that fallback (I, or v0) where the
    rescaling has no Cholesky factor (a dual left on the cone's boundary,
    as for H_k = 0) or attains less than target.  At rank-2 optima and small
    mu the last level's centring stalls, and that primal can leave the
    bracket open well above the rounding floor; only there does _recover
    take a primal from complementary slackness, one stacked call over those
    directions, and a recovered primal is kept where it attains more."""
    if v0 is None:
        v0 = np.eye(h.shape[-1], dtype=np.complex128)
    y = polish_dual(h[0] if one else h, y0, target, cfg.tol / 4.0).reshape(h.shape[:-1])
    g, ok = _inverse_factors(_slack(y, h))
    v = np.broadcast_to(v0, h.shape).copy()
    v[ok] = _primal_rows(g[ok])
    value = _attained(h, v)
    v[value < target], value = v0, np.maximum(value, target)
    j = _open_rows(y, value, floor, cfg)
    if j.size:
        v_j, value_j = _recover(h[j], y[j])
        better = value_j > value[j]
        v[j[better]], value[j[better]] = v_j[better], value_j[better]
    return v, value, y


# The rank-one pass of _barrier_solve: RANK_ONE_POWER shifted power steps,
# then Newton on the torus until a step moves no phase by more than
# RANK_ONE_STEP, at most RANK_ONE_NEWTON steps.  It runs where isqrt(n) <=
# RANK_ONE_ISQRT, Pataki's bound on the rank of an optimum.  range_boundary
# time with the pass over the path alone, Ginibre inputs, 3 seeds: 0.45 /
# 0.61 / 0.83 at n = 3 / 4 / 8 with 256 directions, 0.45 / 0.75 / 1.01 with
# 32; beyond the gate, 0.82 / 0.94 / 1.09 at n = 10 / 12 / 15 with 256
# directions, and 1.03 at n = 12 with 32.
RANK_ONE_ISQRT = 2
RANK_ONE_POWER = 10
RANK_ONE_NEWTON = 8
RANK_ONE_STEP = 1e-13


def _phase(w):
    """w / |w| entrywise, and 1 where w = 0."""
    r = np.abs(w)
    return np.divide(w, r, out=np.ones_like(w), where=r > 0.0)


def _rank_one(h, z, shift):
    """(v, value, y) of the (m, n, n) stack h of H without its diagonal at
    a rank-one point B = z z*, |z_i| = 1, a phase-synchronisation point
    (Boumal, SIAM J. Optim. 2016): _recover's mirror, a dual from a primal.
    z starts at the phases of the given vectors and takes RANK_ONE_POWER
    power steps z <- phase((H + s I) z), s the shift max(-lambda_min(H), 0)
    of each row, a monotone ascent of Re(z* H z); then Newton steps on the
    angles phi of z = exp(i phi): gradient 2 Im(conj(z) Hz), Hessian
    2 Re(diag(conj z) H diag(z)) - 2 diag(Re(conj(z) Hz)), less c 1 1^T
    with c = max|H_ij|, which fixes the global phase and scales with H.  A
    Newton step that lowers Re(z* H z) is replaced by a power step, and a
    singular or non-finite system takes no step.  A row stops after a step
    that moves no angle by more than RANK_ONE_STEP, or after RANK_ONE_NEWTON
    steps.  At a stationary z, (diag(y) - H) z = 0 for y = Re(conj(z) Hz),
    and repair_dual certifies that y.  The Gram rows are z in column 0,
    zero-padded to n columns as _recover's are, and the value is recomputed
    from them.  Each row is computed as it would be alone."""
    m, n = h.shape[:2]
    z = _phase(z)
    for _ in range(RANK_ONE_POWER):
        z = _phase((h @ z[..., None])[..., 0] + shift * z)
    hz = (h @ z[..., None])[..., 0]
    c = np.max(np.abs(h), axis=(1, 2))[:, None, None]
    k = np.arange(m)  # the rows still taking Newton steps
    for _ in range(RANK_ONE_NEWTON):
        hk, zk, hzk = h[k], z[k], hz[k]
        q = zk.conj() * hzk
        hess = 2.0 * (zk.conj()[..., None] * hk * zk[:, None, :]).real - c[k]
        hess.reshape(len(k), -1)[:, :: n + 1] -= 2.0 * q.real
        step = _newton_steps(hess, -2.0 * q.imag)
        z_new = zk * np.exp(1j * step)
        hz_new = (hk @ z_new[..., None])[..., 0]
        done = np.max(np.abs(step), axis=1) <= RANK_ONE_STEP
        # a step that lowers Re(z* H z) is replaced by a power step
        down = ~done & (np.sum(z_new.conj() * hz_new, axis=1).real < np.sum(q, axis=1).real)
        if down.any():
            z_new[down] = _phase(hzk[down] + shift[k[down]] * zk[down])
            hz_new[down] = (hk[down] @ z_new[down][..., None])[..., 0]
        z[k], hz[k] = z_new, hz_new
        k = k[~done]
        if not k.size:
            break
    y = repair_dual(h, (z.conj() * hz).real)
    v = np.zeros_like(h)
    v[..., 0] = z
    return v, _attained(h, v), y


def _newton_steps(hess, rhs):
    """np.linalg.solve of each system of the stack; a singular or
    non-finite one, solved alone, gives a zero step."""
    try:
        step = np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.zeros_like(rhs)
        for j in range(len(rhs)):
            try:
                step[j] = np.linalg.solve(hess[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
    return np.where(np.isfinite(step).all(axis=1, keepdims=True), step, 0.0)


RECOVER_ENTRIES = 1 << 20  # bound on the J R^5 entries of one _recover chunk's fit


def _recover(h, y):
    """Primals of the (J, n, n) stack h of H without its diagonal, from
    complementary slackness at the (J, n) duals y: an optimal B is V M V*
    for the null space V of the optimal diag(y) - H and some PSD M.  V is
    taken as the R = isqrt(n) lowest eigenvectors of diag(y) - H (extreme
    points of the elliptope have r^2 <= n, and the maximum is attained at
    one), and _slackness_fit(V, V) gives each M_r; as tr(V M_r V*) = tr M_r,
    its diagonal is 1/n.  The normalised rows of V M_r^1/2, from M_r's PSD
    part, are unit Gram rows, so every candidate is feasible and its value a
    proven lower bound.  Returns each matrix's best candidate rows,
    zero-padded to n columns, and its value (-inf if no candidate's rows are
    all nonzero), as that matrix alone would give them.  The fit's normal
    matrices take R^5 entries per matrix, so the stack is recovered in
    chunks of at most RECOVER_ENTRIES of them."""
    n = h.shape[-1]
    chunk = max(1, RECOVER_ENTRIES // math.isqrt(n) ** 5)
    if len(h) > chunk:
        parts = [_recover(h[i : i + chunk], y[i : i + chunk]) for i in range(0, len(h), chunk)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    v = matcore.hermitian_eigs(_slack(y, h)).eigenvectors[..., : math.isqrt(n)]
    lam, w = _slackness_fit(v, v)
    x = v[:, None] @ (w * np.sqrt(np.maximum(lam, 0.0))[..., None, :])  # (J, R, n, R)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)
    value = _attained(h[:, None], x)
    value[~(norms > 0.0).all(axis=(-2, -1))] = -math.inf
    best = np.argmax(value, axis=1)
    rows, value = x[np.arange(len(x)), best], value[np.arange(len(x)), best]
    return np.pad(rows, ((0, 0), (0, 0), (0, n - rows.shape[-1]))), value


def _results(a, thetas, d, floor, v, value, y, cfg: SolveConfig) -> SupportResults:
    """The SupportResult of each angle k, from its solve on H_k without its
    diagonal d_k (_bare_parts): the Gram rows v_k, attaining value_k, and
    the dual y_k.  Certified if the gap plus the rounding floor is at most
    cfg.tol."""
    n = a.shape[0]
    gap = np.mean(y, axis=1) - value
    value = value + np.mean(d, axis=1)
    witness = np.sum(v.conj() * (a @ v), axis=(1, 2)) / n
    return SupportResults(
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

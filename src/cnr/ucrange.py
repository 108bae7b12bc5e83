"""Unitarily induced correlation matrices and inner approximations of the
induced range.

A tuple of n unitary k x k matrices is one complex (n, k, k) array, and a
stack of same-k tuples one (count, n, k, k) array.  Each generator takes
a shape and returns a shape + (n, k, k) stack, equal to successive single
draws.  Induced matrices are n x n whatever k is, so a list of stacks with
different k is validated in one call, one eigensolve for all of them, as
wuc_inner does for each chunk of its draws.
A tuple induces the correlation matrix of the normalized trace inner
products of its unitaries ((1/k) Tr(U_j* U_i)); each unitary is a unit
vector in that inner product, so the result always lies in the elliptope.
The induced range of T is the convex hull of the trace values over such
matrices; sampling tuples gives an inner approximation, which compare_ranges
measures against the certified correlation range it solves for.  The family
of induced matrices itself is not convex, so nothing here averages two
tuples and claims the result is induced: hulls are labeled as hulls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, matcore
from .crange import DIRECTIONS, RangeBoundary, SolveConfig, range_boundary
from .elliptope import CorrelationMatrix, validate_correlation
from .errors import NotUnitaryError, require

UNITARY_TOL = 1e-10
DEFAULT_K_LIST = (1, 2, 4, 8, 16)
DEFAULT_SAMPLES = 2000
# wuc_inner validates at most this many entries (256 KiB of complex128) per
# chunk of draws, or one tuple that alone is larger, counting n * max(k^2, n)
# per tuple: its unitaries or its Gram matrix, whichever is larger.  On the
# induced benchmark (2 cores, 8 s runs, seeds 1-3) 8,192, 16,384 and 32,768
# all gave 103-113 ops/s, at 41.3, 42.4 and 43.4 MB peak RSS; at n = 64 with
# k_list [1] and 20,000 samples, peak RSS is 41.9 MB (103.4 MB when only
# unitary entries were counted).
BATCH_ENTRIES = 16384


@dataclass
class WucApproximation:
    """Sampled trace values and their convex hull (an inner approximation)."""

    points: np.ndarray
    hull: np.ndarray
    sample_meta: dict


@dataclass
class WucComparison:
    inclusion_margin: float
    deficit: float
    boundary: RangeBoundary


def induced_correlation(u) -> CorrelationMatrix:
    """Correlation matrix (1/k) Tr(U_j* U_i) of an (n, k, k) unitary tuple;
    entry (i, j) is the trace inner product of U_i against U_j, normalized
    by the inner dimension so the diagonal is one.  A (count, n, k, k) stack
    of tuples gives the stack of their matrices, and a list of such stacks
    that share n, with k free to differ, gives one (sum of counts, n, n)
    stack in list order, validated in one call.  Each tuple is checked on
    its own; an error names the first that fails by its place in that
    order."""
    joint = isinstance(u, list)
    if joint and not u:
        raise NotUnitaryError("expected at least one stack of unitary tuples")
    defects, grams = [], []
    for s in map(np.asarray, u if joint else [u]):
        if s.ndim not in ((4,) if joint else (3, 4)) or s.shape[-1] != s.shape[-2] or 0 in s.shape[-3:]:
            what = "a (count, n, k, k) stack" if joint else "an (n, k, k) unitary tuple or a stack of them"
            raise NotUnitaryError(f"expected {what}, got shape {s.shape}")
        n, k = s.shape[-3], s.shape[-1]
        if grams and n != grams[0].shape[-1]:
            raise NotUnitaryError(f"stacks must share n, got {n} after {grams[0].shape[-1]}")
        defects.append(np.max(np.abs(s.conj().swapaxes(-1, -2) @ s - np.eye(k)), axis=(-3, -2, -1)))
        v = s.reshape(s.shape[:-3] + (n, k * k))
        grams.append((v @ v.conj().swapaxes(-1, -2)) / k)
    if joint:
        defect, gram = np.concatenate(defects), np.concatenate(grams)
    else:
        defect, gram = defects[0], grams[0]
    require(defect <= UNITARY_TOL, NotUnitaryError, "tuple entries must be unitary")
    return validate_correlation(gram)


def _diagonals(d: np.ndarray) -> np.ndarray:
    """The rows of an (..., n, k) array as (..., n, k, k) diagonal matrices."""
    k = d.shape[-1]
    u = np.zeros(d.shape + (k,), dtype=np.complex128)
    u[..., np.arange(k), np.arange(k)] = d
    return u


def haar_tuple(n: int, k: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Independent Haar unitaries."""
    return matcore.haar_unitary(k, rng, tuple(shape) + (n,))


def phase_tuple(n: int, k: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Commuting diagonal-phase unitaries."""
    return _diagonals(np.exp(2j * np.pi * rng.random(tuple(shape) + (n, k))))


def scalar_tuple(n: int, k: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Scalar phases times the identity: induces a rank-one correlation
    matrix (an extreme point class Haar sampling misses)."""
    phases = np.exp(2j * np.pi * rng.random(tuple(shape) + (n,)))
    return phases[..., None, None] * np.eye(k, dtype=np.complex128)


def permutation_tuple(n: int, k: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Uniform permutation matrices, each the argsort of k uniform draws."""
    return np.eye(k, dtype=np.complex128)[np.argsort(rng.random(tuple(shape) + (n, k)), axis=-1)]


def _disk_pairs(r: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One n = 2 disk tuple per (r, psi) pair of two same-length arrays."""
    alpha = np.arccos(np.clip(r, -1.0, 1.0))
    # mean of conj(d) = r e^{i psi}
    d = np.exp(1j * (np.stack([alpha, -alpha], axis=-1) - psi[:, None]))
    return _diagonals(np.stack([np.ones_like(d), d], axis=-2))


def disk_tuples_2x2(radii, phases) -> np.ndarray:
    """For n = 2: tuples (I, diag(d)) with d = exp(i(+/-arccos r - psi)),
    whose induced off-diagonal entry is exactly r * exp(i psi).  Covers the
    whole parameter disk of the 2 x 2 elliptope on a grid.  Returns one
    (len(radii) * len(phases), 2, 2, 2) array, radius-major."""
    r, psi = np.asarray(radii, dtype=float), np.asarray(phases, dtype=float)
    return _disk_pairs(np.repeat(r, len(psi)), np.tile(psi, len(r)))


def wuc_inner(
    t,
    k_list=DEFAULT_K_LIST,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> WucApproximation:
    """Inner approximation of the induced range of T.

    Haar tuples across the inner dimensions in k_list, plus structured
    generators: diagonal-phase tuples, permutation tuples, scalar-phase
    tuples, and (n = 2 only) a deterministic disk grid of diagonal tuples
    that realizes every elliptope off-diagonal value as a phase average.

    samples is the number of points aimed at; there can be more.  At least
    3 structured tuples are always drawn, and at n = 2 the disk grid has at
    least 16 tuples, so samples=1 gives 3 points away from n = 2, and
    samples=10 at n = 2 gives 19.  samples and the k_list entries must be
    integers (2.0 names 2; 2.7 is rejected), and at least 1.

    The draws follow one plan of same-k stacks: the disk grid, then the
    structured tuples split over the (kind, k) pairs, kind varying fastest
    (permutations at k = 1 are drawn at k = 2), then the Haar tuples split
    over k_list; splits differ by at most one tuple.  Stacks are drawn in
    pieces that read the random stream as single draws do, and each chunk
    of pieces is validated in one induced_correlation call.
    """
    if not float(samples).is_integer():
        raise ValueError(f"samples must be an integer, got {samples}")
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be positive")
    given = list(k_list)
    fractional = [k for k in given if not float(k).is_integer()]
    if fractional:
        raise ValueError(f"k_list entries must be integers, got {fractional}")
    k_list = [int(k) for k in given]
    if not k_list:
        raise ValueError("k_list must name at least one inner dimension")
    if min(k_list) < 1:
        raise ValueError(f"k_list entries must be at least 1, got {k_list}")
    t = matcore.as_matrix(t)
    n = t.shape[0]
    rng = rng if rng is not None else np.random.default_rng(0)

    g = int(np.ceil(np.sqrt(max(samples // 4, 8) / 4))) if n == 2 else 0
    n_grid = 4 * g * g  # g radii times 4g phases
    n_structured = max(samples // 5, 3)
    n_haar = max(samples - n_grid - n_structured, 0)

    # the plan: (draw, k, count) stacks in draw order, draw(lo, hi) giving
    # tuples lo..hi-1 of its stack
    def drawn(make, k):
        return lambda lo, hi: make(n, k, rng, (hi - lo,))

    plan = []
    if n_grid:
        radius = np.repeat(np.linspace(0.0, 1.0, g + 1)[1:], 4 * g)
        phase = np.tile(np.linspace(0.0, 2.0 * np.pi, 4 * g, endpoint=False), g)
        plan.append((lambda lo, hi: _disk_pairs(radius[lo:hi], phase[lo:hi]), 2, n_grid))
    kinds = [
        pair for k in k_list for pair in ((phase_tuple, k), (scalar_tuple, k), (permutation_tuple, max(k, 2)))
    ]
    for pairs, total in ((kinds, n_structured), ([(haar_tuple, k) for k in k_list], n_haar)):
        share, extra = divmod(total, len(pairs))
        plan += [(drawn(make, k), k, share + (j < extra)) for j, (make, k) in enumerate(pairs)]

    points = np.empty(n_grid + n_structured + n_haar, dtype=np.complex128)

    def validate(chunk, start: int) -> int:
        b = induced_correlation(chunk).matrix
        points[start : start + len(b)] = np.sum(t * b.swapaxes(-1, -2), axis=(-2, -1)) / n
        return start + len(b)

    # a chunk is closed before the next tuple would take it past
    # BATCH_ENTRIES, and not held once validated
    chunk, room, start = [], BATCH_ENTRIES, 0
    for draw, k, count in plan:
        size, lo = n * max(k * k, n), 0
        while lo < count:
            c = min(count - lo, room // size)
            if c < 1 and chunk:
                start = validate(chunk, start)
                chunk, room = [], BATCH_ENTRIES
                continue
            c = max(c, 1)  # a tuple larger than the bound alone
            chunk.append(draw(lo, lo + c))
            room, lo = room - c * size, lo + c
    validate(chunk, start)
    hull = geometry.convex_hull(np.column_stack([points.real, points.imag]))
    meta = {
        "k_values": list(k_list),
        "grid": n_grid,
        "structured": n_structured,
        "haar": n_haar,
    }
    return WucApproximation(points=points, hull=hull, sample_meta=meta)


def compare_ranges(
    t, approx: WucApproximation, m: int = DIRECTIONS, cfg: SolveConfig = SolveConfig()
) -> WucComparison:
    """Inclusion margin and coverage deficit of the sampled induced range
    approx against the certified correlation range of T on m directions,
    which is returned as boundary.

    inclusion_margin is the smallest slack of any sampled point against any
    certified supporting half-plane (>= -1e-8 expected always).  deficit is
    the directed Hausdorff distance from the correlation-range inner polygon
    to the sampled hull: a convergence diagnostic for n <= 3 (where the two
    ranges agree), a plain coverage report otherwise.
    """
    boundary = range_boundary(matcore.as_matrix(t), m, cfg)
    thetas, points = boundary.thetas(), approx.points
    proj = np.cos(thetas)[:, None] * points.real + np.sin(thetas)[:, None] * points.imag
    inclusion = float(np.min(boundary.supports()[:, None] - proj))
    deficit = geometry.directed_hausdorff(boundary.inner_hull(), approx.hull)
    return WucComparison(inclusion_margin=inclusion, deficit=float(deficit), boundary=boundary)

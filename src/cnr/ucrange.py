"""Unitarily induced correlation matrices and inner approximations of the
induced range.

A tuple of n unitary k x k matrices is one complex (n, k, k) array, and a
stack of same-k tuples one (count, n, k, k) array.  Induced matrices are
n x n whatever k is, so a list of stacks with different k is validated in
one call, one eigensolve for all of them.
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

import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry, matcore
from .crange import RangeBoundary, SolveConfig, range_boundary
from .elliptope import CorrelationMatrix, validate_correlation
from .errors import NotUnitaryError, require

UNITARY_TOL = 1e-10
DEFAULT_K_LIST = (1, 2, 4, 8, 16)
DEFAULT_SAMPLES = 2000
# wuc_inner draws at most this many unitary entries (256 KiB of complex128)
# per Haar chunk, and holds at most this many per same-k batch of grid and
# structured tuples; a Haar chunk, a full batch, and the batches left open at
# the end are each validated in one call.  On the induced benchmark (2
# cores, 25 s runs, seeds 1-3, each Haar k validated on its own) 4,096 gave
# 49 ops/s at 41.0 MB peak RSS (an n = 8 chunk is then one cycle), 16,384
# gave 77-84 ops/s at 42.2 MB and 32,768 gave 85-90 ops/s at 44.0 MB.
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


def haar_tuple(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return matcore.haar_unitary(k, rng, (n,))


def phase_tuple(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Commuting diagonal-phase unitaries."""
    return _diagonals(np.exp(2j * np.pi * rng.random((n, k))))


def scalar_tuple(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Scalar phases times the identity: induces a rank-one correlation
    matrix (an extreme point class Haar sampling misses)."""
    phases = np.exp(2j * np.pi * rng.random(n))
    return phases[:, None, None] * np.eye(k, dtype=np.complex128)


def permutation_tuple(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    eye = np.eye(k, dtype=np.complex128)
    return eye[np.array([rng.permutation(k) for _ in range(n)])]


def disk_tuples_2x2(radii, phases) -> np.ndarray:
    """For n = 2: tuples (I, diag(d)) with d = exp(i(+/-arccos r - psi)),
    whose induced off-diagonal entry is exactly r * exp(i psi).  Covers the
    whole parameter disk of the 2 x 2 elliptope on a grid.  Returns one
    (len(radii) * len(phases), 2, 2, 2) array, radius-major."""
    alpha = np.arccos(np.clip(np.asarray(radii, dtype=float), -1.0, 1.0))
    psi = np.asarray(phases, dtype=float)
    # mean of conj(d) = r e^{i psi}
    d = np.exp(1j * (np.stack([alpha, -alpha], axis=-1)[:, None, :] - psi[None, :, None]))
    return _diagonals(np.stack([np.ones_like(d), d], axis=-2).reshape(-1, 2, 2))


def _structured_tuples(n: int, k_list, n_structured: int, rng: np.random.Generator):
    """wuc_inner's structured tuples in draw order: phase, scalar and
    permutation tuples in turn across k_list."""
    for j in range(n_structured):
        k = k_list[j % len(k_list)]
        kind = j % 3
        if kind == 0:
            yield phase_tuple(n, k, rng)
        elif kind == 1:
            yield scalar_tuple(n, k, rng)
        else:
            yield permutation_tuple(n, max(k, 2), rng)


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
    samples=10 at n = 2 gives 19.  k_list entries must be integers (2.0
    names k = 2; 2.7 is rejected) and at least 1.
    """
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

    grid: np.ndarray | list = []
    if n == 2:
        g = int(np.ceil(np.sqrt(max(samples // 4, 8) / 4)))
        radii = np.linspace(0.0, 1.0, g + 1)[1:]
        phases = np.linspace(0.0, 2.0 * np.pi, 4 * g, endpoint=False)
        grid = disk_tuples_2x2(radii, phases)
    n_grid = len(grid)
    n_structured = max(samples // 5, 3)
    n_haar = max(samples - n_grid - n_structured, 0)

    points = np.empty(n_grid + n_structured + n_haar, dtype=np.complex128)

    def trace_values(u) -> np.ndarray:
        b = induced_correlation(u).matrix
        return np.sum(t * b.swapaxes(-1, -2), axis=(-2, -1)) / n

    # Collect same-k grid and structured tuples as they are drawn, in
    # batches of at most BATCH_ENTRIES unitary entries, so that only one
    # open batch per k is held; a full batch is validated alone, and the
    # batches still open at the end in one call.  Each point goes to its
    # tuple's place in the draw order.
    open_batches: dict[int, list] = {}

    def validate(ks) -> None:
        order, stacks = [], []
        for k in ks:
            indices, batch = zip(*open_batches.pop(k))
            order.extend(indices)
            stacks.append(np.stack(batch))
        points[order] = trace_values(stacks)

    for i, u in enumerate(itertools.chain(grid, _structured_tuples(n, k_list, n_structured, rng))):
        k = u.shape[-1]
        open_batches.setdefault(k, []).append((i, u))
        if len(open_batches[k]) >= max(1, BATCH_ENTRIES // (n * k * k)):
            validate([k])
    if open_batches:
        validate(list(open_batches))

    # Haar tuple j has inner dimension k_list[j % cycle]: draw them a chunk
    # of whole cycles of k_list at a time (at most BATCH_ENTRIES unitary
    # entries, at least one cycle), then a final partial cycle, and validate
    # each chunk in one call.  Entry a of cycle c is draw index
    # base + c * cycle + a, and row a * count + c of the chunk's values.
    base, cycle = n_grid + n_structured, len(k_list)
    per_chunk = max(1, BATCH_ENTRIES // (n * sum(k * k for k in k_list)))
    full, rest = divmod(n_haar, cycle)
    chunks = [(c0, min(per_chunk, full - c0), k_list) for c0 in range(0, full, per_chunk)]
    if rest:
        chunks.append((full, 1, k_list[:rest]))
    for c0, count, sizes in chunks:
        values = trace_values(matcore.haar_unitary(sizes, rng, (count, n)))
        start = base + c0 * cycle
        points[start : start + values.size] = values.reshape(len(sizes), count).T.ravel()
    hull = geometry.convex_hull(np.column_stack([points.real, points.imag]))
    meta = {
        "k_values": list(k_list),
        "grid": n_grid,
        "structured": n_structured,
        "haar": n_haar,
    }
    return WucApproximation(points=points, hull=hull, sample_meta=meta)


def compare_ranges(
    t, approx: WucApproximation, m: int = 128, cfg: SolveConfig = SolveConfig()
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

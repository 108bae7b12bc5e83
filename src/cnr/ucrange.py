"""Unitarily induced correlation matrices and inner approximations of the
induced range.

A tuple of n unitary k x k matrices induces the correlation matrix of their
normalized trace inner products ((1/k) Tr(U_j* U_i)); each unitary is a unit
vector in that inner product, so the result always lies in the elliptope.
The induced range of T is the convex hull of the trace values over such
matrices; sampling tuples gives an inner approximation.  The family of
induced matrices itself is not convex, so nothing here averages two tuples
and claims the result is induced: hulls are labeled as hulls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, matcore
from .crange import RangeBoundary, SolveConfig, range_boundary
from .elliptope import CorrelationMatrix, validate_correlation
from .errors import NotUnitaryError

UNITARY_TOL = 1e-10
DEFAULT_K_LIST = (1, 2, 4, 8, 16)
DEFAULT_SAMPLES = 2000


@dataclass
class UnitaryTuple:
    """n unitaries of a common inner dimension k."""

    unitaries: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.unitaries)

    @property
    def k(self) -> int:
        return self.unitaries[0].shape[0]


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
    points: int
    sample_meta: dict


def _check_unitary(u: np.ndarray) -> None:
    k = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(k))) > UNITARY_TOL:
        raise NotUnitaryError("tuple entries must be unitary")


def induced_correlation(t: UnitaryTuple) -> CorrelationMatrix:
    """Correlation matrix (1/k) Tr(U_j* U_i); entry (i, j) is the trace
    inner product of U_i against U_j, normalized by the inner dimension so
    the diagonal is one."""
    k = t.k
    for u in t.unitaries:
        if u.shape != (k, k):
            raise NotUnitaryError("tuple entries must share one dimension")
        _check_unitary(u)
    v = np.stack([u.ravel() for u in t.unitaries])
    b = (v @ v.conj().T) / k
    return validate_correlation(b)


def haar_tuple(n: int, k: int, rng: np.random.Generator) -> UnitaryTuple:
    return UnitaryTuple([matcore.haar_unitary(k, rng) for _ in range(n)])


def phase_tuple(n: int, k: int, rng: np.random.Generator) -> UnitaryTuple:
    """Commuting diagonal-phase unitaries."""
    return UnitaryTuple(
        [np.diag(np.exp(2j * np.pi * rng.random(k))) for _ in range(n)]
    )


def scalar_tuple(n: int, k: int, rng: np.random.Generator) -> UnitaryTuple:
    """Scalar phases times the identity: induces a rank-one correlation
    matrix (an extreme point class Haar sampling misses)."""
    phases = np.exp(2j * np.pi * rng.random(n))
    eye = np.eye(k, dtype=np.complex128)
    return UnitaryTuple([ph * eye for ph in phases])


def permutation_tuple(n: int, k: int, rng: np.random.Generator) -> UnitaryTuple:
    eye = np.eye(k, dtype=np.complex128)
    return UnitaryTuple([eye[rng.permutation(k)] for _ in range(n)])


def disk_tuples_2x2(k: int, radii, phases) -> list[UnitaryTuple]:
    """For n = 2: tuples (I, U) whose induced off-diagonal entry is exactly
    r * exp(i psi), by averaging k diagonal phases split evenly between
    +/- arccos r.  Covers the whole parameter disk of the 2 x 2 elliptope
    on a grid.  k must be even so the split is exact."""
    if k % 2 != 0:
        raise ValueError("disk grid tuples need an even inner dimension")
    eye = np.eye(k, dtype=np.complex128)
    out = []
    half = k // 2
    for r in radii:
        alpha = float(np.arccos(np.clip(r, -1.0, 1.0)))
        base = np.array([alpha] * half + [-alpha] * half)
        for psi in phases:
            d = np.exp(1j * (base - psi))  # mean of conj(d) = r * exp(i psi)
            out.append(UnitaryTuple([eye, np.diag(d)]))
    return out


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
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    k_list = [int(k) for k in k_list]
    if not k_list:
        raise ValueError("k_list must name at least one inner dimension")
    t = matcore.as_matrix(t)
    n = t.shape[0]
    rng = rng if rng is not None else np.random.default_rng(0)

    tuples: list[UnitaryTuple] = []
    n_grid = 0
    if n == 2:
        n_grid = max(samples // 4, 8)
        g = int(np.ceil(np.sqrt(n_grid / 4)))
        radii = np.linspace(0.0, 1.0, g + 1)[1:]
        phases = np.linspace(0.0, 2.0 * np.pi, 4 * g, endpoint=False)
        k_even = max(k for k in k_list) if any(k % 2 == 0 for k in k_list) else 2
        k_even = k_even if k_even % 2 == 0 else k_even + 1
        grid = disk_tuples_2x2(k_even, radii, phases)
        tuples.extend(grid)
        n_grid = len(grid)
    n_structured = max(samples // 5, 3)
    for j in range(n_structured):
        k = k_list[j % len(k_list)]
        kind = j % 3
        if kind == 0:
            tuples.append(phase_tuple(n, k, rng))
        elif kind == 1:
            tuples.append(scalar_tuple(n, k, rng))
        else:
            tuples.append(permutation_tuple(n, max(k, 2), rng))
    n_haar = max(samples - len(tuples), 0)
    for j in range(n_haar):
        tuples.append(haar_tuple(n, k_list[j % len(k_list)], rng))

    points = np.empty(len(tuples), dtype=np.complex128)
    for i, tup in enumerate(tuples):
        b = induced_correlation(tup).matrix
        points[i] = np.sum(t * b.T) / n
    hull = geometry.convex_hull(np.column_stack([points.real, points.imag]))
    meta = {
        "k_values": list(k_list),
        "grid": n_grid,
        "structured": n_structured,
        "haar": n_haar,
    }
    return WucApproximation(points=points, hull=hull, sample_meta=meta)


def compare_ranges(
    t,
    cfg: SolveConfig = SolveConfig(),
    m: int = 128,
    k_list=DEFAULT_K_LIST,
    samples: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
    boundary: RangeBoundary | None = None,
    approx: WucApproximation | None = None,
) -> WucComparison:
    """Inclusion margins and coverage deficit of the sampled induced range
    against the certified correlation range.

    inclusion_margin is the smallest slack of any sampled point against any
    certified supporting half-plane (>= -1e-8 expected always).  deficit is
    the directed Hausdorff distance from the correlation-range inner polygon
    to the sampled hull: a convergence diagnostic for n <= 3 (where the two
    ranges agree), a plain coverage report otherwise.
    """
    t = matcore.as_matrix(t)
    if boundary is None:
        boundary = range_boundary(t, m, cfg)
    if approx is None:
        approx = wuc_inner(t, k_list, samples, rng)
    thetas = boundary.thetas()
    supports = boundary.supports()
    proj = np.cos(thetas)[:, None] * approx.points.real[None, :] + np.sin(thetas)[
        :, None
    ] * approx.points.imag[None, :]
    inclusion = float(np.min(supports[:, None] - proj))
    inner = boundary.inner_hull()
    deficit = geometry.directed_hausdorff(inner, approx.hull)
    return WucComparison(
        inclusion_margin=inclusion,
        deficit=float(deficit),
        points=len(approx.points),
        sample_meta=approx.sample_meta,
    )

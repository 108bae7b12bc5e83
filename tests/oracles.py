"""Independent reference computations used across the tests.

These deliberately avoid the library's own solve paths: brute-force grids
over the 2 x 2 elliptope parameterization, the closed-form 2 x 2 support,
numpy.linalg as the linear-algebra reference, and a monotone-chain hull
computed step by step on numpy scalars.
"""

import numpy as np


def support_2x2_grid(a, theta, k=200000):
    """Brute force over B = [[1, z], [conj z, 1]].

    The objective is R-linear in z, so the maximum over the closed unit disk
    sits on the circle |z| = 1."""
    a = np.asarray(a, dtype=complex)
    phis = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    z = np.exp(1j * phis)
    tau = (a[0, 0] + a[1, 1] + a[0, 1] * np.conj(z) + a[1, 0] * z) / 2.0
    return float(np.max(np.real(np.exp(-1j * theta) * tau)))


def support_2x2_closed(a, theta):
    """Closed form: mean diagonal shift plus the rotated two-sided modulus.

    Derived from the same parameterization: max over |z| = 1 of
    Re(exp(-i theta) (b conj(z) + c z)) / 2 = |exp(-i theta) b
    + exp(i theta) conj(c)| / 2."""
    a = np.asarray(a, dtype=complex)
    center = (a[0, 0] + a[1, 1]) / 2.0
    w = np.exp(-1j * theta) * a[0, 1] + np.exp(1j * theta) * np.conj(a[1, 0])
    return float(np.real(np.exp(-1j * theta) * center) + np.abs(w) / 2.0)


def min_real_2x2_grid(a, k=200000):
    a = np.asarray(a, dtype=complex)
    phis = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    z = np.exp(1j * phis)
    tau = (a[0, 0] + a[1, 1] + a[0, 1] * np.conj(z) + a[1, 0] * z) / 2.0
    # interior of the disk matters for the minimum of a real-valued tau only
    # through r scaling; with real tau the minimizer is on the circle or at 0
    vals = np.concatenate([np.real(tau), [np.real(a[0, 0] + a[1, 1]) / 2.0]])
    return float(np.min(vals))


def seminorm_2x2_zoom(t, levels=4, width=2.0, grid=41):
    """Zooming grid search for min_d ||T - diag(d, -d)|| over complex d."""
    t = np.asarray(t, dtype=complex)
    cx = cy = 0.0
    best = np.inf
    for _ in range(levels):
        xs = np.linspace(cx - width, cx + width, grid)
        ys = np.linspace(cy - width, cy + width, grid)
        vals = np.array(
            [
                [
                    np.linalg.svd(t - np.diag([x + 1j * y, -x - 1j * y]), compute_uv=False)[0]
                    for x in xs
                ]
                for y in ys
            ]
        )
        iy, ix = np.unravel_index(np.argmin(vals), vals.shape)
        best = float(vals[iy, ix])
        cx, cy, width = xs[ix], ys[iy], width / 10.0
    return best


def random_hermitian(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return (z + z.conj().T) / 2.0


def convex_hull_chain(points):
    """Monotone-chain hull on numpy scalars, one cross-product call per
    step: CCW vertices, popping while the turn is not counter-clockwise."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 0.0, axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])

"""Planar convex geometry: hulls, half-plane polygons, Hausdorff distances.

Points are (m, 2) float arrays; polygons are vertex arrays in counter-
clockwise order.  Degenerate polygons (single point, segment) are allowed
everywhere.
"""

from __future__ import annotations

import numpy as np


def convex_hull(points) -> np.ndarray:
    """Monotone-chain hull, CCW vertices; collinear inputs give the two
    extreme points, a single repeated point gives one vertex."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 0.0, axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts
    # The chains run over Python floats: the same IEEE arithmetic as on
    # numpy scalars, without a numpy call per step.
    pts = pts.tolist()
    return np.array(_chain(pts)[:-1] + _chain(pts[::-1])[:-1])


def _chain(pts: list) -> list:
    """One monotone chain over sorted points: pop while the turn to the next
    point is not counter-clockwise (cross product <= 0)."""
    chain = []
    for p in pts:
        px, py = p
        while len(chain) > 1:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def halfplane_polygon(thetas, supports) -> np.ndarray:
    """Vertices of the intersection of half-planes
    {z : Re(exp(-i theta_k) z) <= h_k} for an increasing angle grid.

    Vertex k solves the system of the adjacent supporting lines k, k+1;
    valid whenever consecutive angle gaps stay below pi.
    """
    th = np.asarray(thetas, dtype=float)
    h = np.asarray(supports, dtype=float)
    m = len(th)
    if m < 3:
        raise ValueError("need at least 3 directions")
    th2 = np.roll(th, -1)
    h2 = np.roll(h, -1)
    det = np.sin(th2 - th)
    if np.any(np.abs(det) < 1e-12):
        raise ValueError("consecutive directions too close or antipodal")
    x = (h * np.sin(th2) - h2 * np.sin(th)) / det
    y = (h2 * np.cos(th) - h * np.cos(th2)) / det
    return np.column_stack([x, y])


def _polygon_distances(pts, poly) -> np.ndarray:
    """Distance from each point to a filled convex polygon (0 if inside): the
    least distance to an edge a[i] -> b[i]; one or two vertices make a single
    (possibly degenerate) segment."""
    convex = len(poly) > 2
    a = poly if convex else poly[:1]
    b = np.roll(poly, -1, axis=0) if convex else poly[-1:]
    ab = b - a
    apx = pts[:, None, 0] - a[:, 0]
    apy = pts[:, None, 1] - a[:, 1]
    denom = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    t = (apx * ab[:, 0] + apy * ab[:, 1]) / np.where(denom > 0.0, denom, 1.0)
    t = np.clip(np.where(denom > 0.0, t, 0.0), 0.0, 1.0)
    cx = a[:, 0] + t * ab[:, 0]
    cy = a[:, 1] + t * ab[:, 1]
    d = np.min(np.hypot(pts[:, None, 0] - cx, pts[:, None, 1] - cy), axis=1)
    if convex:
        d[np.all(ab[:, 0] * apy - ab[:, 1] * apx >= 0.0, axis=1)] = 0.0
    return d


def point_polygon_distance(p, poly) -> float:
    """Distance from a point to a filled convex polygon (0 if inside)."""
    p = np.asarray(p, dtype=float).reshape(1, 2)
    return float(_polygon_distances(p, np.asarray(poly, dtype=float).reshape(-1, 2))[0])


def directed_hausdorff(pts, poly) -> float:
    """max over pts of the distance to the filled convex polygon."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return 0.0
    # distances are found on both sets scaled by one power of two, exactly,
    # to below 1 in magnitude, so squared coordinates cannot overflow
    _, e = np.frexp(max(np.max(np.abs(pts)), np.max(np.abs(poly))))
    pts, poly = np.ldexp(pts, -e), np.ldexp(poly, -e)
    chunk = max(1, (1 << 18) // len(poly))  # bounds the points x edges temporaries
    parts = (_polygon_distances(pts[i : i + chunk], poly) for i in range(0, len(pts), chunk))
    return float(np.ldexp(max(float(np.max(d)) for d in parts), e))


def hausdorff(poly_a, poly_b) -> float:
    """Symmetric Hausdorff distance between two filled convex polygons.

    For convex sets the supremum of the distance function is attained at a
    vertex, so vertex-to-polygon distances are exact.
    """
    return max(directed_hausdorff(poly_a, poly_b), directed_hausdorff(poly_b, poly_a))


import numpy as np
import pytest

from cnr import geometry


def _point_polygon_distance_ref(p, poly):
    """Per-point reference: 0 inside, else the least distance to an edge."""
    p = np.asarray(p, dtype=float)
    k = len(poly)
    if k == 1:
        return float(np.hypot(*(p - poly[0])))
    a, b = (poly[:1], poly[1:]) if k == 2 else (poly, np.roll(poly, -1, axis=0))
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    if k > 2 and np.all(cross >= 0.0):
        return 0.0
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", ap, ab) / np.where(denom > 0.0, denom, 1.0)
    t = np.clip(np.where(denom > 0.0, t, 0.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return float(np.min(np.hypot(p[0] - closest[:, 0], p[1] - closest[:, 1])))


def test_hull_square_with_interior_points():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7], [0, 0]]
    hull = geometry.convex_hull(pts)
    assert len(hull) == 4
    assert {tuple(p) for p in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_degenerate():
    assert len(geometry.convex_hull([[1, 2], [1, 2], [1, 2]])) == 1
    hull = geometry.convex_hull([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    assert len(hull) == 2
    assert {tuple(p) for p in hull} == {(0, 0), (2, 2)}


def test_halfplane_polygon_disk():
    m = 64
    thetas = 2.0 * np.pi * np.arange(m) / m
    poly = geometry.halfplane_polygon(thetas, np.full(m, 2.0))
    r = np.hypot(poly[:, 0], poly[:, 1])
    # circumscribed polygon vertices sit at radius r / cos(pi/m)
    assert np.allclose(r, 2.0 / np.cos(np.pi / m), atol=1e-12)


def test_point_polygon_distance():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert geometry.point_polygon_distance([0.5, 0.5], square) == 0.0
    assert geometry.point_polygon_distance([2.0, 0.5], square) == pytest.approx(1.0)
    assert geometry.point_polygon_distance([2.0, 2.0], square) == pytest.approx(np.sqrt(2.0))
    seg = np.array([[0, 0], [1, 0]], dtype=float)
    assert geometry.point_polygon_distance([0.5, 0.3], seg) == pytest.approx(0.3)
    pt = np.array([[2, 1]], dtype=float)
    assert geometry.point_polygon_distance([2, 3], pt) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for k in (1, 2, 5, 40):
        poly = geometry.convex_hull(rng.standard_normal((k, 2)))
        for p in rng.standard_normal((50, 2)) * 2.0:
            assert geometry.point_polygon_distance(p, poly) == _point_polygon_distance_ref(p, poly)


def test_hausdorff_shifted_squares():
    a = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    b = a + np.array([0.25, 0.0])
    assert geometry.hausdorff(a, b) == pytest.approx(0.25)
    assert geometry.hausdorff(a, a) == 0.0
    # many points against many edges: the points are processed in chunks
    thetas = 2.0 * np.pi * np.arange(2048) / 2048
    disk = geometry.halfplane_polygon(thetas, np.ones(2048))
    pts = np.random.default_rng(1).standard_normal((600, 2)) * 1.5
    ref = max(_point_polygon_distance_ref(p, disk) for p in pts)
    assert geometry.directed_hausdorff(pts, disk) == ref


def test_polygon_support():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert geometry.polygon_support(square, 0.0) == pytest.approx(1.0)
    assert geometry.polygon_support(square, np.pi) == pytest.approx(0.0)
    assert geometry.polygon_support(square, np.pi / 4.0) == pytest.approx(np.sqrt(2.0))

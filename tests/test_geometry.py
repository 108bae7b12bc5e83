import numpy as np
import pytest

from oracles import convex_hull_chain

from cnr import geometry, matcore, ucrange


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


def _hull_clouds():
    rng = np.random.default_rng(40)
    yield from (rng.standard_normal((m, 2)) for m in (0, 1, 2))
    yield [[1.0, 2.0], [1.0, 2.0]]  # two equal points
    for m in (3, 5, 20, 300):
        yield rng.standard_normal((m, 2))
        yield np.repeat(rng.standard_normal((m, 2)), 3, axis=0)  # duplicates
        x = rng.standard_normal(m)
        yield np.column_stack([x, 0.5 * x - 2.0])  # collinear
        yield rng.integers(-3, 4, (m, 2)).astype(float)  # integer lattice
        yield np.column_stack([np.zeros(m), rng.standard_normal(m)])  # vertical line
    # signed zeros: -0.0 and 0.0 are equal points that keep their signs
    yield [[-0.0, 0.0], [0.0, -0.0], [1.0, -0.0], [-0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [-0.0, 0.5]]
    yield rng.integers(-1, 2, (60, 2)) * np.array([-0.0, 0.0, 1.0])[rng.integers(0, 3, (60, 2))]
    for n, k_list, samples in [(1, [1], 10), (2, [16], 200), (3, [2, 4], 60), (5, [1, 2, 4, 8, 16], 500)]:
        t = matcore.ginibre_random(n, rng)
        points = ucrange.wuc_inner(t, k_list, samples, rng).points
        yield np.column_stack([points.real, points.imag])


def test_hull_matches_per_step_chain():
    for pts in _hull_clouds():
        hull, ref = geometry.convex_hull(pts), convex_hull_chain(pts)
        assert hull.dtype == ref.dtype and hull.shape == ref.shape
        assert np.array_equal(hull, ref)
        assert np.array_equal(np.signbit(hull), np.signbit(ref))


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


def test_hausdorff_at_extreme_scales():
    # squared coordinates of 2^1000-scaled sets overflow unless rescaled
    rng = np.random.default_rng(2)
    p, q = rng.standard_normal((40, 2)), geometry.convex_hull(rng.standard_normal((30, 2)))
    for c in (2.0**1000, 2.0**-1000):
        for f in (geometry.directed_hausdorff, geometry.hausdorff):
            plain = f(p, q)
            assert plain > 0.0
            assert abs(f(c * p, c * q) - c * plain) <= 1e-15 * c * plain


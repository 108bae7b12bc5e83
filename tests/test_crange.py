import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnr import crange, matcore, ucrange
from cnr.elliptope import GramFactor, validate_correlation
from cnr.errors import RangeNotRealError
from oracles import random_hermitian, support_2x2_closed, support_2x2_grid

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
A21 = np.array([[0, 2], [1, 0]], dtype=complex)


def test_oracles_agree_with_each_other():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = matcore.ginibre_random(2, rng)
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        assert support_2x2_grid(a, th) == pytest.approx(support_2x2_closed(a, th), abs=1e-8)


def test_support_disk_any_direction():
    for th in np.linspace(0.0, 2.0 * np.pi, 13):
        res = crange.support_direction(E12, th)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.certified


def test_support_frozen_2x2():
    # grid oracle gives the ellipse semi-axes (|b| +/- |c|) / 2
    assert crange.support_direction(A21, 0.0).value == pytest.approx(1.5, abs=1e-9)
    assert crange.support_direction(A21, np.pi / 2.0).value == pytest.approx(0.5, abs=1e-9)


def test_support_diagonal_singleton():
    a = np.diag([1.0 + 2.0j, -0.5, 3.0]).astype(complex)
    tau = matcore.normalized_trace(a)
    for th in np.linspace(0.0, 2.0 * np.pi, 9):
        res = crange.support_direction(a, th)
        expected = np.cos(th) * tau.real + np.sin(th) * tau.imag
        assert res.value == pytest.approx(expected, abs=1e-10)


def test_support_matches_grid_oracle_random_2x2():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = matcore.ginibre_random(2, rng)
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        assert crange.support_direction(a, th).value == pytest.approx(
            support_2x2_closed(a, th), abs=1e-9
        )


def test_support_result_invariants():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = matcore.ginibre_random(n, rng)
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        res = crange.support_direction(a, th)
        h = crange.rotated_hermitian_part(a, th)
        # dual feasibility, checked with numpy as the independent path
        assert np.linalg.eigvalsh(np.diag(res.dual_y) - h)[0] >= -1e-10
        assert res.gap >= -1e-10
        w = res.witness_point
        assert np.cos(th) * w.real + np.sin(th) * w.imag == pytest.approx(res.value, abs=1e-10)
        validate_correlation(res.correlation().matrix)


def test_support_determinism():
    a = matcore.ginibre_random(4, np.random.default_rng(3))
    r1 = crange.support_direction(a, 1.0)
    r2 = crange.support_direction(a, 1.0)
    assert r1.value == r2.value and r1.gap == r2.gap
    assert np.array_equal(r1.dual_y, r2.dual_y)


def test_gap_not_closed_flagging():
    a = matcore.ginibre_random(5, np.random.default_rng(8))
    cfg = crange.SolveConfig(tol=1e-16)
    res = crange.support_direction((a + a.conj().T) / 2.0, 0.0, cfg)
    assert not res.certified and "gap_not_closed" in res.flags
    assert res.gap > 1e-16  # still a valid two-sided bracket


def test_sub_precision_bracket_keeps_factored_dual():
    # at tol = 1e-16 the polished dual and the repaired one lie within the
    # rounding floor; the polished one, which has a Cholesky factor, is kept
    a = matcore.ginibre_random(8, np.random.default_rng(2))
    res = crange.support_direction(a, 0.0, crange.SolveConfig(tol=1e-16))
    assert res.gap >= 0.0
    np.linalg.cholesky(np.diag(res.dual_y) - crange.rotated_hermitian_part(a, 0.0))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_ascend_returns_its_value(n):
    h = random_hermitian(n, np.random.default_rng(n))
    np.fill_diagonal(h, 0.0)
    v, value = crange._ascend(h, np.eye(n, dtype=np.complex128))
    assert value == float(np.vdot(v, h @ v).real) / n


def test_range_boundary_disk_sandwich():
    rb = crange.range_boundary(E12, 64)
    assert np.allclose(rb.supports(), 0.5, atol=1e-9)
    assert rb.radius == pytest.approx(0.5, abs=1e-9)
    inner = rb.inner_hull()
    outer = rb.outer_polygon()
    # witness circle radius 1/2; outer polygon slightly outside
    assert np.allclose(np.hypot(inner[:, 0], inner[:, 1]), 0.5, atol=1e-8)
    assert np.hypot(outer[:, 0], outer[:, 1]).max() <= 0.5 / np.cos(np.pi / 64) + 1e-9


def test_range_boundary_diagonal_witnesses():
    rb = crange.range_boundary(np.diag([1.0, 3.0]).astype(complex), 8)
    assert np.allclose(rb.witness_points(), 2.0, atol=1e-9)


def test_range_boundary_ellipse_vs_oracle():
    rb = crange.range_boundary(A21, 32)
    for s in rb.samples:
        assert s.value == pytest.approx(support_2x2_closed(A21, s.theta), abs=1e-9)


def test_radius():
    assert crange.radius(E12, 64) == pytest.approx(0.5, abs=1e-8)
    a = np.diag([1.0 + 1.0j, -0.5]).astype(complex)
    tau = matcore.normalized_trace(a)
    assert crange.radius(a, 16) == pytest.approx(abs(tau), abs=1e-8)
    a3 = np.zeros((3, 3), dtype=complex)
    a3[0, 1] = 1.0
    assert crange.radius(a3, 32) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_contains():
    assert crange.contains(E12, 0.4, 64).contains
    assert not crange.contains(E12, 0.6, 64).contains
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = matcore.ginibre_random(3, rng)
        res = crange.contains(a, matcore.normalized_trace(a), 32)
        assert res.contains and not res.inconclusive


def test_contains_accounts_for_refinement_solves():
    # the point is a grid witness, so the margin is at rounding level; every
    # grid solve certifies at tol = 1e-12, but refinement solve 34 stays open
    # with a gap of about 2e-8, which leaves the verdict inconclusive
    rng = np.random.default_rng(10)
    n = int(rng.integers(3, 9))
    a = matcore.ginibre_random(n, rng)
    cfg = crange.SolveConfig(tol=1e-12)
    rb = crange.range_boundary(a, 32, cfg)
    assert rb.flags() == ()
    res = crange.contains(a, rb.samples[int(rng.integers(32))].witness_point, 32, cfg)
    assert abs(res.margin) < 1e-12
    assert res.inconclusive
    assert res.flags == ("gap_not_closed@34",)


def test_boundary_margin():
    # the E12 range is the disk of radius 1/2; compare_ranges' inclusion
    # margin is the boundary's margin of the sampled points
    rb = crange.range_boundary(E12, 64)
    assert rb.margin([0]) == pytest.approx(0.5, abs=1e-9)
    assert rb.margin([0.6]) < 0.0
    assert rb.margin([0, 0.6]) == rb.margin([0.6])
    approx = ucrange.wuc_inner(E12, [1, 2], 40, np.random.default_rng(0))
    res = ucrange.compare_ranges(E12, approx, 64)
    assert res.inclusion_margin == res.boundary.margin(approx.points)


@pytest.mark.parametrize(
    "point", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.1, -np.inf), complex(1.7e308, 1.7e308)]
)
def test_contains_rejects_nonfinite_point(monkeypatch, point):
    # rejected before any support solve: no solve can place such a point,
    # nor one whose modulus overflows
    monkeypatch.setattr(crange, "support_direction", lambda *args, **kwargs: pytest.fail("a support solve ran"))
    with pytest.raises(ValueError, match="point must be finite"):
        crange.contains(E12, point, 8)


def test_solve_config_has_no_cancel_hook():
    # a support solve depends on (A, theta, tol) alone
    assert [f.name for f in dataclasses.fields(crange.SolveConfig)] == ["tol", "seed"]
    with pytest.raises(TypeError):
        crange.SolveConfig(cancel=lambda: True)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        crange.SolveConfig(tol=tol)


def test_min_real_value():
    res = crange.min_real_value(np.ones((2, 2), dtype=complex))
    assert res.minimum == pytest.approx(0.0, abs=1e-9)
    res = crange.min_real_value(np.array([[1, 2], [2, 1]], dtype=complex))
    assert res.minimum == pytest.approx(-1.0, abs=1e-9)
    res = crange.min_real_value(np.diag([1.0, -1.0]).astype(complex))
    assert res.minimum == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(RangeNotRealError):
        crange.min_real_value(np.array([[0, 1j], [0.5, 0]], dtype=complex))
    with pytest.raises(RangeNotRealError):
        # diagonal imaginary part but nonzero mean
        crange.min_real_value(np.array([[1j, 0], [0, 1j]], dtype=complex))


def test_classical_support():
    for th in (0.0, 1.0, 2.5):
        assert crange.classical_support(E12, th) == pytest.approx(0.5, abs=1e-10)
    h = np.array([[2, 1], [1, 2]], dtype=complex)
    assert crange.classical_support(h, 0.0) == pytest.approx(3.0, abs=1e-10)
    # strictly larger than the correlation-range support (which is 1/2 here)
    assert crange.classical_support(np.diag([0.0, 1.0]).astype(complex), 0.0) == pytest.approx(1.0)


def test_translation_identity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = matcore.ginibre_random(n, rng)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tau = complex(np.mean(d))
        for th in np.linspace(0.0, 2.0 * np.pi, 7):
            lhs = crange.support_direction(a + np.diag(d), th).value
            rhs = crange.support_direction(a, th).value + np.cos(th) * tau.real + np.sin(th) * tau.imag
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_transpose_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = matcore.ginibre_random(int(rng.integers(2, 5)), rng)
        for th in np.linspace(0.0, 2.0 * np.pi, 7):
            assert crange.support_direction(a.T, th).value == pytest.approx(
                crange.support_direction(a, th).value, abs=1e-8
            )


def test_conjugation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = matcore.ginibre_random(n, rng)
        u = np.diag(np.exp(2j * np.pi * rng.random(n)))[:, rng.permutation(n)]
        b = u.conj().T @ a @ u
        for th in np.linspace(0.0, 2.0 * np.pi, 5):
            assert crange.support_direction(b, th).value == pytest.approx(
                crange.support_direction(a, th).value, abs=1e-8
            )


def test_continuity_lipschitz_in_matrix():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = matcore.ginibre_random(n, rng)
        e = 0.05 * matcore.ginibre_random(n, rng)
        bound = matcore.operator_norm(e)
        for th in np.linspace(0.0, 2.0 * np.pi, 7):
            dev = abs(
                crange.support_direction(a + e, th).value
                - crange.support_direction(a, th).value
            )
            assert dev <= bound + 1e-9


def test_radius_below_shifted_classical():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = matcore.ginibre_random(n, rng)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d -= np.mean(d)
        for th in np.linspace(0.0, 2.0 * np.pi, 9):
            assert crange.support_direction(a, th).value <= crange.classical_support(
                a + np.diag(d), th
            ) + 1e-8


def test_hermitian_direction_matches_numpy_reference():
    # certified value must equal the true SDP optimum bracketed by its own
    # dual; spot-check the bracket squeezes to ~1e-9 on random Hermitians
    rng = np.random.default_rng(13)
    for _ in range(10):
        h = random_hermitian(int(rng.integers(2, 6)), rng)
        res = crange.support_direction(h, 0.0)
        assert res.gap <= 1e-8


def test_n1_support():
    res = crange.support_direction(np.array([[2.0 - 1.0j]]), 0.3)
    z = 2.0 - 1.0j
    assert res.value == pytest.approx(np.cos(0.3) * z.real + np.sin(0.3) * z.imag, abs=1e-12)
    assert res.gap == 0.0


def _boundary_input(seed, op):
    """Matrix of the benchmark's boundary operation op: n cycles 3, 4, 4."""
    rng = np.random.default_rng([seed, op])
    n = (3, 4, 4)[op % 3]
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


# (seed, op, k) at theta = 2 pi k / 32: two directions where 5000 ascent
# sweeps stalled at a gap of 1.2-1.3e-8, and a near miss whose 150-sweep
# ascent value stops 5e-8 short of an exact slackness dual
HARD_DIRECTIONS = [(1, 27, 1), (2, 42, 11), (1, 26, 2)]
HARD_IDS = ["stalled-s1-op27", "stalled-s2-op42", "near-miss-s1-op26"]


@pytest.mark.parametrize("seed,op,k", HARD_DIRECTIONS, ids=HARD_IDS)
def test_hard_direction_certifies_in_first_restart(seed, op, k):
    res = crange.support_direction(_boundary_input(seed, op), 2.0 * np.pi * k / 32)
    assert res.certified and res.gap <= crange.SolveConfig.tol


@pytest.mark.parametrize("seed,op,k", HARD_DIRECTIONS, ids=HARD_IDS)
def test_polish_dual_ends_centred_and_interior(seed, op, k):
    h = crange.rotated_hermitian_part(_boundary_input(seed, op), 2.0 * np.pi * k / 32)
    n = h.shape[0]
    # warm start from B = I: its repaired slackness dual, and tr(H)/n
    y0 = crange.repair_dual(h, np.diag(h).real.copy())
    stop_tol = 2.5e-9
    y = crange.polish_dual(h, y0, float(np.trace(h).real) / n, stop_tol=stop_tol)
    z = np.diag(y) - h
    np.linalg.cholesky(z)  # strictly interior
    w = np.linalg.inv(z)
    w = (w + w.conj().T) / 2.0  # z's condition number is about 1e11 here
    d = 1.0 / np.sqrt(np.diag(w).real)
    b = validate_correlation(d[:, None] * w * d[None, :]).matrix
    value = float(np.sum(h * b.T).real) / n
    assert -1e-12 <= float(np.mean(y)) - value <= stop_tol


def test_polish_dual_path_stays_in_the_cone(path_counts):
    # damped steps stay inside the cone; about 60% of full-length first
    # trials leave it on these paths
    for seed, op, k in HARD_DIRECTIONS:
        test_polish_dual_ends_centred_and_interior(seed, op, k)
    assert 50 * path_counts.failed < sum(path_counts.levels)


def test_sub_precision_polish_halves_steps(path_counts, monkeypatch):
    # at tol = 1e-16 the path runs to mu far below what its Newton steps
    # resolve, and some damped steps leave the cone and are halved; the
    # end point is still strictly interior, and the bracket stays open
    rng = np.random.default_rng(0)
    a = matcore.ginibre_random(3, rng)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    polished = []
    polish_dual = crange.polish_dual

    def recorded(h, *args, **kwargs):
        y = polish_dual(h, *args, **kwargs)
        polished.append(np.diag(y) - h)
        return y

    monkeypatch.setattr(crange, "polish_dual", recorded)
    res = crange.support_direction(a, theta, crange.SolveConfig(tol=1e-16))
    assert path_counts.failed > 0
    assert len(polished) == 1 and np.isfinite(np.linalg.cholesky(polished[0])).all()
    assert not res.certified


@pytest.mark.parametrize("step", ["nan", "singular"])
def test_centred_path_keeps_start_without_a_step(step):
    # numpy factors a NaN matrix into a NaN Cholesky factor without raising:
    # every trial of a NaN step must be refused, as must a singular system
    def newton(w, mu):
        if step == "singular":
            raise np.linalg.LinAlgError("singular")
        return np.ones(2), np.full(2, np.nan)

    x0 = np.array([1.0, 2.0])
    x = crange._centred_path(np.diag, newton, x0, 1.0, lambda mu: True)
    assert np.array_equal(x, x0)


def test_centred_path_starts_inside_the_cone():
    with pytest.raises(np.linalg.LinAlgError, match="inside the cone"):
        crange._centred_path(np.diag, None, np.array([1.0, -1.0]), 1.0, lambda mu: True)


def test_polish_dual_keeps_warm_start_outside_the_cone(monkeypatch):
    # rounding can put the shifted start outside the cone; the repaired warm
    # start is then returned
    def outside(*args):
        raise np.linalg.LinAlgError("the path must start inside the cone")

    monkeypatch.setattr(crange, "_centred_path", outside)
    h = crange.rotated_hermitian_part(matcore.ginibre_random(3, np.random.default_rng(1)), 0.3)
    y0 = np.zeros(3)
    y = crange.polish_dual(h, y0, -10.0, stop_tol=1e-8)
    np.testing.assert_array_equal(y, crange.repair_dual(h, y0))


def test_large_diagonal_keeps_certificate():
    # diag(H) adds mean(diag H) to every value; its rounding must cost
    # neither the certificate nor accuracy where it dwarfs the rest of H
    a = matcore.ginibre_random(8, np.random.default_rng(0))
    cfg = crange.SolveConfig()
    for th in (0.0, 0.3, np.pi):
        base = crange.support_direction(a, th)
        res = crange.support_direction(a + 1e6 * np.eye(8), th, cfg)
        assert base.certified and res.certified
        assert res.value == pytest.approx(base.value + 1e6 * np.cos(th), abs=1e-8)


def test_grid_samples_keep_their_own_maximizers():
    # each value is Re tr(H V V*) / n of its own maximizer, as the benchmark
    # checker recomputes it
    for op in range(6):
        a = _boundary_input(1, op)
        n = a.shape[0]
        for s in crange.range_boundary(a, 32).samples:
            v = s.maximizer.vectors
            h = crange.rotated_hermitian_part(a, s.theta)
            assert s.value == pytest.approx(float(np.trace(h @ v @ v.conj().T).real) / n, abs=1e-12)


def test_start_must_match_the_size(monkeypatch):
    a = _boundary_input(1, 1)  # 4 x 4
    small = crange.support_direction(_boundary_input(1, 0), 0.0)  # 3 x 3
    v = crange.support_direction(a, 0.0).maximizer.vectors
    narrow = dataclasses.replace(small, maximizer=GramFactor(v[:, :3]))
    monkeypatch.setattr(crange, "_ascend", lambda *args: pytest.fail("a solve ran"))
    for start in (small, narrow):
        with pytest.raises(ValueError, match="start's maximizer must be 4 x 4"):
            crange.support_direction(a, 0.1, start=start)


def test_grid_brackets_overlap_scalar_solves():
    # the stacked grid and the one-direction solves bracket the same support
    # value: every grid sample certifies, and [value, value + gap] meets the
    # scalar solve's bracket to within the rounding floor
    for seed in (1, 2):
        for op in range(30):
            a = _boundary_input(seed, op)
            rb = crange.range_boundary(a, 32)
            assert not rb.flags()
            for s in rb.samples:
                r = crange.support_direction(a, s.theta)
                h = crange.rotated_hermitian_part(a, s.theta)
                floor = crange._rounding_floor(h - np.diag(np.diag(h)))
                assert s.value <= r.value + r.gap + floor and r.value <= s.value + s.gap + floor


def test_stalled_warm_start_certifies_through_polish(monkeypatch):
    # seed 1, op 6: chained from theta = 0 on the 32-direction grid, the
    # maximizer of direction 12 has rank 1, and row updates keep the rows in
    # its span, so the ascent of direction 13 from it stalls; polish_dual
    # closes that bracket, where the cold ascent closes its own
    a = _boundary_input(1, 6)
    start = crange.support_direction(a, 0.0)
    for k in range(1, 13):
        start = crange.support_direction(a, 2.0 * np.pi * k / 32, start=start)
    assert np.linalg.matrix_rank(start.maximizer.vectors, tol=1e-8) == 1
    polished = []
    polish = crange.polish_dual
    monkeypatch.setattr(crange, "polish_dual", lambda *args, **kwargs: polished.append(1) or polish(*args, **kwargs))
    theta = 2.0 * np.pi * 13 / 32
    assert crange.support_direction(a, theta).certified and not polished
    assert crange.support_direction(a, theta, start=start).certified and len(polished) == 1


def test_refinement_chains_from_the_grid_sample(monkeypatch):
    a = matcore.ginibre_random(4, np.random.default_rng(5))
    rb = crange.range_boundary(a, 16)
    sample = rb.samples[int(np.argmax(rb.supports()))]
    starts, results = [], []
    solve = crange.support_direction

    def recorded(a, theta, cfg, *, start=None):
        starts.append(start)
        results.append(solve(a, theta, cfg, start=start))
        return results[-1]

    monkeypatch.setattr(crange, "support_direction", recorded)
    crange._refine(a, 16, crange.SolveConfig(), rb, lambda t, h: h)
    assert len(starts) > 2 and starts[0] is sample
    assert all(s is r for s, r in zip(starts[1:], results))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_warm_refinement_matches_cold(monkeypatch, n):
    # radius_full's and contains' golden sections reach the same objective
    # value from warm and from cold solves
    a = matcore.ginibre_random(n, np.random.default_rng(5))
    rb = crange.range_boundary(a, 64)
    point = complex(0.1, -0.2)
    objectives = [lambda t, h: h, lambda t, h: np.cos(t) * point.real + np.sin(t) * point.imag - h]
    warm = [crange._refine(a, 64, crange.SolveConfig(), rb, f) for f in objectives]
    solve = crange.support_direction
    monkeypatch.setattr(crange, "support_direction", lambda a, theta, cfg, *, start=None: solve(a, theta, cfg))
    cold = [crange._refine(a, 64, crange.SolveConfig(), rb, f) for f in objectives]
    for (_, w, _, w_flags), (_, c, _, c_flags) in zip(warm, cold):
        assert w == pytest.approx(c, rel=1e-12, abs=1e-12) and w_flags == c_flags == ()


def test_stacked_repair_and_polish_match_each_matrix():
    # one stacked call per function against one call per matrix: the duals
    # are feasible and agree to within the polish tolerance; the zero matrix
    # is closed at its repaired start, which it keeps
    a = _boundary_input(1, 7)
    h = np.stack([crange.rotated_hermitian_part(a, 2.0 * np.pi * k / 8) for k in range(8)] + [np.zeros((4, 4))])
    y0 = np.zeros(h.shape[:2])
    target = np.trace(h, axis1=1, axis2=2).real / 4  # attained by B = I
    stop_tol = 2.5e-9
    repaired = crange.repair_dual(h, y0)
    polished = crange.polish_dual(h, y0, target, stop_tol)
    for j in range(len(h)):
        r = crange.repair_dual(h[j], y0[j])
        p = crange.polish_dual(h[j], y0[j], target[j], stop_tol)
        assert np.mean(repaired[j]) == pytest.approx(np.mean(r), abs=1e-12)
        assert abs(np.mean(polished[j]) - np.mean(p)) <= stop_tol
        assert np.linalg.eigvalsh(np.diag(polished[j]) - h[j])[0] >= -1e-12
    np.testing.assert_array_equal(polished[-1], np.zeros(4))


def test_stacked_support_takes_no_start():
    a = _boundary_input(1, 1)
    start = crange.support_direction(a, 0.0)
    with pytest.raises(ValueError, match="start is for a single theta"):
        crange.support_direction(a, np.array([0.0, 1.0]), start=start)


@pytest.mark.parametrize(
    "a",
    [np.array([[2.0 - 1.0j]]), np.diag([1.0 + 2.0j, -0.5, 3.0])],
    ids=["n1", "diagonal"],
)
def test_grid_of_zero_off_diagonal_certifies(a):
    # H_k = 0 at every angle: polish_dual keeps the repaired dual 0, which
    # has no Cholesky factor, and the primal is B = I
    rb = crange.range_boundary(a, 16)
    assert rb.flags() == ()
    tau = matcore.normalized_trace(a)
    expected = np.cos(rb.thetas()) * tau.real + np.sin(rb.thetas()) * tau.imag
    np.testing.assert_allclose(rb.supports(), expected, atol=1e-12)
    assert all(s.gap == 0.0 for s in rb.samples)


def test_huge_grid_flags_without_raising():
    # a 4 x 4 Gaussian scaled by 2^520, as in CI: stacked Newton systems go
    # singular there and fall back to one matrix at a time; the grid stays
    # open, finite and free of overflow
    g = np.random.default_rng(4).standard_normal((4, 4, 2))
    a = (g[..., 0] + 1j * g[..., 1]) * 2.0**520
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rb = crange.range_boundary(a, 64)
    assert rb.flags() and np.isfinite(rb.supports()).all() and np.isfinite(rb.uppers()).all()


def test_point_between_attained_and_dual_line_is_not_outside(monkeypatch):
    # the E12 range is the disk of radius 1/2; sample 0's bracket is widened
    # to [1/2 - 1e-8, 1/2 + gap], and z = 1/2 - 5e-9 is in the range, between
    # its attained line and its dual line
    rb = crange.range_boundary(E12, 8)
    s = rb.samples[0]
    rb.samples[0] = dataclasses.replace(s, value=s.value - 1e-8, gap=s.gap + 1e-8)
    z = 0.5 - 5e-9
    assert rb.margin([z]) >= 0.0
    outer = rb.outer_polygon()
    assert np.max(outer[:, 0]) >= z
    monkeypatch.setattr(crange, "range_boundary", lambda *args: rb)
    res = crange.contains(E12, z, 8)
    assert res.margin < -1e-9  # the attained lines alone would cut z off
    assert res.contains and res.inconclusive


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), k=st.integers(0, 15))
def test_certified_witness_is_never_outside(seed, n, k):
    a = matcore.ginibre_random(n, np.random.default_rng(seed))
    res = crange.support_direction(a, 2.0 * np.pi * (k + 0.5) / 16)
    if res.certified:
        assert crange.contains(a, res.witness_point, 16).contains


@pytest.fixture
def path_trace(monkeypatch):
    """Each row's Newton steps on the centred barrier path while a test runs,
    as (mu, decrement) pairs, a scalar path counting as one row.  Rows of a
    stack are told apart by the indices that stop receives once per round;
    trace["rounds"] counts the rounds, and a round whose stacked Newton
    system was singular records NaN decrements."""
    trace = {"rows": {}, "rounds": 0}
    centred_path = crange._centred_path

    def path(slack, newton, x, mu, stop, level=None):
        if x.ndim == 1:
            row = trace["rows"].setdefault(len(trace["rows"]), [])

            def recorded(w, mu):
                grad, dx = newton(w, mu)
                row.append((mu, -float(grad @ dx)))
                return grad, dx

            return centred_path(slack, recorded, x, mu, stop, level)
        base, rounds, alone = len(trace["rows"]), [], []

        def stacked(w, mu):
            if alone:  # the stacked system was singular: each is solved alone
                return newton(w, mu)
            trace["rounds"] += 1
            try:
                grad, dx = newton(w, mu)
            except np.linalg.LinAlgError:
                alone.append(True)
                rounds.append((mu.copy(), np.full(len(mu), np.nan)))
                raise
            rounds.append((mu.copy(), -np.einsum("ij,ij->i", grad, dx)))
            return grad, dx

        def recorded_stop(mu, k):
            alone.clear()
            for j, m, decrement in zip(k, *rounds[-1]):
                trace["rows"].setdefault(base + int(j), []).append((m, decrement))
            return stop(mu, k)

        return centred_path(slack, stacked, x, mu, recorded_stop)

    monkeypatch.setattr(crange, "_centred_path", path)
    return trace


def _check_long_steps(steps):
    """A path's steps follow the long-step rule: every level but the last ends
    at its first step with lam <= 1/4, the last at a decrement of at most
    PATH_TOL mu, or at a step that does not lower the decrement."""
    levels = {}  # decrements by mu, which shrinks from level to level
    for mu, decrement in steps:
        levels.setdefault(mu, []).append(decrement)
    *early, (mu, final) = levels.items()
    for mu_k, decrements in early:
        lam = np.sqrt(np.maximum(np.array(decrements) / mu_k, 0.0))
        assert (lam[:-1] > 0.25).all() and lam[-1] <= 0.25
    assert final[-1] <= crange.PATH_TOL * mu or (len(final) > 1 and final[-1] >= final[-2])
    return len(levels)


def test_polish_dual_takes_long_steps(path_trace):
    # one scalar path and one stack of eight matrices with a zero matrix,
    # which keeps its repaired start and takes no step
    test_polish_dual_ends_centred_and_interior(*HARD_DIRECTIONS[0])
    assert len(path_trace["rows"]) == 1
    test_stacked_repair_and_polish_match_each_matrix()
    rows = path_trace["rows"]
    assert len(rows) == 1 + 8 + 8  # scalar, then the stack, then its scalar checks
    assert all(_check_long_steps(steps) >= 3 for steps in rows.values())


def test_grid_takes_few_stacked_rounds(path_trace):
    crange.range_boundary(_boundary_input(1, 0), 32)
    assert path_trace["rounds"] <= 17
    assert all(_check_long_steps(steps) >= 3 for steps in path_trace["rows"].values())


def test_stalled_levels_end_early(path_trace):
    # the input of test_contains_accounts_for_refinement_solves at tol =
    # 1e-12: the last levels of these scalar solves, and of some rows of its
    # grid, reach a mu that rounding cannot resolve, where a full step stops
    # lowering the decrement or rounding absorbs a damped step whole; such
    # levels ran to the 100-step safety stop
    rng = np.random.default_rng(10)
    n = int(rng.integers(3, 9))
    a = matcore.ginibre_random(n, rng)
    cfg = crange.SolveConfig(tol=1e-12)
    for k in (14, 23, 24, 31):
        assert crange.support_direction(a, 2.0 * np.pi * k / 32, cfg).certified
    assert crange.range_boundary(a, 32, cfg).flags() == ()
    rows = path_trace["rows"].values()
    assert len(rows) >= 4 + 32  # and a scalar solve for each grid bracket left open
    assert max(max(Counter(mu for mu, _ in steps).values()) for steps in rows) <= 20

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnr import matcore, metrics
from cnr.crange import radius
from oracles import seminorm_2x2_zoom

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_seminorm_vanishes_on_traceless_diagonals():
    assert metrics.correlation_seminorm(np.diag([1.0, -0.5, -0.5]).astype(complex)) <= 1e-12
    assert metrics.correlation_seminorm(np.diag([2.0j, -2.0j]).astype(complex)) <= 1e-12
    assert metrics.correlation_seminorm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_seminorm_e12_is_one():
    # 1-D oracle: ||[[ -d, 1], [0, d]]|| >= 1 for every d, with equality at 0
    ds = np.linspace(-2.0, 2.0, 401)
    grid = min(
        np.linalg.svd(E12 - np.diag([d, -d]), compute_uv=False)[0] for d in ds
    )
    assert grid >= 1.0 - 1e-12
    assert metrics.correlation_seminorm(E12) == pytest.approx(1.0, abs=1e-8)


def test_seminorm_identity_is_one():
    assert metrics.correlation_seminorm(np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-8)
    assert metrics.correlation_seminorm(np.eye(4, dtype=complex)) == pytest.approx(1.0, abs=1e-6)


def test_seminorm_matches_zoom_grid_2x2():
    rng = np.random.default_rng(0)
    for _ in range(6):
        t = matcore.ginibre_random(2, rng)
        res = metrics.correlation_seminorm_full(t)
        oracle = seminorm_2x2_zoom(t)
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert res.lower <= oracle + 1e-9


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("sparse", [False, True])
def test_seminorm_bracket(n, sparse):
    # the shapes kappa_search starts from: Ginibre and masked-sparse
    rng = np.random.default_rng(100 * n + sparse)
    for _ in range(3):
        t = matcore.ginibre_random(n, rng)
        if sparse:
            mask = rng.random((n, n)) < 2.0 / n
            np.fill_diagonal(mask, False)
            t = t * mask
            if not mask.any():
                t[0, 1] = 1.0
        res = metrics.correlation_seminorm_full(t)
        assert 0.0 <= res.value - res.lower <= metrics.SEMINORM_TOL
        assert res.agreed
        # weak duality: the dual bound sits below every trace-zero shift,
        # far from and close to the returned one
        for scale in (1.0, 1e-3, 1e-6):
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = res.diagonal + scale * (d - np.mean(d))
            assert res.lower <= np.linalg.norm(t - np.diag(d), 2)


@pytest.mark.parametrize("c", [1e-200, 1e-8, 1.0, 100.0, 1e8, 1e200])
def test_seminorm_scale(c):
    # homogeneity: the solve on c T is the solve on T scaled by c, certified
    # at every scale (overflowing or underflowing barriers raise
    # RuntimeWarnings, which fail the suite)
    t = matcore.ginibre_random(8, np.random.default_rng(3))
    ref = metrics.correlation_seminorm_full(t)
    res = metrics.correlation_seminorm_full(c * t)
    assert res.agreed
    assert res.value / c == pytest.approx(ref.value, rel=1e-12)
    assert res.value / c == pytest.approx(4.07539443881, abs=1e-10)
    assert np.allclose(res.diagonal / c, ref.diagonal, rtol=0.0, atol=1e-10)
    width = (res.value - res.lower) / c
    assert 0.0 <= width <= metrics.SEMINORM_TOL * np.max(np.abs(t))


def test_seminorm_centres_slow_levels():
    # masked-sparse n = 16 input whose slowest barrier level takes 11 damped
    # Newton steps to centre, 41 if each step starts at full length; cut off
    # earlier, the bracket stayed 0.14 wide
    rng = np.random.default_rng([4, 587])
    t = matcore.ginibre_random(16, rng)
    mask = rng.random((16, 16)) < 2.0 / 16
    np.fill_diagonal(mask, False)
    res = metrics.correlation_seminorm_full(t * mask)
    assert res.agreed
    assert 0.0 <= res.value - res.lower <= metrics.SEMINORM_TOL


def test_seminorm_path_stays_in_the_cone(path_counts):
    # damped steps of length 1/(1 + lam) stay inside the cone, so the line
    # search spends no factorisation outside it (about 1.6 per Newton step
    # if each step starts at full length)
    for n in (4, 8, 16):
        for sparse in (False, True):
            test_seminorm_bracket(n, sparse)
    assert 50 * path_counts.failed < sum(path_counts.levels)


def test_seminorm_levels_centre_in_few_steps(path_counts):
    test_seminorm_centres_slow_levels()
    assert max(path_counts.levels) <= 15


def test_seminorm_level_hook_leaves_slack_inverse(monkeypatch):
    # the path hands the same slack inverse to the hook and to the next
    # Newton system, so the hook must not write into it
    centred_path = metrics._centred_path
    levels = []

    def path(slack, newton, x, mu, stop, level):
        def checked_level(w):
            before = w.copy()
            level(w)
            levels.append(np.array_equal(w, before))

        return centred_path(slack, newton, x, mu, stop, checked_level)

    monkeypatch.setattr(metrics, "_centred_path", path)
    metrics.correlation_seminorm_full(matcore.ginibre_random(4, np.random.default_rng(0)))
    assert levels and all(levels)


def test_seminorm_lower_bounds():
    # any diagonal shift keeps each off-diagonal entry and the mean diagonal
    rng = np.random.default_rng(1)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        t = matcore.ginibre_random(n, rng)
        v = metrics.correlation_seminorm(t)
        off = t - np.diag(np.diag(t))
        assert v >= np.max(np.abs(off)) - 1e-8
        assert v >= abs(matcore.normalized_trace(t)) - 1e-8


@given(st.floats(0.05, 4.0), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_seminorm_homogeneity(t, seed):
    a = matcore.ginibre_random(3, np.random.default_rng(seed))
    assert abs(
        metrics.correlation_seminorm(t * a) - t * metrics.correlation_seminorm(a)
    ) <= 2e-6 * max(1.0, t)


def test_seminorm_triangle():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        a = matcore.ginibre_random(n, rng)
        b = matcore.ginibre_random(n, rng)
        slack = (
            metrics.correlation_seminorm(a + b)
            - metrics.correlation_seminorm(a)
            - metrics.correlation_seminorm(b)
        )
        assert slack <= 2e-6


def test_radius_seminorm_bracket():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(6):
            t = matcore.ginibre_random(n, rng)
            w = radius(t, 48)
            sn = metrics.correlation_seminorm(t)
            assert w <= sn + 1e-6
            assert w >= sn / (4 * n + 2) - 1e-6


def test_radius_invariant_under_traceless_diagonal_shift():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        t = matcore.ginibre_random(n, rng)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d -= np.mean(d)
        w1 = radius(t, 48)
        w2 = radius(t + np.diag(d), 48)
        assert abs(w1 - w2) <= 1e-7


def test_kappa_search_canonical_witness():
    est = metrics.kappa_search(2, budget=6, rng=np.random.default_rng(0))
    assert est.best_ratio <= 0.5 + 1e-6
    assert est.best_ratio >= est.lower_bound - 1e-6
    est = metrics.kappa_search(3, budget=6, rng=np.random.default_rng(1))
    assert est.best_ratio <= 1.0 / 3.0 + 1e-6
    assert est.quoted_upper == pytest.approx(2.0 / 3.0)
    assert any("discrepancy" in f for f in est.flags)
    assert est.witness.shape == (3, 3)


def test_kappa_sparse_witness_values():
    w = metrics.sparse_witness(4)
    assert metrics.correlation_seminorm(w) == pytest.approx(1.0, abs=1e-8)
    assert radius(w, 32) == pytest.approx(0.25, abs=1e-8)


def test_direct_sum_disk_scaling():
    rep = metrics.direct_sum_check(E12, np.zeros((1, 1), dtype=complex), m=32)
    assert rep.max_support_dev <= 1e-9
    assert np.allclose(rep.direct, 1.0 / 3.0, atol=1e-9)


def test_direct_sum_diagonal_blocks():
    s1 = np.diag([2.0]).astype(complex)
    s2 = np.diag([1.0, -1.0]).astype(complex)
    rep = metrics.direct_sum_check(s1, s2, m=16)
    # both blocks singletons: combined range is the weighted mean point 2/3
    assert rep.max_support_dev <= 1e-9
    thetas = rep.thetas
    assert np.allclose(rep.direct, (2.0 / 3.0) * np.cos(thetas), atol=1e-9)


def test_direct_sum_random_blocks():
    rng = np.random.default_rng(5)
    for _ in range(4):
        s1 = matcore.ginibre_random(2, rng)
        s2 = matcore.ginibre_random(2, rng)
        rep = metrics.direct_sum_check(s1, s2, m=24)
        assert rep.max_support_dev <= 1e-7
        assert rep.hausdorff <= 1e-6


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 9, 20])
def test_kappa_search_runs_budget_evaluations(monkeypatch, budget):
    # --budget is the number of radius/seminorm evaluations, the sparse
    # witness included
    calls = []
    monkeypatch.setattr(metrics, "radius", lambda t, m, cfg: calls.append(t) or 1.0)
    metrics.kappa_search(3, budget=budget, rng=np.random.default_rng(0))
    assert len(calls) == budget


# The ratio each evaluation of kappa_search(3, budget=len(ratios)) reports:
# the sparse witness, then (at budget 9) two starts, evaluations 1 and 5,
# with three local steps each.  None marks a zero seminorm.  best is the
# evaluation that must win.
KAPPA_SCRIPTS = {
    "start-wins": ([0.34, 0.08, 0.2, 0.3, 0.09, 0.5, 0.6, 0.7, 0.8], 1),
    "step-below-bound": ([0.34, 0.2, 0.3, 0.05, 0.25, 0.5, 0.6, 0.7, 0.8], 3),
    # from an infinite ratio the first step is taken, though it is not best
    "zero-seminorm-start": ([0.34, 0.2, 0.3, 0.25, 0.4, None, 0.6, 0.1, 0.15], 7),
    "zero-seminorm-witness": ([None], 0),
}


@pytest.mark.parametrize("name", list(KAPPA_SCRIPTS))
def test_kappa_search_keeps_best_ratio(monkeypatch, name):
    ratios, best = KAPPA_SCRIPTS[name]
    d = np.array([0.5, -0.25j, -0.5 + 0.25j])
    seen, radii = [], []

    def seminorm(t):
        seen.append(t)
        value = 0.0 if ratios[len(seen) - 1] is None else 2.0
        return metrics.SeminormResult(value, d, True, value)

    def fake_radius(t, m, cfg):
        radii.append(t)
        return ratios[len(seen) - 1]

    monkeypatch.setattr(metrics, "correlation_seminorm_full", seminorm)
    monkeypatch.setattr(metrics, "radius", fake_radius)
    est = metrics.kappa_search(3, budget=len(ratios), rng=np.random.default_rng(0))
    assert len(seen) == len(ratios)
    assert len(radii) == len(ratios) - ratios.count(None)  # no radius of a zero seminorm
    if ratios[best] is None:  # an infinite ratio keeps its matrix as given
        assert est.best_ratio == np.inf
        assert np.array_equal(est.witness, seen[best])
    else:
        assert est.best_ratio == ratios[best]
        assert np.array_equal(est.witness, (seen[best] - np.diag(d)) / 2.0)
    below = "ratio_below_proven_lower_bound" in est.flags
    assert below == (est.best_ratio < 1.0 / 14.0)


def test_seminorm_level_hook_sees_centred_levels(monkeypatch):
    # the hook reads a dual bound at every level, so every level is centred
    # to a decrement of PATH_TOL mu, never ended at its first full step
    from cnr.crange import PATH_TOL

    centred_path = metrics._centred_path
    seen = []

    def path(slack, newton, x, mu, stop, level):
        steps = []

        def recorded(w, mu):
            grad, dx = newton(w, mu)
            steps.append((mu, -float(grad @ dx)))
            return grad, dx

        def checked_level(w):
            mu, decrement = steps[-1]
            seen.append(decrement <= PATH_TOL * mu)
            level(w)

        return centred_path(slack, recorded, x, mu, stop, checked_level)

    monkeypatch.setattr(metrics, "_centred_path", path)
    test_seminorm_centres_slow_levels()
    for n in (4, 8, 16):
        for sparse in (False, True):
            test_seminorm_bracket(n, sparse)
    assert len(seen) > 100 and all(seen)

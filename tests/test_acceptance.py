"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in failure
output) and asserts the criterion at its stated tolerance.
"""

import json
import time

import numpy as np

from cnr import checks, matcore, metrics, ucrange
from cnr.cli import main as cli_main
from cnr.crange import radius, range_boundary, support_direction
from cnr.decompose import (
    NotDecomposableError,
    decompose,
    nonnegativity_test,
    sos_certificate,
    verify_certificate,
)
from cnr.geometry import halfplane_polygon, hausdorff


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _analytic_support_2x2(a, thetas):
    """Ellipse support: center mean-diagonal, semi-axes (|b|+|c|)/2 and
    ||b|-|c||/2, major axis along half the phase of b*c."""
    b, c = a[0, 1], a[1, 0]
    center = (a[0, 0] + a[1, 1]) / 2.0
    big = (abs(b) + abs(c)) / 2.0
    small = abs(abs(b) - abs(c)) / 2.0
    psi = np.angle(b * c) / 2.0 if b * c != 0 else 0.0
    base = np.cos(thetas) * center.real + np.sin(thetas) * center.imag
    return base + np.sqrt(
        big**2 * np.cos(thetas - psi) ** 2 + small**2 * np.sin(thetas - psi) ** 2
    )


def test_criterion_1_closed_form_2x2():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_h = 0.0
    worst_dev = 0.0
    for _ in range(50):
        a = matcore.ginibre_random(2, rng)
        rb = range_boundary(a, 256)
        thetas = rb.thetas()
        solver = rb.supports()
        analytic = _analytic_support_2x2(a, thetas)
        worst_dev = max(worst_dev, float(np.max(np.abs(solver - analytic))))
        poly_solver = halfplane_polygon(thetas, solver)
        poly_true = halfplane_polygon(thetas, analytic)
        worst_h = max(worst_h, hausdorff(poly_solver, poly_true))
    elapsed = time.perf_counter() - t0
    ok = worst_h <= 1e-6 and worst_dev <= 1e-6 and elapsed < 5.0
    _report(1, ok, f"hausdorff {worst_h:.2e}, support dev {worst_dev:.2e}, {elapsed:.2f}s")
    assert worst_h <= 1e-6
    assert worst_dev <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_duality_certification():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    gaps = []
    lam_min = 0.0
    for case in range(100):
        n = 2 + case % 5
        z = matcore.ginibre_random(n, rng)
        a = (z + z.conj().T) / 2.0 if case % 2 == 0 else z
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        res = support_direction(a, theta)
        gaps.append(res.gap)
        h = np.cos(theta) * (a + a.conj().T) / 2.0 + np.sin(theta) * (a - a.conj().T) / 2.0j
        lam_min = min(lam_min, float(np.linalg.eigvalsh(np.diag(res.dual_y) - h)[0]))
    elapsed = time.perf_counter() - t0
    rate = float(np.mean(np.asarray(gaps) <= 1e-8))
    ok = rate >= 0.95 and lam_min >= -1e-10 and elapsed < 30.0
    _report(2, ok, f"gap<=1e-8 in {rate*100:.0f}%, min dual eig {lam_min:.2e}, {elapsed:.2f}s")
    assert rate >= 0.95
    assert lam_min >= -1e-10
    assert elapsed < 30.0


def test_criterion_3_basic_identity_suite(tmp_path):
    t0 = time.perf_counter()
    failures = []
    for n, count in ((2, 13), (3, 13), (4, 12), (5, 12)):
        for r in checks.basic_suite(n, seed=303, count=count):
            if not r.passed:
                failures.append(f"n={n} {r.name}: {r.detail}")
    out = tmp_path / "check.json"
    code = cli_main(
        ["check", "--suite", "basic", "--n", "4", "--seed", "7", "--count", "4",
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and code == 0 and elapsed < 60.0
    _report(3, ok, f"50 matrices, exit {code}, {elapsed:.2f}s; failures: {failures or 'none'}")
    assert not failures
    assert code == 0
    assert json.loads(out.read_text())["result"]["passed"] is True
    assert elapsed < 60.0


def test_criterion_4_direct_sum_law():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))
        s1 = matcore.ginibre_random(k1, rng)
        s2 = matcore.ginibre_random(k2, rng)
        rep = metrics.direct_sum_check(s1, s2, m=24)
        worst = max(worst, rep.max_support_dev)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    witness = np.zeros((3, 3), dtype=complex)
    witness[:2, :2] = e12
    r = radius(witness, 64)
    ok = worst <= 1e-7 and abs(r - 1.0 / 3.0) <= 1e-7
    _report(4, ok, f"support dev {worst:.2e}; padded witness radius {r:.9f} (1/3 expected)")
    assert worst <= 1e-7
    assert abs(r - 1.0 / 3.0) <= 1e-7


def test_criterion_5_conjugation_invariance():
    rng = np.random.default_rng(505)
    m = 8
    thetas = 2.0 * np.pi * np.arange(m) / m
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a = matcore.ginibre_random(n, rng)
        base = np.array([support_direction(a, t).value for t in thetas])
        for _ in range(20):
            u = np.diag(np.exp(2j * np.pi * rng.random(n)))[:, rng.permutation(n)]
            conj = u.conj().T @ a @ u
            vals = np.array([support_direction(conj, t).value for t in thetas])
            worst = max(worst, float(np.max(np.abs(vals - base))))
    ok = worst <= 1e-8
    _report(5, ok, f"worst support deviation {worst:.2e} over 100 conjugations")
    assert worst <= 1e-8


def test_criterion_6_decomposition_equivalence():
    rng = np.random.default_rng(606)
    mismatches = 0
    worst_margin = 0.0
    worst_residual = 0.0
    for case in range(200):
        n = 2 + case % 4
        z = matcore.ginibre_random(n, rng)
        a = (z + z.conj().T) / 2.0 + rng.uniform(-1.0, 3.0) * np.eye(n)
        nn = nonnegativity_test(a)
        try:
            dec = decompose(a)
            succeeded = True
            worst_margin = max(worst_margin, abs(dec.margin - nn.margin))
            cert = sos_certificate(dec)
            rep = verify_certificate(a, cert)
            if not rep.valid:
                mismatches += 1
            worst_residual = max(worst_residual, rep.entry_max)
        except NotDecomposableError:
            succeeded = False
        if succeeded != nn.nonnegative:
            mismatches += 1
    ok = mismatches == 0 and worst_margin <= 1e-8 and worst_residual <= 1e-8
    _report(
        6,
        ok,
        f"200 instances, mismatches {mismatches}, margin dev {worst_margin:.2e}, "
        f"residual {worst_residual:.2e}",
    )
    assert mismatches == 0
    assert worst_margin <= 1e-8
    assert worst_residual <= 1e-8


def test_criterion_7_radius_seminorm_bracket():
    rng = np.random.default_rng(707)
    worst_hi = -np.inf
    worst_lo = -np.inf
    for n in (2, 3, 4):
        for _ in range(50):
            t = matcore.ginibre_random(n, rng)
            w = radius(t, 48)
            sn = metrics.correlation_seminorm(t)
            worst_hi = max(worst_hi, w - sn)
            worst_lo = max(worst_lo, sn / (4 * n + 2) - w)
    ratios = {}
    for n in (2, 3, 4):
        est = metrics.kappa_search(n, budget=6, rng=np.random.default_rng(n))
        ratios[n] = est.best_ratio
    ok = (
        worst_hi <= 1e-6
        and worst_lo <= 1e-6
        and all(ratios[n] <= 1.0 / n + 1e-5 for n in ratios)
    )
    _report(
        7,
        ok,
        f"bracket violations hi {worst_hi:.2e} lo {worst_lo:.2e}; "
        f"search ratios {[f'{n}:{v:.6f}' for n, v in ratios.items()]}",
    )
    assert worst_hi <= 1e-6
    assert worst_lo <= 1e-6
    for n, v in ratios.items():
        assert v <= 1.0 / n + 1e-5


def test_criterion_8_induced_range_inclusion_and_convergence():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    worst_margin = np.inf
    worst_deficit = 0.0
    for case in range(10):
        t = matcore.ginibre_random(2, rng)
        approx = ucrange.wuc_inner(t, k_list=[16], samples=2000,
                                   rng=np.random.default_rng([808, case]))
        cmp_res = ucrange.compare_ranges(t, m=128, approx=approx)
        worst_margin = min(worst_margin, cmp_res.inclusion_margin)
        worst_deficit = max(worst_deficit, cmp_res.deficit)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-8 and worst_deficit <= 0.02 and elapsed < 60.0
    _report(
        8,
        ok,
        f"inclusion margin {worst_margin:.2e}, deficit {worst_deficit:.4f}, {elapsed:.2f}s",
    )
    assert worst_margin >= -1e-8
    assert worst_deficit <= 0.02
    assert elapsed < 60.0


def test_criterion_9_continuity():
    rng = np.random.default_rng(909)
    m = 12
    thetas = 2.0 * np.pi * np.arange(m) / m
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = matcore.ginibre_random(n, rng)
        e = rng.uniform(0.01, 0.5) * matcore.ginibre_random(n, rng)
        bound = matcore.operator_norm(e)
        for t in thetas:
            dev = abs(support_direction(a + e, t).value - support_direction(a, t).value)
            worst = max(worst, dev - bound)
    ok = worst <= 1e-9
    _report(9, ok, f"worst Lipschitz excess {worst:.2e} over 50 perturbation pairs")
    assert worst <= 1e-9

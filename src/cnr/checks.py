"""Invariant suites behind the `check` subcommand.

Each suite draws seeded random instances and verifies the structural
identities of the range machinery: containment in the classical range,
diagonal translation, singleton characterization, realness, continuity,
transpose and conjugation invariance, duality certification, the
decomposition equivalence, seminorm axioms, and elliptope membership of
induced correlation matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crange, matcore, metrics, ucrange
from .decompose import (
    decompose as run_decompose,
    nonnegativity_test,
    sos_certificate,
    verify_certificate,
)
from .crange import classical_support, radius, range_boundary, support_direction
from .elliptope import validate_correlation
from .errors import CnrError, NotDecomposableError

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _spread_lower_bound(a: np.ndarray) -> tuple[float, float]:
    """Largest off-diagonal pair weight and its aligned support direction."""
    n = a.shape[0]
    best, phi = 0.0, 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = abs(a[i, j]) + abs(a[j, i])
            if w > best:
                best = w
                phi = (np.angle(a[i, j]) + np.angle(a[j, i])) / 2.0
    return best, phi


BASIC_DIRECTIONS = 12  # support grid of every boundary in basic_suite
# basic_suite's identities, each with the bound on its worst violation
BASIC_BOUNDS = {
    "containment_in_classical_range": 1e-9,
    "mean_diagonal_membership": 1e-9,
    "diagonal_translation": 1e-8,
    "singleton_diagonal": 1e-9,
    "offdiagonal_spread": 1e-9,
    "real_range_criterion": 1e-8,
    "continuity_lipschitz": 1e-9,
    "transpose_invariance": 1e-8,
    "conjugation_invariance": 1e-8,
    "radius_vs_shifted_classical": 1e-8,
}


def basic_suite(n: int, seed: int, count: int = 12) -> list[CheckResult]:
    """Support-function identities on seeded random matrices."""
    rng = np.random.default_rng([seed, n])
    m = BASIC_DIRECTIONS
    results: list[CheckResult] = []
    worst = dict.fromkeys(BASIC_BOUNDS, 0.0)
    generic_real = 0  # generic matrices whose range came out real
    thetas = 2.0 * math.pi * np.arange(m) / m
    for _ in range(count):
        a = matcore.ginibre_random(n, rng)
        rb = range_boundary(a, m)
        hs = rb.supports()

        cls = np.array([classical_support(a, t) for t in thetas])
        worst["containment_in_classical_range"] = max(
            worst["containment_in_classical_range"], float(np.max(hs - cls))
        )

        tau = matcore.normalized_trace(a)
        proj = np.cos(thetas) * tau.real + np.sin(thetas) * tau.imag
        worst["mean_diagonal_membership"] = max(
            worst["mean_diagonal_membership"], float(np.max(proj - hs))
        )

        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ad = a + np.diag(d)
        taud = complex(np.mean(d))
        hs_d = range_boundary(ad, m).supports()
        shift = np.cos(thetas) * taud.real + np.sin(thetas) * taud.imag
        worst["diagonal_translation"] = max(
            worst["diagonal_translation"], float(np.max(np.abs(hs_d - hs - shift)))
        )

        diag_a = np.diag(np.diag(a))
        hs_diag = range_boundary(diag_a, m).supports()
        tau_d = matcore.normalized_trace(diag_a)
        proj_d = np.cos(thetas) * tau_d.real + np.sin(thetas) * tau_d.imag
        worst["singleton_diagonal"] = max(
            worst["singleton_diagonal"], float(np.max(np.abs(hs_diag - proj_d)))
        )

        w, phi = _spread_lower_bound(a)
        if w >= 0.1:
            res = support_direction(a, phi)
            spread = res.value - (math.cos(phi) * tau.real + math.sin(phi) * tau.imag)
            worst["offdiagonal_spread"] = max(
                worst["offdiagonal_spread"], w / n - spread
            )

        s, k = matcore.hermitian_parts(a)
        dr = rng.standard_normal(n)
        real_a = s + 1j * np.diag(dr - np.mean(dr))
        up = support_direction(real_a, math.pi / 2.0).value
        dn = support_direction(real_a, 3.0 * math.pi / 2.0).value
        worst["real_range_criterion"] = max(worst["real_range_criterion"], up + dn)
        if n > 1:  # a 1 x 1 range is a single point, real for every matrix
            up_g = support_direction(a, math.pi / 2.0).value
            dn_g = support_direction(a, 3.0 * math.pi / 2.0).value
            generic_real += up_g + dn_g <= 1e-8

        e = 0.1 * matcore.ginibre_random(n, rng)
        hs_e = range_boundary(a + e, m).supports()
        worst["continuity_lipschitz"] = max(
            worst["continuity_lipschitz"],
            float(np.max(np.abs(hs_e - hs))) - matcore.operator_norm(e),
        )

        hs_t = range_boundary(a.T, m).supports()
        worst["transpose_invariance"] = max(
            worst["transpose_invariance"], float(np.max(np.abs(hs_t - hs)))
        )

        phases = np.exp(2j * np.pi * rng.random(n))
        perm = rng.permutation(n)
        u = np.diag(phases)[:, perm]
        hs_u = range_boundary(u.conj().T @ a @ u, m).supports()
        worst["conjugation_invariance"] = max(
            worst["conjugation_invariance"], float(np.max(np.abs(hs_u - hs)))
        )

        d0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d0 -= np.mean(d0)
        cls_shift = np.array([classical_support(a + np.diag(d0), t) for t in thetas])
        worst["radius_vs_shifted_classical"] = max(
            worst["radius_vs_shifted_classical"], float(np.max(hs - cls_shift))
        )

    if generic_real:
        detail = f"{generic_real} of {count} generic matrices reported a real range"
        results.append(CheckResult("real_range_criterion_generic", False, detail))
    for name, bound in BASIC_BOUNDS.items():
        val = worst[name]
        results.append(CheckResult(name, val <= bound, f"worst {val:.3e} (bound {bound:.0e})"))
    return results


def duality_suite(n: int, seed: int, count: int = 25) -> list[CheckResult]:
    """Gap closure rate and exact dual feasibility on random directions."""
    rng = np.random.default_rng([seed, n, 2])
    gaps = []
    lam_min = 0.0
    neg_gap = 0.0
    align = 0.0
    for case in range(count):
        z = matcore.ginibre_random(n, rng)
        a = (z + z.conj().T) / 2.0 if case % 2 == 0 else z
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        res = support_direction(a, theta)
        gaps.append(res.gap)
        h = crange.rotated_hermitian_part(a, theta)
        lam_min = min(lam_min, matcore.lambda_min(np.diag(res.dual_y) - h))
        neg_gap = min(neg_gap, res.gap)
        align = max(
            align,
            abs(
                math.cos(theta) * res.witness_point.real
                + math.sin(theta) * res.witness_point.imag
                - res.value
            ),
        )
        b = res.correlation()
        validate_correlation(b.matrix)
    rate = float(np.mean(np.asarray(gaps) <= 1e-8))
    return [
        CheckResult("gap_closure_rate", rate >= 0.95, f"{rate * 100:.1f}% of {count} within 1e-8"),
        CheckResult("dual_feasibility", lam_min >= -1e-10, f"min eigenvalue {lam_min:.3e}"),
        CheckResult("gap_nonnegative", neg_gap >= -1e-10, f"min gap {neg_gap:.3e}"),
        CheckResult("witness_alignment", align <= 1e-10, f"worst {align:.3e}"),
    ]


def decompose_suite(n: int, seed: int, count: int = 40) -> list[CheckResult]:
    """Nonnegativity verdict == decomposability, margins matched, sound
    certificates."""
    rng = np.random.default_rng([seed, n, 3])
    agree = True
    margin_dev = 0.0
    cert_res = 0.0
    recon = 0.0
    psd_floor = 0.0
    for _ in range(count):
        z = matcore.ginibre_random(n, rng)
        a = (z + z.conj().T) / 2.0 + rng.uniform(-1.0, 3.0) * np.eye(n)
        nn = nonnegativity_test(a)
        try:
            dec = run_decompose(a)
            ok = True
            recon = max(recon, matcore.frobenius(dec.P + dec.D - a))
            psd_floor = min(psd_floor, matcore.lambda_min(dec.P))
            margin_dev = max(margin_dev, abs(dec.margin - nn.margin))
            cert = sos_certificate(dec)
            rep = verify_certificate(a, cert)
            if not rep.valid:
                agree = False
            cert_res = max(cert_res, rep.entry_max)
        except NotDecomposableError:
            ok = False
        if ok != nn.nonnegative:
            agree = False
    return [
        CheckResult("verdict_equivalence", agree, f"{count} instances"),
        CheckResult("margin_agreement", margin_dev <= 1e-8, f"worst {margin_dev:.3e}"),
        CheckResult("reconstruction", recon <= 1e-9, f"worst {recon:.3e}"),
        CheckResult("split_psd", psd_floor >= -1e-9, f"floor {psd_floor:.3e}"),
        CheckResult("certificate_residual", cert_res <= 1e-8, f"worst {cert_res:.3e}"),
    ]


def metrics_suite(n: int, seed: int, count: int = 8) -> list[CheckResult]:
    """Seminorm axioms and the radius bracket."""
    rng = np.random.default_rng([seed, n, 4])
    homog = 0.0
    triangle = 0.0
    bracket = 0.0
    shift_dev = 0.0
    for _ in range(count):
        t1 = matcore.ginibre_random(n, rng)
        t2 = matcore.ginibre_random(n, rng)
        c = float(rng.uniform(0.2, 2.0))
        v1 = metrics.correlation_seminorm(t1)
        homog = max(homog, abs(metrics.correlation_seminorm(c * t1) - c * v1))
        triangle = max(
            triangle,
            metrics.correlation_seminorm(t1 + t2) - v1 - metrics.correlation_seminorm(t2),
        )
        w = radius(t1, 48)
        bracket = max(bracket, w - v1, (1.0 / (4 * n + 2)) * v1 - w)
        d0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d0 -= np.mean(d0)
        w_shift = radius(t1 + np.diag(d0), 48)
        shift_dev = max(shift_dev, abs(w_shift - w))
    zero_on = metrics.correlation_seminorm(np.diag(np.arange(1, n + 1) - (n + 1) / 2).astype(complex))
    return [
        CheckResult("seminorm_homogeneity", homog <= 2e-6, f"worst {homog:.3e}"),
        CheckResult("seminorm_triangle", triangle <= 2e-6, f"worst {triangle:.3e}"),
        CheckResult("seminorm_zero_on_traceless_diagonals", zero_on <= 1e-10, f"{zero_on:.3e}"),
        CheckResult("radius_seminorm_bracket", bracket <= 1e-6, f"worst violation {bracket:.3e}"),
        CheckResult("radius_shift_invariance", shift_dev <= 1e-7, f"worst {shift_dev:.3e}"),
    ]


def ucrange_suite(n: int, seed: int, count: int = 60) -> list[CheckResult]:
    """Induced correlation matrices stay in the elliptope; sampled induced
    ranges respect the certified half-planes."""
    rng = np.random.default_rng([seed, n, 5])
    in_elliptope = True
    for _ in range(count):
        k = int(rng.integers(1, 9))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            tup = ucrange.haar_tuple(n, k, rng)
        elif kind == 1:
            tup = ucrange.phase_tuple(n, k, rng)
        else:
            tup = ucrange.permutation_tuple(n, k, rng)
        try:
            ucrange.induced_correlation(tup)
        except CnrError:
            in_elliptope = False
    t = matcore.ginibre_random(n, rng)
    cmp_res = ucrange.compare_ranges(t, ucrange.wuc_inner(t, samples=300, rng=rng), m=32)
    return [
        CheckResult("induced_in_elliptope", in_elliptope, f"{count} tuples"),
        CheckResult(
            "induced_range_inclusion",
            cmp_res.inclusion_margin >= -1e-8,
            f"margin {cmp_res.inclusion_margin:.3e}",
        ),
    ]


SUITES = {
    "basic": basic_suite,
    "duality": duality_suite,
    "decompose": decompose_suite,
    "metrics": metrics_suite,
    "ucrange": ucrange_suite,
}


def run_suite(suite: str, n: int, seed: int, count: int | None = None) -> list[CheckResult]:
    """Run one suite, or every suite for "all" (names prefixed by suite);
    count=None gives each suite its own default instance count."""
    if count is not None and count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if suite == "all":
        return [
            CheckResult(f"{name}.{r.name}", r.passed, r.detail)
            for name in SUITES
            for r in run_suite(name, n, seed, count)
        ]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {(*SUITES, 'all')}")
    return SUITES[suite](n, seed) if count is None else SUITES[suite](n, seed, count)

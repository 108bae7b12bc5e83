import sys

import numpy as np
import pytest

from cnr import crange, matcore
from cnr.decompose import (
    Decomposition,
    SosCertificate,
    certificate_from_obj,
    certificate_to_obj,
    decompose,
    nonnegativity_test,
    sos_certificate,
    verify_certificate,
)
from cnr.errors import NotDecomposableError, RangeNotRealError
from oracles import min_real_2x2_grid, random_hermitian


def test_nonnegativity_frozen_cases():
    # tau = 1 + Re z over the disk: minimum 0
    nn = nonnegativity_test(np.ones((2, 2), dtype=complex))
    assert nn.nonnegative and nn.margin == pytest.approx(0.0, abs=1e-9)
    # tau = 1 + 2 Re z: minimum -1
    nn = nonnegativity_test(np.array([[1, 2], [2, 1]], dtype=complex))
    assert not nn.nonnegative and nn.margin == pytest.approx(-1.0, abs=1e-9)


def test_nonnegativity_psd_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        z = matcore.ginibre_random(n, rng)
        a = z @ z.conj().T
        nn = nonnegativity_test(a)
        assert nn.nonnegative


def test_nonnegativity_matches_grid_oracle_2x2():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_hermitian(2, rng)
        nn = nonnegativity_test(a)
        assert nn.margin == pytest.approx(min_real_2x2_grid(a), abs=1e-7)


def test_decompose_half_offdiagonal():
    a = np.array([[1, 0.5], [0.5, 1]], dtype=complex)
    dec = decompose(a)
    assert np.allclose(dec.P, a, atol=1e-8)
    assert np.allclose(dec.D, 0.0, atol=1e-8)


def test_decompose_rank_boundary_case():
    # dual solution is unique here: y = (1, -1)
    a = np.array([[2, 1], [1, 0]], dtype=complex)
    dec = decompose(a)
    assert np.allclose(dec.P, np.ones((2, 2)), atol=1e-8)
    assert np.allclose(np.diag(dec.D), [1.0, -1.0], atol=1e-8)
    assert matcore.lambda_min(dec.P) >= -1e-9


def test_decompose_psd_accepted():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        z = matcore.ginibre_random(n, rng)
        a = z @ z.conj().T
        dec = decompose(a)
        assert matcore.frobenius(dec.P + dec.D - a) <= 1e-9
        assert matcore.lambda_min(dec.P) >= -1e-9
        assert abs(np.trace(dec.D)) <= 1e-10
        assert np.allclose(dec.D, np.diag(np.diag(dec.D)))


def test_decompose_rejects_indefinite():
    with pytest.raises(NotDecomposableError) as exc:
        decompose(np.array([[1, 2], [2, 1]], dtype=complex))
    assert exc.value.attained == pytest.approx(-1.0, abs=1e-8)
    assert exc.value.witness is not None


def test_decompose_carries_imaginary_diagonal():
    a = np.array([[1 + 2j, 0.25], [0.25, 1 - 2j]], dtype=complex)
    dec = decompose(a)
    assert matcore.frobenius(dec.P + dec.D - a) <= 1e-9
    assert np.allclose(np.diag(dec.D).imag, [2.0, -2.0])
    assert np.allclose(dec.P.imag, 0.0, atol=1e-12)


def test_decompose_screens_nonreal_range():
    with pytest.raises(RangeNotRealError):
        decompose(np.array([[0, 1j], [0, 0]], dtype=complex))


def test_equivalence_and_margin_agreement():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = random_hermitian(n, rng) + rng.uniform(-1.0, 3.0) * np.eye(n)
        nn = nonnegativity_test(a)
        try:
            dec = decompose(a)
            succeeded = True
            assert abs(dec.margin - nn.margin) <= 1e-8
        except NotDecomposableError:
            succeeded = False
        assert succeeded == nn.nonnegative


def test_decompose_polishes_open_support_gap(monkeypatch):
    # the benchmark's split recipe P + D at n = 4: its support gap g closes
    # without polish, and at tol = 2g it exceeds tol / 4, so decompose
    # polishes; the gap lies on the primal side, which the path cannot close
    rng = np.random.default_rng(10)
    z = matcore.ginibre_random(4, rng)
    d_re, d_im = rng.standard_normal(4), rng.standard_normal(4)
    a = z @ z.conj().T / 4 + np.diag(d_re - d_re.mean()) + 1j * np.diag(d_im - d_im.mean())
    g = nonnegativity_test(a).support.gap
    cfg = crange.SolveConfig(tol=2.0 * g)
    nn = nonnegativity_test(a, cfg)
    assert nn.support.certified and nn.support.gap == g
    paths = []
    centred_path = crange._centred_path

    def path(*args):
        paths.append(args)
        return centred_path(*args)

    monkeypatch.setattr(crange, "_centred_path", path)
    dec = decompose(a, cfg)
    assert len(paths) == 1  # the polish ran the barrier path, the support solve did not
    assert nn.margin <= dec.margin <= nn.margin + cfg.tol
    assert np.linalg.eigvalsh(dec.P)[0] >= -1e-12
    assert verify_certificate(a, sos_certificate(dec)).valid


@pytest.mark.parametrize("n", [4, 8, 16])
def test_decompose_p_is_exactly_hermitian(n):
    # the benchmark's split recipe P + D: S - diag(y) + mean(y) I is
    # Hermitian entry for entry, with no symmetrisation
    rng = np.random.default_rng(n)
    z = matcore.ginibre_random(n, rng)
    d_re, d_im = rng.standard_normal(n), rng.standard_normal(n)
    a = z @ z.conj().T / n + np.diag(d_re - d_re.mean()) + 1j * np.diag(d_im - d_im.mean())
    dec = decompose(a)
    assert np.array_equal(dec.P, dec.P.conj().T)


def test_stability_under_small_perturbation():
    rng = np.random.default_rng(4)
    found = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        a = random_hermitian(n, rng) + rng.uniform(0.0, 3.0) * np.eye(n)
        nn = nonnegativity_test(a)
        if not nn.nonnegative or nn.margin < 0.05:
            continue
        found += 1
        e = random_hermitian(n, rng)
        e *= (nn.margin / 2.0) / max(matcore.operator_norm(e), 1e-12)
        decompose(a + e)  # must not raise
        if found >= 5:
            break
    assert found >= 3


def test_shift_covariance():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = random_hermitian(n, rng) + 2.5 * np.eye(n)
        if not nonnegativity_test(a).nonnegative:
            continue
        d0 = rng.standard_normal(n)
        d0 -= np.mean(d0)
        dec = decompose(a)
        dec2 = decompose(a + np.diag(d0))
        assert np.allclose(dec2.P, dec.P, atol=1e-7)
        assert np.allclose(np.diag(dec2.D) - np.diag(dec.D), d0, atol=1e-7)


def test_sos_certificate_rank_one():
    dec = Decomposition(
        P=np.ones((2, 2), dtype=complex),
        D=np.zeros((2, 2), dtype=complex),
        margin=0.0,
        dual_y=np.zeros(2),
    )
    cert = sos_certificate(dec)
    assert len(cert.coeffs) == 1
    q = cert.coeffs[0]
    assert np.allclose(np.outer(q, q.conj()), np.ones((2, 2)), atol=1e-12)


def test_sos_certificate_identity():
    dec = Decomposition(
        P=np.eye(2, dtype=complex),
        D=np.zeros((2, 2), dtype=complex),
        margin=1.0,
        dual_y=np.ones(2),
    )
    cert = sos_certificate(dec)
    assert len(cert.coeffs) == 2
    rebuilt = sum(np.outer(q, q.conj()) for q in cert.coeffs)
    assert np.allclose(rebuilt, np.eye(2), atol=1e-12)


def test_sos_certificate_random_psd_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        z = matcore.ginibre_random(n, rng)
        p = z @ z.conj().T
        dec = Decomposition(P=p, D=np.zeros((n, n), dtype=complex), margin=0.0, dual_y=np.zeros(n))
        cert = sos_certificate(dec)
        assert len(cert.coeffs) <= n
        rebuilt = sum(np.outer(q, q.conj()) for q in cert.coeffs)
        assert matcore.frobenius(p - rebuilt) <= 1e-8


def test_verify_certificate_pipeline_and_tamper():
    a = np.array([[1, 0.5], [0.5, 1]], dtype=complex)
    cert = sos_certificate(decompose(a))
    rep = verify_certificate(a, cert)
    assert rep.valid and rep.entry_max <= 1e-8
    cert.coeffs[0] = cert.coeffs[0].copy()
    cert.coeffs[0][0] += 0.1
    rep = verify_certificate(a, cert)
    assert not rep.valid


def test_verify_rejects_mismatched_certificate():
    a = np.array([[1, 2], [2, 1]], dtype=complex)  # not decomposable
    wrong = SosCertificate(
        coeffs=[np.array([1.0, 1.0], dtype=complex)],
        diagonal=np.zeros(2, dtype=complex),
        residual=0.0,
    )
    rep = verify_certificate(a, wrong)
    assert not rep.valid


def test_certificate_json_round_trip():
    a = np.array([[2, 1], [1, 0]], dtype=complex)
    cert = sos_certificate(decompose(a))
    obj = certificate_to_obj(cert)
    assert obj["n"] == 2 and len(obj["D"]) == 2
    back = certificate_from_obj(obj)
    assert verify_certificate(a, back).valid
    for q1, q2 in zip(cert.coeffs, back.coeffs):
        assert np.allclose(q1, q2)


def _rank_one():
    rng, rng_im = np.random.default_rng(0), np.random.default_rng(100)
    v = rng.standard_normal(3) + 1j * rng_im.standard_normal(3)
    return np.outer(v, v.conj())


# singular PSD inputs whose support solve certifies at tol while its dual
# margin, -2.7e-8 and -5.0e-9, is below -1e-9; the witness attains 0 to
# rounding, so only the dual keeps the verdict open
SINGULAR_PSD = [(np.ones((3, 3), dtype=complex), 1e-6), (_rank_one(), 1e-8)]


@pytest.mark.parametrize("a,tol", SINGULAR_PSD, ids=["ones", "rank-1"])
def test_singular_psd_is_decomposable(a, tol):
    cfg = crange.SolveConfig(tol=tol)
    res = crange.min_real_value(a, cfg)
    assert res.certified and -np.mean(res.dual_y) < -1e-9 <= res.minimum
    nn = nonnegativity_test(a, cfg)
    assert nn.nonnegative and nn.margin >= -1e-9 and nn.flags == ()
    dec = decompose(a, cfg)
    assert dec.flags == () and dec.margin >= -1e-9
    assert matcore.frobenius(dec.P + dec.D - a) <= 1e-9
    assert matcore.lambda_min(dec.P) >= -1e-9


def test_straddling_margin_is_open_not_negative(monkeypatch):
    # a dual the path cannot tighten leaves the bracket [margin, attained]
    # across -1e-9 with a witness at 0: the verdict is open, not negative
    monkeypatch.setattr(sys.modules["cnr.decompose"], "polish_dual", lambda h, y0, target, stop_tol: y0)
    a, tol = SINGULAR_PSD[0]
    cfg = crange.SolveConfig(tol=tol)
    nn = nonnegativity_test(a, cfg)
    assert nn.nonnegative and nn.margin < -1e-9 <= 0.0 <= nn.attained
    assert nn.support.flags == () and nn.flags == ("gap_not_closed",)
    assert decompose(a, cfg).flags == ("gap_not_closed",)

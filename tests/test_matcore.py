import numpy as np
import pytest

from cnr import matcore
from cnr.errors import NotHermitianError


def _sizes(rng, count, lo, hi):
    """count sizes drawn from [lo, hi) one at a time (so the matrices drawn
    in between keep their place in the stream), then 16, 32 and 64."""
    for _ in range(count):
        yield int(rng.integers(lo, hi))
    yield from (16, 32, 64)


def test_eigs_pauli_x():
    dec = matcore.hermitian_eigs([[0, 1], [1, 0]])
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigs_identity():
    for n in (1, 5):
        dec = matcore.hermitian_eigs(np.eye(n))
        assert np.allclose(dec.eigenvalues, 1.0, atol=1e-14)
    dec = matcore.hermitian_eigs(np.zeros((4, 4)))
    assert np.array_equal(dec.eigenvalues, np.zeros(4))
    assert np.allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(4), atol=1e-14)


def test_eigs_hand_derived_2x2():
    # char poly (2-l)^2 - 1 = 0 -> l in {1, 3}
    dec = matcore.hermitian_eigs([[2, 1], [1, 2]])
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_eigs_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        matcore.hermitian_eigs([[0, 1], [0, 0]])


def test_hermitian_test_does_not_overflow():
    # squared entries of 1e160 overflow, and a Frobenius test of inf <= inf
    # would pass any such matrix
    with np.errstate(all="raise"):
        with pytest.raises(NotHermitianError):
            matcore.hermitian_eigs([[0, 1e160], [0, 0]])
        m = matcore.ginibre_random(4, np.random.default_rng(0))
        huge = (m + m.conj().T) * 2.0**520
        assert matcore.is_hermitian(huge)
        assert not matcore.is_hermitian([[0, 1.7e308 + 1.7e308j], [0, 0]])
        stack = np.stack([huge, huge, huge])
        stack[1, 0, 1] = 0.0
        assert matcore.is_hermitian(stack).tolist() == [True, False, True]
        with pytest.raises(NotHermitianError, match="^stack index 1: "):
            matcore.hermitian_eigs(stack)


def test_eigs_reconstruction_random():
    rng = np.random.default_rng(42)
    for n in _sizes(rng, 100, 1, 9):
        m = matcore.ginibre_random(n, rng)
        m = (m + m.conj().T) / 2.0
        dec = matcore.hermitian_eigs(m)
        v, lam = dec.eigenvectors, dec.eigenvalues
        assert np.all(np.diff(lam) >= 0.0)
        recon = v @ np.diag(lam) @ v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-9 * (1.0 + np.linalg.norm(m))
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
        # residual per eigenpair
        assert np.linalg.norm(m @ v - v * lam[None, :]) <= 1e-10 * (1.0 + np.linalg.norm(m))


def test_eigs_match_numpy():
    rng = np.random.default_rng(7)
    for n in _sizes(rng, 30, 2, 9):
        m = matcore.ginibre_random(n, rng)
        m = (m + m.conj().T) / 2.0
        lam = matcore.hermitian_eigs(m).eigenvalues
        assert np.max(np.abs(lam - np.linalg.eigvalsh(m))) <= 1e-10 * (1.0 + np.linalg.norm(m))


def test_operator_norm_examples():
    assert matcore.operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0, abs=1e-12)
    assert matcore.operator_norm(np.zeros((3, 3))) == 0.0
    # singular values of [[0,2],[1,0]] are {2, 1}
    assert matcore.operator_norm([[0, 2], [1, 0]]) == pytest.approx(2.0, abs=1e-10)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = matcore.ginibre_random(n, rng)
        u = matcore.haar_unitary(n, rng)
        v = matcore.haar_unitary(n, rng)
        assert matcore.operator_norm(u @ m @ v) == pytest.approx(
            matcore.operator_norm(m), abs=1e-9
        )


def test_operator_norm_matches_numpy_svd():
    rng = np.random.default_rng(11)
    for n in _sizes(rng, 40, 1, 9):
        m = matcore.ginibre_random(n, rng)
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert matcore.operator_norm(m) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_normalized_trace():
    assert matcore.normalized_trace([[1, 2], [3, 5]]) == pytest.approx(3.0)
    assert matcore.normalized_trace(np.eye(4)) == pytest.approx(1.0)
    assert matcore.normalized_trace([[0, 1], [0, 0]]) == 0.0


def test_normalized_trace_transpose():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = matcore.ginibre_random(int(rng.integers(1, 7)), rng)
        assert matcore.normalized_trace(m.T) == matcore.normalized_trace(m)


def test_hermitian_parts():
    s, k = matcore.hermitian_parts([[0, 1], [0, 0]])
    assert np.allclose(s, [[0, 0.5], [0.5, 0]])
    assert np.allclose(np.linalg.eigvalsh(k), [-0.5, 0.5])
    s, k = matcore.hermitian_parts(1j * np.eye(2))
    assert np.allclose(s, 0.0) and np.allclose(k, np.eye(2))
    h = np.array([[2, 1j], [-1j, 3]])
    s, k = matcore.hermitian_parts(h)
    assert np.allclose(k, 0.0) and np.allclose(s, h)


def test_hermitian_parts_reconstruct_and_pass_precondition():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = matcore.ginibre_random(int(rng.integers(1, 8)), rng)
        s, k = matcore.hermitian_parts(m)
        assert np.allclose(s + 1j * k, m, atol=1e-14)
        matcore.hermitian_eigs(s)
        matcore.hermitian_eigs(k)


def test_haar_unitary():
    u = matcore.haar_unitary(1, np.random.default_rng(0))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14
    for k in (2, 5, 9):
        u = matcore.haar_unitary(k, np.random.default_rng(k))
        assert np.max(np.abs(u.conj().T @ u - np.eye(k))) <= 1e-12
    a = matcore.haar_unitary(4, np.random.default_rng(123))
    b = matcore.haar_unitary(4, np.random.default_rng(123))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_haar_unitary_stack_is_successive_draws(k):
    # one stacked draw reads the random stream that n single draws read
    n = 4
    one_by_one = np.random.default_rng(k)
    expected = np.stack([matcore.haar_unitary(k, one_by_one) for _ in range(n)])
    stacked = np.random.default_rng(k)
    u = matcore.haar_unitary(k, stacked, (n,))
    assert u.shape == (n, k, k)
    assert np.array_equal(u, expected)
    assert stacked.standard_normal() == one_by_one.standard_normal()


def test_haar_unitary_int_k_is_phase_corrected_ginibre_qr():
    for k, shape in ((1, ()), (3, ()), (4, (2, 3))):
        z = matcore.ginibre_random(k, np.random.default_rng(40 + k), shape)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        expected = q * (d / np.abs(d))[..., None, :]
        assert np.array_equal(matcore.haar_unitary(k, np.random.default_rng(40 + k), shape), expected)


def test_hermitian_eigs_stack_matches_each_matrix():
    rng = np.random.default_rng(12)
    for n in (1, 3, 6):
        m = np.stack([matcore.ginibre_random(n, rng) for _ in range(5)])
        m = m + m.conj().swapaxes(-1, -2)
        dec = matcore.hermitian_eigs(m)
        assert dec.eigenvalues.shape == (5, n) and dec.eigenvectors.shape == (5, n, n)
        for i in range(5):
            one = matcore.hermitian_eigs(m[i])
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
    m[3, 0, 1] += 1e-3
    with pytest.raises(NotHermitianError, match="^stack index 3: "):
        matcore.hermitian_eigs(m)


def test_ginibre():
    a = matcore.ginibre_random(3, np.random.default_rng(1))
    b = matcore.ginibre_random(3, np.random.default_rng(1))
    assert np.array_equal(a, b)
    assert matcore.ginibre_random(1, np.random.default_rng(2)).shape == (1, 1)
    rng = np.random.default_rng(4)
    draws = np.array([matcore.ginibre_random(2, rng).mean() for _ in range(4000)])
    assert abs(draws.mean()) <= 5.0 / np.sqrt(len(draws))


def test_as_matrix_rejects_bad():
    with pytest.raises(ValueError):
        matcore.as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matcore.as_matrix(np.array([[np.nan, 0], [0, 0]]))

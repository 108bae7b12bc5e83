import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnr import elliptope, matcore
from cnr.errors import DiagonalNotOneError, NotHermitianError, NotPsdError, OutOfDiskError


def test_gram_orthonormal_gives_identity():
    g = elliptope.gram_factor(np.eye(3))
    assert np.allclose(elliptope.gram_to_correlation(g).matrix, np.eye(3))


def test_gram_equal_vectors_gives_ones():
    v = np.zeros((3, 3), dtype=complex)
    v[:, 0] = 1.0
    g = elliptope.gram_factor(v)
    assert np.allclose(elliptope.gram_to_correlation(g).matrix, np.ones((3, 3)))


@given(st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=25, deadline=None)
def test_gram_convention_b12_is_conjugate(phi):
    # e2 = z e1 with |z| = 1 must give B12 = conj(z)
    z = np.exp(1j * phi)
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1] = z * v[0]
    b = elliptope.gram_to_correlation(elliptope.gram_factor(v)).matrix
    assert b[0, 1] == pytest.approx(np.conj(z), abs=1e-14)


def test_validate_identity_and_indefinite():
    elliptope.validate_correlation(np.eye(4))
    with pytest.raises(NotPsdError):
        # eigenvalues {3, -1}
        elliptope.validate_correlation([[1, 2], [2, 1]])
    with pytest.raises(DiagonalNotOneError):
        elliptope.validate_correlation([[2, 0], [0, 1]])


@pytest.mark.parametrize(
    "error, message, bad",
    [
        (NotHermitianError, "must be Hermitian", [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]),
        (DiagonalNotOneError, "deviates from one by 2.000e-01", [[1, 0, 0], [0, 1.2, 0], [0, 0, 1]]),
        (NotPsdError, "smallest eigenvalue -1.000e\\+00", [[1, 1, 1], [1, 1, -1], [1, -1, 1]]),
    ],
    ids=["non-hermitian", "diagonal", "not-psd"],
)
def test_validate_stack_names_first_bad_matrix(error, message, bad):
    rng = np.random.default_rng(5)
    stack = np.stack([elliptope.random_correlation(3, rng).matrix for _ in range(4)])
    stack[2] = stack[3] = bad
    with pytest.raises(error, match=f"^stack index 2: .*{message}"):  # the first bad one
        elliptope.validate_correlation(stack)
    with pytest.raises(error, match=f"^(?!stack ).*{message}"):  # alone, no index
        elliptope.validate_correlation(bad)


def test_validate_disk_criterion():
    # 2x2 PSD with unit diagonal iff det = 1 - |z|^2 >= 0
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
        b = np.array([[1.0, z], [np.conj(z), 1.0]])
        if abs(z) <= 1.0:
            elliptope.validate_correlation(b)
        else:
            with pytest.raises(NotPsdError):
                elliptope.validate_correlation(b)


def test_correlation_2x2():
    assert np.allclose(elliptope.correlation_2x2(0).matrix, np.eye(2))
    assert np.allclose(elliptope.correlation_2x2(1).matrix, np.ones((2, 2)))
    b = elliptope.correlation_2x2(0.5j)
    lam = matcore.hermitian_eigs(b.matrix).eigenvalues
    assert lam[0] == pytest.approx(0.5, abs=1e-12)  # eigenvalues 1 +/- |z|
    with pytest.raises(OutOfDiskError):
        elliptope.correlation_2x2(1.0 + 1e-6)


def test_random_correlation_valid_and_reproducible():
    for n in (1, 2, 5):
        b = elliptope.random_correlation(n, np.random.default_rng(n))
        elliptope.validate_correlation(b.matrix)
    a = elliptope.random_correlation(4, np.random.default_rng(10)).matrix
    b = elliptope.random_correlation(4, np.random.default_rng(10)).matrix
    assert np.array_equal(a, b)
    assert np.allclose(elliptope.random_correlation(1, np.random.default_rng(0)).matrix, [[1.0]])


def test_transpose_closure():
    rng = np.random.default_rng(8)
    for _ in range(15):
        b = elliptope.random_correlation(int(rng.integers(1, 6)), rng)
        elliptope.validate_correlation(b.matrix.T)


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_convexity(t, seed):
    rng = np.random.default_rng(seed)
    b1 = elliptope.random_correlation(4, rng).matrix
    b2 = elliptope.random_correlation(4, rng).matrix
    elliptope.validate_correlation(t * b1 + (1.0 - t) * b2)

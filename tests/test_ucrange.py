import collections

import numpy as np
import pytest

from cnr import matcore, ucrange
from cnr.elliptope import validate_correlation
from cnr.errors import DiagonalNotOneError, NotPsdError, NotUnitaryError


def test_induced_scalar_phases_rank_one():
    rng = np.random.default_rng(0)
    phases = np.exp(2j * np.pi * rng.random(3))
    tup = phases[:, None, None]
    b = ucrange.induced_correlation(tup).matrix
    expected = np.outer(phases, phases.conj())
    assert np.allclose(b, expected, atol=1e-12)


def test_induced_equal_unitaries_all_ones():
    u = matcore.haar_unitary(4, np.random.default_rng(1))
    b = ucrange.induced_correlation(np.stack([u, u, u])).matrix
    assert np.allclose(b, np.ones((3, 3)), atol=1e-12)


def test_induced_orthogonal_pair():
    tup = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    b = ucrange.induced_correlation(tup).matrix
    assert np.allclose(b, np.eye(2), atol=1e-14)


def test_induced_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        ucrange.induced_correlation(np.stack([np.eye(2) * 2.0, np.eye(2)]))
    with pytest.raises(NotUnitaryError):  # one unitary, not a tuple of them
        ucrange.induced_correlation(np.eye(2, dtype=complex))
    with pytest.raises(NotUnitaryError):  # entries must be square
        ucrange.induced_correlation(np.stack([np.eye(2, 3)] * 2))


def test_induced_stack_matches_each_tuple():
    rng = np.random.default_rng(14)
    for n, k in [(1, 1), (2, 3), (5, 4)]:
        stack = np.stack([ucrange.haar_tuple(n, k, rng) for _ in range(6)])
        b = ucrange.induced_correlation(stack)
        assert b.n == n and b.matrix.shape == (6, n, n)
        for i in range(6):
            assert np.array_equal(b.matrix[i], ucrange.induced_correlation(stack[i]).matrix)


def test_induced_stack_names_first_non_unitary_tuple():
    rng = np.random.default_rng(13)
    stack = np.stack([ucrange.haar_tuple(3, 2, rng) for _ in range(4)])
    stack[1, 2] *= 2.0
    stack[3, 0] *= 2.0
    with pytest.raises(NotUnitaryError, match="^stack index 1: tuple entries must be unitary"):
        ucrange.induced_correlation(stack)


def test_induced_list_of_stacks_matches_each_stack():
    rng = np.random.default_rng(15)
    for n in (1, 3):
        stacks = [matcore.haar_unitary(k, rng, (count, n)) for k, count in [(4, 3), (1, 5), (2, 1), (4, 2)]]
        b = ucrange.induced_correlation(stacks)
        assert b.matrix.shape == (11, n, n)
        each = np.concatenate([ucrange.induced_correlation(s).matrix for s in stacks])
        assert np.array_equal(b.matrix, each)
        assert np.array_equal(ucrange.induced_correlation(stacks[:1]).matrix, each[:3])


def test_induced_list_names_tuple_by_concatenated_index():
    rng = np.random.default_rng(16)
    stacks = [matcore.haar_unitary(k, rng, (count, 3)) for k, count in [(2, 4), (1, 3), (3, 2)]]
    stacks[1][2, 0] *= 2.0
    stacks[2][0, 1] *= 2.0
    with pytest.raises(NotUnitaryError, match="^stack index 6: tuple entries must be unitary"):
        ucrange.induced_correlation(stacks)


@pytest.mark.parametrize(
    "error, message",
    [
        (DiagonalNotOneError, "^stack index 5: diagonal deviates"),
        (NotPsdError, "^stack index 5: smallest eigenvalue"),
    ],
)
def test_induced_list_names_elliptope_failure_by_concatenated_index(error, message, monkeypatch):
    # unitary tuples always induce correlation matrices, so the Gram
    # product of the third stack's second tuple is spoiled on its way to
    # validate_correlation
    rng = np.random.default_rng(17)
    stacks = [matcore.haar_unitary(k, rng, (count, 2)) for k, count in [(2, 2), (1, 2), (3, 3)]]
    seen = []
    original = ucrange.validate_correlation

    def spoil(b):
        b = np.array(b)
        b[5] = np.diag([1.5, 1.0]) if error is DiagonalNotOneError else [[1.0, 2.0], [2.0, 1.0]]
        seen.append(b.shape)
        return original(b)

    monkeypatch.setattr(ucrange, "validate_correlation", spoil)
    with pytest.raises(error, match=message):
        ucrange.induced_correlation(stacks)
    assert seen == [(7, 2, 2)]


def test_induced_list_rejects_mixed_n_and_bad_stacks():
    rng = np.random.default_rng(18)
    with pytest.raises(NotUnitaryError, match="share n"):
        ucrange.induced_correlation([matcore.haar_unitary(2, rng, (3, 2)), matcore.haar_unitary(2, rng, (3, 4))])
    with pytest.raises(NotUnitaryError, match="share n"):
        ucrange.induced_correlation([matcore.haar_unitary(1, rng, (2, 3)), matcore.haar_unitary(4, rng, (1, 2))])
    with pytest.raises(NotUnitaryError):  # list entries are stacks, not single tuples
        ucrange.induced_correlation([ucrange.haar_tuple(2, 2, rng)])
    with pytest.raises(NotUnitaryError):
        ucrange.induced_correlation([])


def _trace_loop(u):
    """(1/k) Tr(U_j* U_i), one entry at a time."""
    n, k = len(u), u[0].shape[0]
    b = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            b[i, j] = np.trace(u[j].conj().T @ u[i]) / k
    return b


@pytest.mark.parametrize(
    "make",
    [ucrange.haar_tuple, ucrange.phase_tuple, ucrange.scalar_tuple, ucrange.permutation_tuple],
)
def test_induced_matches_trace_loop(make):
    rng = np.random.default_rng(10)
    for n, k in [(1, 1), (3, 1), (1, 4), (2, 2), (4, 3), (3, 6)]:
        u = make(n, k, rng)
        assert u.shape == (n, k, k)
        assert np.max(np.abs(ucrange.induced_correlation(u).matrix - _trace_loop(u))) <= 1e-12


def test_induced_disk_pair_matches_trace_loop():
    for u in ucrange.disk_tuples_2x2([0.0, 0.3, 1.0], [0.0, 2.0]):
        assert u.shape == (2, 2, 2)
        assert np.max(np.abs(ucrange.induced_correlation(u).matrix - _trace_loop(u))) <= 1e-12


def test_induced_matrices_in_elliptope():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 9))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            tup = ucrange.haar_tuple(n, k, rng)
        elif kind == 1:
            tup = ucrange.phase_tuple(n, k, rng)
        elif kind == 2:
            tup = ucrange.scalar_tuple(n, k, rng)
        else:
            tup = ucrange.permutation_tuple(n, k, rng)
        validate_correlation(ucrange.induced_correlation(tup).matrix)


def test_disk_tuples_hit_requested_values():
    radii = [0.25, 0.75, 1.0]
    phases = [0.0, 1.1, 3.9]
    tuples = ucrange.disk_tuples_2x2(radii, phases)
    assert tuples.shape == (9, 2, 2, 2)
    idx = 0
    for r in radii:
        for psi in phases:
            b = ucrange.induced_correlation(tuples[idx]).matrix
            assert b[0, 1] == pytest.approx(r * np.exp(1j * psi), abs=1e-12)
            idx += 1


def _wuc_tuples(n, k_list, samples, rng):
    """The tuples wuc_inner draws, in its order, one generator call each."""
    tuples = []
    if n == 2:
        g = int(np.ceil(np.sqrt(max(samples // 4, 8) / 4)))
        radii = np.linspace(0.0, 1.0, g + 1)[1:]
        tuples.extend(ucrange.disk_tuples_2x2(radii, np.linspace(0.0, 2.0 * np.pi, 4 * g, endpoint=False)))
    for j in range(max(samples // 5, 3)):
        k = k_list[j % len(k_list)]
        if j % 3 == 0:
            tuples.append(ucrange.phase_tuple(n, k, rng))
        elif j % 3 == 1:
            tuples.append(ucrange.scalar_tuple(n, k, rng))
        else:
            tuples.append(ucrange.permutation_tuple(n, max(k, 2), rng))
    for j in range(max(samples - len(tuples), 0)):
        tuples.append(ucrange.haar_tuple(n, k_list[j % len(k_list)], rng))
    return tuples


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_wuc_inner_matches_per_tuple_reference(n, monkeypatch):
    # batched validation and chunked Haar draws return each tuple's own
    # point, in draw order; n = 8 spans many Haar chunks
    t = matcore.ginibre_random(n, np.random.default_rng(20 + n))
    samples = 2000 if n == 8 else 300
    for k_list in (list(ucrange.DEFAULT_K_LIST), [16, 1], [2, 2, 3]):
        stacks, original = [], ucrange.induced_correlation

        def induced(u):
            stacks.append([s.shape for s in u])
            return original(u)

        with monkeypatch.context() as patch:
            patch.setattr(ucrange, "induced_correlation", induced)
            approx = ucrange.wuc_inner(t, k_list, samples, np.random.default_rng(21))
        tuples = _wuc_tuples(n, k_list, samples, np.random.default_rng(21))
        meta = approx.sample_meta
        n_grid, n_haar = meta["grid"], meta["haar"]
        # the disk grid is one stack
        first = 1 if n_grid else 0
        assert stacks[:first] == [[(n_grid, 2, 2, 2)]][:first]
        # structured tuples: runs of consecutive draws, each closed before
        # the next tuple would take it past the entry bound, one stack per k
        runs, entries = [[]], 0
        for u in tuples[n_grid : n_grid + meta["structured"]]:
            if runs[-1] and entries + u.size > ucrange.BATCH_ENTRIES:
                runs, entries = runs + [[]], 0
            runs[-1].append(u.shape[-1])
            entries += u.size
        structured = stacks[first : first + len(runs)]
        assert [sorted((k, c) for c, _, k, _ in call) for call in structured] == [
            sorted(collections.Counter(run).items()) for run in runs
        ]
        # Haar tuples: one call per chunk of whole cycles, one stack per
        # k_list entry, then one call for the final partial cycle
        haar = stacks[first + len(runs) :]
        per_chunk = max(1, ucrange.BATCH_ENTRIES // (n * sum(k * k for k in k_list)))
        full, rest = divmod(n_haar, len(k_list))
        assert len(haar) == -(-full // per_chunk) + (rest > 0)
        assert all([k for _, _, k, _ in call] == k_list[: len(call)] for call in haar)
        assert all(c <= per_chunk for call in haar for c, _, _, _ in call)
        assert sum(c for call in haar for c, _, _, _ in call) == n_haar
        # no call passes the entry bound
        assert all(sum(c * m * k * k for c, m, k, _ in call) <= ucrange.BATCH_ENTRIES for call in stacks)
        one_by_one = [np.sum(t * ucrange.induced_correlation(u).matrix.T) / n for u in tuples]
        assert np.array_equal(approx.points, one_by_one)
        loop = np.array([np.sum(t * _trace_loop(u).T) / n for u in tuples])
        assert np.max(np.abs(approx.points - loop)) <= 1e-12


class _RecordingRng:
    """A Generator that records the size of every standard_normal draw."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.sizes.append(int(np.prod(size)))
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("n, k_list, samples", [(8, ucrange.DEFAULT_K_LIST, 2000), (3, (2, 2, 3), 500), (5, (64, 1), 12)])
def test_wuc_inner_draw_size_bounded(n, k_list, samples):
    # a Haar chunk draws at most BATCH_ENTRIES unitary entries, or one cycle
    # of k_list when that alone is larger (n = 5 with k = 64)
    t = matcore.ginibre_random(n, np.random.default_rng(30 + n))
    rng = _RecordingRng(31)
    approx = ucrange.wuc_inner(t, k_list, samples, rng)
    assert max(rng.sizes) <= 2 * max(ucrange.BATCH_ENTRIES, n * sum(k * k for k in k_list))
    assert len(rng.sizes) > 1
    plain = ucrange.wuc_inner(t, k_list, samples, np.random.default_rng(31))
    assert np.array_equal(approx.points, plain.points)


@pytest.mark.parametrize("n, k_list, samples", [(16, (1, 2, 3), 5000), (5, (64, 1), 12)])
def test_wuc_inner_validation_bounded(n, k_list, samples, monkeypatch):
    # every induced_correlation call holds at most BATCH_ENTRIES unitary
    # entries, unless it is a single structured tuple or one Haar cycle that
    # alone is larger (n = 5 with k = 64)
    calls, original = [], ucrange.induced_correlation

    def induced(u):
        calls.append([s.shape for s in u])
        return original(u)

    monkeypatch.setattr(ucrange, "induced_correlation", induced)
    t = matcore.ginibre_random(n, np.random.default_rng(40 + n))
    approx = ucrange.wuc_inner(t, k_list, samples, np.random.default_rng(41))
    assert sum(c for call in calls for c, _, _, _ in call) == len(approx.points)
    for call in calls:
        ones = all(c == 1 for c, _, _, _ in call)
        single = ones and (len(call) == 1 or [k for _, _, k, _ in call] == list(k_list))
        assert sum(c * m * k * k for c, m, k, _ in call) <= ucrange.BATCH_ENTRIES or single, call


def test_wuc_inner_diagonal_matrix_collapses():
    t = np.diag([1.0 + 1.0j, -2.0]).astype(complex)
    approx = ucrange.wuc_inner(t, samples=60, rng=np.random.default_rng(3))
    tau = matcore.normalized_trace(t)
    assert np.max(np.abs(approx.points - tau)) <= 1e-10


def test_wuc_inner_disk_coverage():
    t = np.array([[0, 1], [0, 0]], dtype=complex)
    approx = ucrange.wuc_inner(t, k_list=[16], samples=800, rng=np.random.default_rng(4))
    radii = np.abs(approx.points)
    assert radii.max() <= 0.5 + 1e-10
    cmp_res = ucrange.compare_ranges(t, approx, m=64)
    assert cmp_res.deficit <= 0.02
    assert cmp_res.inclusion_margin >= -1e-8


def test_wuc_deficit_shrinks_with_samples():
    t = matcore.ginibre_random(2, np.random.default_rng(5))
    small = ucrange.compare_ranges(
        t, ucrange.wuc_inner(t, samples=60, rng=np.random.default_rng(6)), m=64
    )
    big = ucrange.compare_ranges(
        t, ucrange.wuc_inner(t, samples=2000, rng=np.random.default_rng(6)), m=64
    )
    assert big.deficit <= small.deficit + 1e-12
    assert big.deficit <= 0.02


def test_wuc_inclusion_generic():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        t = matcore.ginibre_random(n, rng)
        cmp_res = ucrange.compare_ranges(t, ucrange.wuc_inner(t, samples=250, rng=rng), m=48)
        assert cmp_res.inclusion_margin >= -1e-8


def test_wuc_meta_reports_generators():
    t = matcore.ginibre_random(3, np.random.default_rng(8))
    approx = ucrange.wuc_inner(t, k_list=[2, 4], samples=100, rng=np.random.default_rng(9))
    meta = approx.sample_meta
    assert meta["k_values"] == [2, 4]
    assert meta["haar"] + meta["structured"] + meta["grid"] == len(approx.points)


@pytest.mark.parametrize("k_list", [[0], [-1], [1, 0], [2.7, 1.2], [0.5], [2, float("nan")]])
def test_wuc_rejects_k_below_one(k_list, monkeypatch):
    def draw(*args):
        raise AssertionError("a tuple was drawn before k_list was checked")

    for name in ("haar_tuple", "phase_tuple", "scalar_tuple", "permutation_tuple"):
        monkeypatch.setattr(ucrange, name, draw)
    monkeypatch.setattr(matcore, "haar_unitary", draw)
    t = matcore.ginibre_random(3, np.random.default_rng(11))
    with pytest.raises(ValueError, match="k_list"):
        ucrange.wuc_inner(t, k_list=k_list, samples=20)


@pytest.mark.parametrize("samples", [200.5, 2.5, np.float64(0.5), float("nan")])
def test_wuc_names_fractional_samples_before_drawing(samples, monkeypatch):
    def draw(*args):
        raise AssertionError("a tuple was drawn before samples was checked")

    for name in ("haar_tuple", "phase_tuple", "scalar_tuple", "permutation_tuple"):
        monkeypatch.setattr(ucrange, name, draw)
    monkeypatch.setattr(matcore, "haar_unitary", draw)
    t = matcore.ginibre_random(3, np.random.default_rng(13))
    with pytest.raises(ValueError, match=f"samples must be an integer, got {samples}"):
        ucrange.wuc_inner(t, samples=samples)


def test_wuc_accepts_integral_samples_of_any_type():
    t = matcore.ginibre_random(2, np.random.default_rng(14))
    plain = ucrange.wuc_inner(t, samples=200, rng=np.random.default_rng(1))
    for samples in (200.0, np.float64(200.0), np.int64(200)):
        approx = ucrange.wuc_inner(t, samples=samples, rng=np.random.default_rng(1))
        assert np.array_equal(approx.points, plain.points)
        assert approx.sample_meta == plain.sample_meta
        assert all(type(v) is int for key, v in approx.sample_meta.items() if key != "k_values")


def test_wuc_names_non_integral_k_as_given():
    t = matcore.ginibre_random(3, np.random.default_rng(12))
    with pytest.raises(ValueError, match=r"k_list entries must be integers, got \[2\.7, 1\.2\]"):
        ucrange.wuc_inner(t, k_list=[2.7, 1.2], samples=20)
    with pytest.raises(ValueError, match=r"got \[0\.5\]"):
        ucrange.wuc_inner(t, k_list=[0.5], samples=20)
    # integral values of any numeric type are the sizes they name
    approx = ucrange.wuc_inner(t, k_list=[2.0, np.int64(1)], samples=20, rng=np.random.default_rng(1))
    plain = ucrange.wuc_inner(t, k_list=[2, 1], samples=20, rng=np.random.default_rng(1))
    assert approx.sample_meta["k_values"] == [2, 1]
    assert np.array_equal(approx.points, plain.points)

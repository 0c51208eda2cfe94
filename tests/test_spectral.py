import numpy as np
import pytest

from swarmdeform.safety import eigvals_sym3


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, 3, 3)) * scale
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def test_matches_eigvalsh_on_random_batch():
    rng = np.random.default_rng(42)
    mats = random_symmetric(rng, 500)
    got = eigvals_sym3(mats)
    want = np.linalg.eigvalsh(mats)[:, ::-1]
    scale = np.abs(mats).max(axis=(1, 2))
    assert np.max(np.abs(got - want) / scale[:, None]) < 1e-12


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_scale_invariance(scale):
    rng = np.random.default_rng(7)
    mats = random_symmetric(rng, 100, scale=scale)
    got = eigvals_sym3(mats)
    want = np.linalg.eigvalsh(mats)[:, ::-1]
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_diagonal_is_bitwise_exact():
    d = np.diag([4.0, 9.0, 1.0])
    assert np.array_equal(eigvals_sym3(d), [9.0, 4.0, 1.0])
    assert np.array_equal(eigvals_sym3(np.eye(3) * 0.3), [0.3, 0.3, 0.3])
    batch = np.stack([d, np.diag([-1.0, -2.0, -3.0])])
    assert np.array_equal(eigvals_sym3(batch),
                          [[9.0, 4.0, 1.0], [-1.0, -2.0, -3.0]])


def test_clustered_spectra():
    rng = np.random.default_rng(3)
    # exactly repeated eigenvalues under a random orthogonal conjugation
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for diag in ([2.0, 2.0, 1.0], [5.0, 5.0, 5.0], [1.0, 1.0 + 1e-9, 0.5]):
        m = q @ np.diag(diag) @ q.T
        got = eigvals_sym3(m)
        want = np.sort(diag)[::-1]
        assert np.max(np.abs(got - want)) < 1e-12


def test_single_equals_batch_row():
    rng = np.random.default_rng(12)
    mats = random_symmetric(rng, 20)
    batch = eigvals_sym3(mats)
    for i in range(20):
        assert np.array_equal(eigvals_sym3(mats[i]), batch[i])


def test_symmetrizes_input():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    sym = 0.5 * (a + a.T)
    assert np.array_equal(eigvals_sym3(a), eigvals_sym3(sym))


def test_descending_order_and_trace():
    rng = np.random.default_rng(9)
    mats = random_symmetric(rng, 200)
    vals = eigvals_sym3(mats)
    assert np.all(np.diff(vals, axis=1) <= 0.0)
    assert np.max(np.abs(vals.sum(axis=1) - np.trace(mats, axis1=1, axis2=2))) < 1e-12

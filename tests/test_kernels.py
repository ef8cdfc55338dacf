"""The NumPy weight-assembly kernel."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from morphkit import _kernels


def random_cloud(seed, n_targets, n_controls, dim=3):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(n_targets, dim)),
            rng.uniform(size=(n_controls, dim)))


def rooted_weights(targets, controls, p, tol):
    """Reference: (d_min / d_k)^p from rooted distances, as NumPy did
    before it switched to squared ones."""
    dist = cdist(targets, controls)
    dmin = dist.min(axis=1)
    hit = dmin <= tol
    out = np.zeros_like(dist)
    out[np.nonzero(hit)[0], dist[hit].argmin(axis=1)] = 1.0
    w = (dmin[~hit, None] / dist[~hit]) ** p
    out[~hit] = w / w.sum(axis=1, keepdims=True)
    return out


def test_backend_name_is_known():
    assert _kernels.backend_name() == "numpy"
    assert _kernels.compiled_available() is False


def test_numpy_backend_partition_of_unity():
    targets, controls = random_cloud(0, 200, 40)
    w = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                        backend="numpy")
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("p", range(1, 8))
def test_numpy_backend_matches_rooted_form(p):
    targets, controls = random_cloud(8, 120, 37)
    targets[3] = controls[5]  # exact hit
    targets[7] = controls[0] + 1e-14  # inside tolerance
    w = _kernels.assemble_weight_matrix(targets, controls, p, 1e-9,
                                        backend="numpy")
    ref = rooted_weights(targets, controls, p, 1e-9)
    np.testing.assert_allclose(w, ref, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(w[[3, 7]], ref[[3, 7]])
    assert w[3, 5] == 1.0 and w[7, 0] == 1.0


def test_numpy_backend_chunking_is_invisible(monkeypatch):
    targets, controls = random_cloud(5, 64, 16)
    whole = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                            backend="numpy")
    # force many small chunks through the same entry point
    monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", 100)
    chunked = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                              backend="numpy")
    np.testing.assert_array_equal(whole, chunked)


def test_zero_targets_allowed():
    _, controls = random_cloud(6, 1, 5)
    w = _kernels.assemble_weight_matrix(np.empty((0, 3)), controls, 4, 1e-12)
    assert w.shape == (0, 5)


def test_unknown_backend_rejected():
    targets, controls = random_cloud(7, 3, 3)
    for backend in ("cuda", "compiled"):
        with pytest.raises(ValueError):
            _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                            backend=backend)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_squared_distances_are_bitwise_cdist(dim, monkeypatch):
    # the kernel's coordinate-at-a-time sum rounds like a per-pair loop, in
    # the broadcast form (_WIDE_ROW 1) and the copy-then-subtract one
    for n_controls in (23, 3676):
        targets, controls = random_cloud(9, 70, n_controls, dim)
        targets *= 1e3
        ref = cdist(targets, controls, "sqeuclidean")
        for wide_row in (1, 10**9):
            monkeypatch.setattr(_kernels, "_WIDE_ROW", wide_row)
            block = np.empty((70, n_controls))
            _kernels._squared_distances(
                targets, np.ascontiguousarray(controls.T), block,
                np.empty_like(block))
            np.testing.assert_array_equal(block, ref)


def test_mismatched_dims_rejected():
    targets, _ = random_cloud(10, 4, 1)
    _, controls = random_cloud(10, 1, 4, dim=2)
    with pytest.raises(ValueError, match="dim"):
        _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12)

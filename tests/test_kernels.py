"""Kernel dispatch: compiled extension vs NumPy fallback."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from morphkit import _kernels
from morphkit._kernels import numpy_backend

needs_compiled = pytest.mark.skipif(
    not _kernels.compiled_available(),
    reason="compiled extension not built in this environment")


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
    assert _kernels.backend_name() in ("compiled", "numpy")


def test_numpy_backend_partition_of_unity():
    targets, controls = random_cloud(0, 200, 40)
    w = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                        backend="numpy")
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@needs_compiled
def test_backends_agree():
    for seed, p in [(1, 4), (2, 2), (3, 7)]:
        targets, controls = random_cloud(seed, 150, 31)
        a = _kernels.assemble_weight_matrix(targets, controls, p, 1e-12,
                                            backend="compiled")
        b = _kernels.assemble_weight_matrix(targets, controls, p, 1e-12,
                                            backend="numpy")
        np.testing.assert_allclose(a, b, atol=1e-14)


@needs_compiled
def test_backends_agree_on_coincidence():
    targets, controls = random_cloud(4, 10, 8)
    targets[3] = controls[5]  # exact hit
    targets[7] = controls[0] + 1e-14  # inside tolerance
    a = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-9,
                                        backend="compiled")
    b = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-9,
                                        backend="numpy")
    np.testing.assert_array_equal(a[3], b[3])
    assert a[3, 5] == 1.0
    np.testing.assert_array_equal(a[7], b[7])
    assert a[7, 0] == 1.0


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
    monkeypatch.setattr(numpy_backend, "_CHUNK_BUDGET", 100)
    chunked = _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                              backend="numpy")
    np.testing.assert_array_equal(whole, chunked)


def test_zero_targets_allowed():
    _, controls = random_cloud(6, 1, 5)
    w = _kernels.assemble_weight_matrix(np.empty((0, 3)), controls, 4, 1e-12)
    assert w.shape == (0, 5)


def test_unknown_backend_rejected():
    targets, controls = random_cloud(7, 3, 3)
    with pytest.raises(ValueError):
        _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12,
                                        backend="cuda")


def _import_with_env(value):
    env = dict(os.environ, MORPHKIT_KERNEL=value)
    return subprocess.run([sys.executable, "-c",
                           "import morphkit; print(morphkit.backend_name())"],
                          capture_output=True, text=True, env=env)


def test_kernel_env_var_selects_backend():
    proc = _import_with_env("numpy")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "numpy"


def test_kernel_env_var_rejects_nonsense():
    proc = _import_with_env("bogus")
    assert proc.returncode != 0
    assert "MORPHKIT_KERNEL" in proc.stderr

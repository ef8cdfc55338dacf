"""The NumPy weight-assembly kernel."""

import hashlib

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
def test_squared_distances_are_bitwise_cdist(dim):
    # the kernel's coordinate-at-a-time sum rounds like a per-pair loop,
    # under NumPy's default ufunc buffer and under the kernel's small one
    for n_controls in (23, 3676):
        targets, controls = random_cloud(9, 70, n_controls, dim)
        targets *= 1e3
        ref = cdist(targets, controls, "sqeuclidean")
        for step in (_kernels._squared_distances,
                     _kernels._small_buffer(_kernels._squared_distances)):
            block = np.empty((70, n_controls))
            step(targets, np.ascontiguousarray(controls.T), block,
                 np.empty_like(block))
            np.testing.assert_array_equal(block, ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_blocks_without_p_yield_squared_distances(dim, monkeypatch):
    # p=None: each chunk's squared distances alone, in the reused buffer or
    # in the caller's array; 7-row chunks, the last one shorter
    targets, controls = random_cloud(11, 30, 16, dim)
    targets *= 1e3
    ref = cdist(targets, controls, "sqeuclidean")
    monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", 7 * 16)

    @_kernels._small_buffer
    def consume(out):
        got, chunks = np.full_like(ref, np.nan), []
        for rows, block in _kernels._row_blocks(
                targets, np.ascontiguousarray(controls.T), out=out):
            chunks.append(block.shape[0])
            got[rows] = block
        return got, chunks

    for out in (None, np.empty_like(ref)):
        got, chunks = consume(out)
        assert chunks == [7, 7, 7, 7, 2]
        np.testing.assert_array_equal(got, ref)
        if out is not None:
            np.testing.assert_array_equal(out, ref)


def test_mismatched_dims_rejected():
    targets, _ = random_cloud(10, 4, 1)
    _, controls = random_cloud(10, 1, 4, dim=2)
    with pytest.raises(ValueError, match="dim"):
        _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12)


def test_exact_hit_at_zero_tolerance_gets_the_indicator_row():
    # with tol = 0 only d = 0 is a hit; it must still take the indicator
    # row, not the ratio form's 0/0
    controls = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    targets = np.array([[1.0, 0.0], [0.3, 0.4]])
    w = _kernels.assemble_weight_matrix(targets, controls, 2, 0.0)
    np.testing.assert_array_equal(w[0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(w[1], rooted_weights(targets, controls, 2,
                                                    0.0)[1], rtol=1e-15)
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    moved = _kernels.apply_weights(targets, controls, values, 2, 0.0)
    np.testing.assert_array_equal(moved[0], [3.0, 4.0])


def test_kernels_run_under_their_buffer_and_restore_the_callers(monkeypatch):
    targets, controls = random_cloud(11, 40, 30)
    values = np.ones((30, 3))
    calls = (
        lambda: _kernels.assemble_weight_matrix(targets, controls, 4, 1e-12),
        lambda: _kernels.apply_weights(targets, controls, values, 4, 1e-12),
        lambda: _kernels.assemble_weight_matrix(targets, controls[:, :2], 4,
                                                1e-12),
        lambda: _kernels.apply_weights(targets, controls[:, :2], values, 4,
                                       1e-12),
    )
    inside = []
    chunk_routine = _kernels._ratio_weights

    def spy(*args):
        inside.append(np.getbufsize())
        chunk_routine(*args)

    def fail(*args):
        raise FloatingPointError("inside the kernel's scope")

    old = np.setbufsize(16_384)  # a caller's own size
    try:
        monkeypatch.setattr(_kernels, "_ratio_weights", spy)
        for call in calls[:2]:
            call()
            assert np.getbufsize() == 16_384
        assert inside == [_kernels._BUFSIZE] * 2
        for call in calls[2:]:  # refused operands
            with pytest.raises(ValueError, match="dim"):
                call()
            assert np.getbufsize() == 16_384
        monkeypatch.setattr(_kernels, "_ratio_weights", fail)
        for call in calls[:2]:
            with pytest.raises(FloatingPointError):
                call()
            assert np.getbufsize() == 16_384
    finally:
        np.setbufsize(old)


# first 16 hex digits of the SHA-256 of the weight matrix and of the
# applied values for p and a cloud of `width` controls, as the kernel gave
# them before it ran under a small ufunc buffer. Each digest set holds the
# bits of the two x86-64 code paths: AVX-512 (NumPy's SIMD power, OpenBLAS
# SkylakeX kernels) and AVX2 (libm's power, OpenBLAS Haswell or Zen
# kernels). p = 1, 2 and 4 take no power, so their weights are the same
# on both.
GOLDEN = {
    (1, 23): (("54844877e16714b2",), ("c954853ce3fc23b9", "751d489f175865fc")),
    (1, 200): (("41928bb88a2629ac",), ("a16ab60ffa5cb84a", "d9fb569b1aa99d26")),
    (1, 666): (("ae60d924adea332a",), ("ba26b9f15d381fc8", "3682f18cfcf39e07")),
    (1, 3676): (("f5cb01993981aa5b",),
                ("d8a40c273d64594e", "175f23f4ecd96d89")),
    (2, 23): (("202b6c18bbb1b3ba",), ("c2c7dab0aee65da3", "4a709f63483ba086")),
    (2, 200): (("6110b13869371fe6",), ("1b4597d3ed82c18a", "3c6685c2d7b96a03")),
    (2, 666): (("d0aaaa2e26aa3d0a",), ("dd7e59f6c014280d", "788e55df03acc090")),
    (2, 3676): (("fa2858695e21ad0a",),
                ("ef6c5ff089623f68", "004e110e478d5e87")),
    (3, 23): (("230ef96b81c4ba26", "f097894cd0083ee8"),
              ("5a6661a0a8beabcd", "be9ab8d1e3995eeb")),
    (3, 200): (("c815a0b0f8ebf612", "69ecfb2583d39950"),
               ("3747eafab6e23cf0", "b393231f33230b4a")),
    (3, 666): (("deb18386d37bc40e", "be89932e7d2a1620"),
               ("7258b9c47f94c1f2", "3bb5c00c81868ff1")),
    (3, 3676): (("c171f2c6c56f0a7c", "3aa81766cb754d6e"),
                ("a55b72ff62979437", "19ece400586f7b1d")),
    (4, 23): (("1151a4759ae910e7",), ("8d7c0d4fff0d5c32", "526880ba6195c4d0")),
    (4, 200): (("577889ef17f99cfc",), ("0ed70dee303f7f9f", "e5a93dee50202f26")),
    (4, 666): (("1a3646e3de9f6ddd",), ("2a1595bc3dc064e9", "ce7cd020316b560b")),
    (4, 3676): (("d8cf67129d17c2aa",),
                ("c72b106af850904a", "975d77751a68717b")),
    (7, 23): (("155fb92fd86ab3d8", "f21aa4efaaa0d304"),
              ("6ce2d0e6c1ca3b33", "0b78c120cc85f562")),
    (7, 200): (("494d5e50ad9f519b", "d1e99546ab2a5092"),
               ("e614241f0e8d6fa1", "2092b4e9eb4b54ef")),
    (7, 666): (("d27cfc2fb367b9c0", "31fd3bef033ef390"),
               ("2140c51201b665bd", "a88ca37f3f97d42c")),
    (7, 3676): (("0bcd4bc46d24237e", "d6a746497e70bdc6"),
                ("35caac2bbc0d8866", "e823fe8c7587019d")),
}


@pytest.mark.parametrize("p, width", sorted(GOLDEN))
def test_kernel_outputs_keep_their_golden_bits(p, width):
    # 90 targets, one on a control and one inside the tolerance of another
    targets, controls = random_cloud(width, 90, width)
    targets[3] = controls[5]
    targets[7] = controls[0] + 1e-14
    values = np.random.default_rng(p).normal(size=(width, 3))
    w = _kernels.assemble_weight_matrix(targets, controls, p, 1e-9)
    moved = _kernels.apply_weights(targets, controls, values, p, 1e-9)
    assert w[3, 5] == 1.0 and w[7, 0] == 1.0
    weights_digests, applied_digests = GOLDEN[p, width]
    assert hashlib.sha256(w.tobytes()).hexdigest()[:16] in weights_digests
    assert hashlib.sha256(moved.tobytes()).hexdigest()[:16] in applied_digests

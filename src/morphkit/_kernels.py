"""Inverse-distance weight assembly, the one kernel behind every operator.

Ratio-form weights (d_min / d_k)^p, indicator rows for targets
coinciding with a control (lowest control index wins ties). The dense
operator normalizes each row; the streamed product applies the
unnormalized weights to [V | 1] and divides each row once by the last
column, its weight sum.

The weights are computed from squared distances, summed into the output
one coordinate at a time, ((dx²) + dy²) + dz²: the rounding of a per-pair
loop, bit for bit what SciPy's ``cdist(..., "sqeuclidean")`` gives (the
tests' oracle), with NumPy alone. They are transformed there in place:
(d_min / d_k)^p = (d²_min / d²_k)^(p/2), so even p needs no square root
and odd p takes one root of the ratio. Rows go in chunks, cut by one
iterator for every caller, so that a chunk and the one scratch block
reused by all chunks stay in cache between passes.

Both entry points run under a small NumPy ufunc buffer. The passes that
broadcast a per-row column against a chunk (c - t, d²_min / d², the row
sums) go through NumPy's buffered inner loop, which under the default
8,192-element buffer is slow on rows narrower than about 8,192 / 3
entries. The arithmetic is the same elementwise IEEE operations, so the
bits do not depend on the buffer.
"""

import functools

import numpy as np

# entries of the output transformed per chunk: ~0.5 MB of float64, so the
# chunk and its scratch block stay in a per-core L2 cache across the
# in-place passes
_CHUNK_BUDGET = 65_536

# elements of NumPy's ufunc buffer while a kernel entry point runs. The
# distance step over ~65k entries (NumPy 2.4, one core) costs 2.5-4.4
# ns/entry under 256 against 4.6-5.5 under the default 8,192 at 100 to
# 2,000 controls per row, and the same at 20 to 50 and at 3,676; 64 is as
# fast from 100 controls on and up to 40 % slower below
_BUFSIZE = 256


def backend_name():
    """Name of the weight kernel in use; there is only the NumPy one."""
    return "numpy"


def compiled_available():
    """Whether a compiled kernel is importable; there is none."""
    return False


def _small_buffer(kernel):
    """``kernel`` run with NumPy's ufunc buffer at _BUFSIZE elements, the
    caller's size restored on every exit: an ``np.errstate`` block would
    restore it only on NumPy >= 2."""
    @functools.wraps(kernel)
    def scoped(*args, **kwargs):
        old = np.setbufsize(_BUFSIZE)
        try:
            return kernel(*args, **kwargs)
        finally:
            np.setbufsize(old)
    return scoped


def _ratio_power(ratio, p):
    """Raise the squared-distance ratio d²_min / d² to p/2, in place."""
    if p % 2:
        np.sqrt(ratio, out=ratio)
        exponent = p
    else:
        exponent = p // 2
    if exponent == 2:
        np.multiply(ratio, ratio, out=ratio)
    elif exponent > 2:
        np.power(ratio, exponent, out=ratio)


def _squared_distances(targets, controls_t, block, scratch):
    """Squared distances of ``targets`` to the columns of ``controls_t``
    (dim, m), written into ``block``; ``scratch`` has the block's shape.

    Each coordinate difference is taken as c - t, one broadcast
    subtraction, which rounds to exactly -(t - c).
    """
    for k in range(controls_t.shape[0]):
        diff = block if k == 0 else scratch
        np.subtract(controls_t[k], targets[:, k:k + 1], out=diff)
        np.multiply(diff, diff, out=diff)
        if k:
            block += scratch


def _ratio_weights(targets, controls_t, p, tol, block, scratch):
    """Unnormalized weights (d²_min / d²)^(p/2) of ``targets`` against the
    columns of ``controls_t``, written into ``block``.

    A row's largest entry is exactly 1; a target within ``tol`` of a
    control gets the indicator row of the nearest one instead.
    """
    _squared_distances(targets, controls_t, block, scratch)
    d2min = block.min(axis=1)
    rows = np.nonzero(np.sqrt(d2min) <= tol)[0]
    # most chunks hold no coincident target: skip the fix-ups, ~4 µs of
    # index work on empty arrays per chunk
    if rows.size:
        # indicator columns from the rooted distances, so that ties go to
        # the lowest index as in the single-point reference, before the
        # block is overwritten
        hits = np.sqrt(block[rows]).argmin(axis=1)
        # coincident rows get a dummy ratio of 1 so that no 0/0 occurs
        block[rows] = 1.0
        d2min[rows] = 1.0
    np.divide(d2min[:, None], block, out=block)
    _ratio_power(block, p)
    if rows.size:
        block[rows] = 0.0
        block[rows, hits] = 1.0


def _row_blocks(targets, controls_t, p=None, tol=None, out=None):
    """(rows, block) per chunk of ``_CHUNK_BUDGET // m`` rows of ``targets``
    against the m columns of ``controls_t``: the squared distances, or with
    ``p`` the unnormalized weights, in ``out[rows]`` or else in one buffer
    reused by every chunk. Consume it inside the entry point's own
    ``_small_buffer`` scope, which a decorated generator would leave early."""
    n, m = targets.shape[0], controls_t.shape[1]
    chunk = max(1, _CHUNK_BUDGET // max(m, 1))
    shape = (min(chunk, n), m)
    # the block before its scratch: the other order ran the streamed product
    # ~2 % slower at tunnel-22 (17-row chunks of 3,676 controls)
    buf = np.empty(shape) if out is None else None
    scratch = np.empty(shape)
    for lo in range(0, n, chunk):
        rows = slice(lo, min(lo + chunk, n))
        k = rows.stop - lo
        block = buf[:k] if out is None else out[rows]
        if p is None:
            _squared_distances(targets[rows], controls_t, block, scratch[:k])
        else:
            _ratio_weights(targets[rows], controls_t, p, tol, block,
                           scratch[:k])
        yield rows, block


def _operands(targets, controls):
    """float64 point sets of one dim, the controls transposed to (dim, m)."""
    targets = np.asarray(targets, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if (targets.ndim != 2 or controls.ndim != 2
            or targets.shape[1] != controls.shape[1]):
        raise ValueError(f"targets {targets.shape} and controls "
                         f"{controls.shape} are not point sets of one dim")
    return targets, np.ascontiguousarray(controls.T)


@_small_buffer
def assemble_weight_matrix(targets, controls, p, tol, backend=None):
    """Dense (n_targets, n_controls) inverse-distance weight matrix.

    ``backend`` may name the kernel for callers that report it: None or
    "numpy"; anything else raises ValueError.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    targets, controls_t = _operands(targets, controls)
    out = np.empty((targets.shape[0], controls_t.shape[1]), dtype=np.float64)
    for _, block in _row_blocks(targets, controls_t, int(p), float(tol), out):
        # an indicator row sums to exactly 1, so it passes unchanged
        block /= block.sum(axis=1, keepdims=True)
    return out


@_small_buffer
def apply_weights(targets, controls, values, p, tol):
    """(n_targets, dim) product of the inverse-distance weight matrix with
    ``values`` (n_controls, dim), streamed: only one chunk of weights
    exists at a time.

    Each chunk's unnormalized weights multiply [values | 1], and a row is
    divided once by its last column, its weight sum. That sum is at least
    1 (a ratio row holds an exact 1, an indicator row is a single 1), so
    the division neither overflows nor meets 0/0, and a target on a
    control gets exactly that control's value.
    """
    targets, controls_t = _operands(targets, controls)
    values = np.asarray(values, dtype=np.float64)
    dim = values.shape[1]
    values1 = np.ones((controls_t.shape[1], dim + 1), dtype=np.float64)
    values1[:, :dim] = values
    out = np.empty((targets.shape[0], dim), dtype=np.float64)
    for rows, block in _row_blocks(targets, controls_t, int(p), float(tol)):
        prod = block @ values1  # chunk-sized, like the block
        np.divide(prod[:, :dim], prod[:, dim:], out=out[rows])
    return out

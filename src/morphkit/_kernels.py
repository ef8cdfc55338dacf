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
and odd p takes one root of the ratio. Rows go in chunks so that a chunk
and the one scratch block reused by all chunks stay in cache between
passes.
"""

import numpy as np

# entries of the output transformed per chunk: ~0.5 MB of float64, so the
# chunk and its scratch block stay in a per-core L2 cache across the
# in-place passes
_CHUNK_BUDGET = 65_536

# controls per row from which one broadcast subtraction c - t beats
# copy-then-subtract. Scan of one pass over ~65k entries (NumPy 2.4, one
# core): broadcast 1.1-1.5 ns/entry up to 2,730 controls, 0.26-0.32 ns
# from 2,800 to 8,192; copy-then-subtract 0.5-1.1 ns at every width
_WIDE_ROW = 3_000


def backend_name():
    """Name of the weight kernel in use; there is only the NumPy one."""
    return "numpy"


def compiled_available():
    """Whether a compiled kernel is importable; there is none."""
    return False


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

    Each coordinate difference is taken as c - t, which rounds to exactly
    -(t - c), in one of two forms that give the same bits: one broadcast
    subtraction on rows of at least ``_WIDE_ROW`` controls, and on
    narrower rows, where the broadcast is the slower one, a copy of the
    control row with the target column subtracted in place.
    """
    wide = controls_t.shape[1] >= _WIDE_ROW
    for k in range(controls_t.shape[0]):
        diff = block if k == 0 else scratch
        if wide:
            np.subtract(controls_t[k], targets[:, k:k + 1], out=diff)
        else:
            np.copyto(diff, controls_t[k])
            np.subtract(diff, targets[:, k:k + 1], out=diff)
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
    # indicator columns from the rooted distances, so that ties go to the
    # lowest index as in the single-point reference, before the block is
    # overwritten
    hits = np.sqrt(block[rows]).argmin(axis=1)
    # coincident rows get a dummy ratio of 1 so that no 0/0 occurs
    block[rows] = 1.0
    d2min[rows] = 1.0
    np.divide(d2min[:, None], block, out=block)
    _ratio_power(block, p)
    block[rows] = 0.0
    block[rows, hits] = 1.0


def _operands(targets, controls):
    """float64 point sets of one dim, the controls transposed to (dim, m),
    and the rows per chunk."""
    targets = np.asarray(targets, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if (targets.ndim != 2 or controls.ndim != 2
            or targets.shape[1] != controls.shape[1]):
        raise ValueError(f"targets {targets.shape} and controls "
                         f"{controls.shape} are not point sets of one dim")
    chunk = max(1, _CHUNK_BUDGET // max(controls.shape[0], 1))
    return targets, np.ascontiguousarray(controls.T), chunk


def assemble_weight_matrix(targets, controls, p, tol, backend=None):
    """Dense (n_targets, n_controls) inverse-distance weight matrix.

    ``backend`` may name the kernel for callers that report it: None or
    "numpy"; anything else raises ValueError.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    targets, controls_t, chunk = _operands(targets, controls)
    p, tol = int(p), float(tol)
    n, m = targets.shape[0], controls_t.shape[1]
    out = np.empty((n, m), dtype=np.float64)
    scratch = np.empty((min(chunk, n), m), dtype=np.float64)
    for lo in range(0, n, chunk):
        block = out[lo:lo + chunk]
        _ratio_weights(targets[lo:lo + chunk], controls_t, p, tol, block,
                       scratch[:block.shape[0]])
        # an indicator row sums to exactly 1, so it passes unchanged
        block /= block.sum(axis=1, keepdims=True)
    return out


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
    targets, controls_t, chunk = _operands(targets, controls)
    p, tol = int(p), float(tol)
    n, m = targets.shape[0], controls_t.shape[1]
    values = np.asarray(values, dtype=np.float64)
    dim = values.shape[1]
    values1 = np.ones((m, dim + 1), dtype=np.float64)
    values1[:, :dim] = values
    out = np.empty((n, dim), dtype=np.float64)
    block = np.empty((min(chunk, n), m), dtype=np.float64)
    scratch = np.empty_like(block)
    prod = np.empty((block.shape[0], dim + 1), dtype=np.float64)
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        _ratio_weights(targets[lo:lo + k], controls_t, p, tol, block[:k],
                       scratch[:k])
        np.matmul(block[:k], values1, out=prod[:k])
        np.divide(prod[:k, :dim], prod[:k, dim:], out=out[lo:lo + k])
    return out

"""Inverse-distance weight assembly, the one kernel behind every operator.

Ratio-form weights (d_min / d_k)^p, indicator rows for targets
coinciding with a control (lowest control index wins ties),
row-normalized.

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
    -(t - c): copying the control row and subtracting the target column
    in place is faster than one broadcast subtraction of both.
    """
    for k in range(controls_t.shape[0]):
        diff = block if k == 0 else scratch
        np.copyto(diff, controls_t[k])
        np.subtract(diff, targets[:, k:k + 1], out=diff)
        np.multiply(diff, diff, out=diff)
        if k:
            block += scratch


def assemble_weight_matrix(targets, controls, p, tol, backend=None):
    """Dense (n_targets, n_controls) inverse-distance weight matrix.

    ``backend`` may name the kernel for callers that report it: None or
    "numpy"; anything else raises ValueError.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    targets = np.asarray(targets, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if (targets.ndim != 2 or controls.ndim != 2
            or targets.shape[1] != controls.shape[1]):
        raise ValueError(f"targets {targets.shape} and controls "
                         f"{controls.shape} are not point sets of one dim")
    p, tol = int(p), float(tol)
    n, m = targets.shape[0], controls.shape[0]
    controls_t = np.ascontiguousarray(controls.T)
    out = np.empty((n, m), dtype=np.float64)
    chunk = max(1, _CHUNK_BUDGET // max(m, 1))
    scratch = np.empty((min(chunk, n), m), dtype=np.float64)
    for lo in range(0, n, chunk):
        block = out[lo:lo + chunk]
        _squared_distances(targets[lo:lo + chunk], controls_t, block,
                           scratch[:block.shape[0]])
        d2min = block.min(axis=1)
        coincident = np.sqrt(d2min) <= tol
        rows = np.nonzero(coincident)[0]
        # indicator columns from the rooted distances, so that ties go to
        # the lowest index as in the single-point reference, before the
        # block is overwritten
        hits = np.sqrt(block[rows]).argmin(axis=1)
        # coincident rows get a dummy ratio of 1 so that no 0/0 occurs
        block[rows] = 1.0
        d2min[rows] = 1.0
        np.divide(d2min[:, None], block, out=block)
        _ratio_power(block, p)
        block /= block.sum(axis=1, keepdims=True)
        block[rows] = 0.0
        block[rows, hits] = 1.0
    return out

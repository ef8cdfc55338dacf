"""Inverse-distance weight assembly, the one kernel behind every operator.

Ratio-form weights (d_min / d_k)^p, indicator rows for targets
coinciding with a control (lowest control index wins ties),
row-normalized.

The weights are computed from squared distances, written by ``cdist``
straight into the output and transformed there in place:
(d_min / d_k)^p = (d²_min / d²_k)^(p/2), so even p needs no square root
and odd p takes one root of the ratio. Rows go in chunks so that the
per-row scratch stays small and a chunk is still in cache between
passes.
"""

import numpy as np
from scipy.spatial.distance import cdist

# entries of the output transformed per chunk: ~2 MB of float64, which
# stays in a per-core L2 cache across the in-place passes
_CHUNK_BUDGET = 250_000


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


def assemble_weight_matrix(targets, controls, p, tol, backend=None):
    """Dense (n_targets, n_controls) inverse-distance weight matrix.

    ``backend`` may name the kernel for callers that report it: None or
    "numpy"; anything else raises ValueError.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    controls = np.ascontiguousarray(controls, dtype=np.float64)
    p, tol = int(p), float(tol)
    n, m = targets.shape[0], controls.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    chunk = max(1, _CHUNK_BUDGET // max(m, 1))
    for lo in range(0, n, chunk):
        block = out[lo:lo + chunk]
        cdist(targets[lo:lo + chunk], controls, "sqeuclidean", out=block)
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

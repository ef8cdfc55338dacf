"""Pure-NumPy weight assembly, used when the compiled kernel is absent.

Semantics match ``_idw_core.assemble_rows`` to within 1e-14: ratio-form
weights (d_min / d_k)^p, indicator rows for targets coinciding with a
control (lowest control index wins ties), row-normalized.

The weights are computed from squared distances, written by ``cdist``
straight into ``out`` and transformed there in place:
(d_min / d_k)^p = (d²_min / d²_k)^(p/2), so even p needs no square root
and odd p takes one root of the ratio. Rows go in chunks so that the
per-row scratch stays small and a chunk is still in cache between
passes.
"""

import numpy as np
from scipy.spatial.distance import cdist

# entries of ``out`` transformed per chunk: ~2 MB of float64, which stays
# in a per-core L2 cache across the in-place passes
_CHUNK_BUDGET = 250_000


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


def assemble_rows(targets, controls, p, tol, out):
    n = targets.shape[0]
    m = controls.shape[0]
    chunk = max(1, _CHUNK_BUDGET // max(m, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = out[lo:hi]
        cdist(targets[lo:hi], controls, "sqeuclidean", out=block)
        d2min = block.min(axis=1)
        coincident = np.sqrt(d2min) <= tol
        rows = np.nonzero(coincident)[0]
        # indicator columns from the rooted distances, as the compiled
        # kernel breaks its ties, before the block is overwritten
        hits = np.sqrt(block[rows]).argmin(axis=1)
        # coincident rows get a dummy ratio of 1 so that no 0/0 occurs
        block[rows] = 1.0
        d2min[rows] = 1.0
        np.divide(d2min[:, None], block, out=block)
        _ratio_power(block, p)
        block /= block.sum(axis=1, keepdims=True)
        block[rows] = 0.0
        block[rows, hits] = 1.0

"""Inverse-distance weighting: point evaluation, matrix assembly, application.

The weight of control point c_k at a target x is

    w_k(x) = |x - c_k|^(-p) / sum_j |x - c_j|^(-p)

with w(x) collapsing to the indicator of the nearest control when x sits
on a control point (within a coincidence tolerance). Weights are
evaluated in the overflow-safe ratio form (d_min / d_k)^p, which is
algebraically identical. Rows therefore always sum to one and a constant
control displacement is reproduced exactly.

:func:`assemble` builds the dense weight matrix through the kernel layer
(compiled extension or NumPy fallback); :func:`interpolate` streams the
same weights through the same kernels in row blocks and applies them
without ever holding the dense matrix; :func:`weights_at` is the
independent single-point reference path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .mesh import DisplacementField

__all__ = [
    "IdwConfig",
    "IdwOperator",
    "weights_at",
    "assemble",
    "deform",
    "interpolate",
    "write_operator",
    "read_operator",
]

# coincidence tolerance as a fraction of the relevant bounding-box diagonal
TOL_FACTOR = 1e-12

# weight entries per row block of a streamed morph (~2 MB of float64,
# so a block stays in a per-core L2 cache between the kernel's passes)
_STREAM_BUDGET = 250_000


@dataclass(frozen=True)
class IdwConfig:
    """Assembly parameters.

    Attributes:
        p: inverse-distance exponent, integer >= 1.
        coincidence_tol: absolute distance under which a target is treated
            as sitting on a control. None means 1e-12 times the bounding
            box diagonal of the geometry at hand.
    """

    p: int = 4
    coincidence_tol: float | None = None

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p}")
        object.__setattr__(self, "p", int(self.p))
        if self.coincidence_tol is not None and not self.coincidence_tol >= 0:
            raise ValueError("coincidence_tol must be >= 0")

    def resolve_tol(self, points):
        if self.coincidence_tol is not None:
            return float(self.coincidence_tol)
        span = np.asarray(points).max(axis=0) - np.asarray(points).min(axis=0)
        return TOL_FACTOR * float(np.linalg.norm(span))


@dataclass(frozen=True, eq=False)
class IdwOperator:
    """Dense weight matrix mapping control displacements to target ones.

    Attributes:
        matrix: shape (n_targets, n_controls), entries in [0, 1], rows
            summing to one.
        target_ids / control_ids: node ids labelling rows / columns.
        config: the IdwConfig used, with coincidence_tol resolved.
    """

    matrix: np.ndarray
    target_ids: np.ndarray
    control_ids: np.ndarray
    config: IdwConfig

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64, copy=True)
        tgt = np.array(np.atleast_1d(self.target_ids), dtype=np.int64, copy=True)
        ctl = np.array(np.atleast_1d(self.control_ids), dtype=np.int64, copy=True)
        if mat.ndim != 2 or mat.shape != (tgt.size, ctl.size):
            raise ValueError(f"matrix shape {mat.shape} does not match "
                             f"{tgt.size} targets x {ctl.size} controls")
        for arr in (mat, tgt, ctl):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "target_ids", tgt)
        object.__setattr__(self, "control_ids", ctl)

    @property
    def n_targets(self):
        return self.target_ids.size

    @property
    def n_controls(self):
        return self.control_ids.size


def _check_distinct_controls(controls, tol, what="control points"):
    if len(controls) > 1 and tol > 0:
        pairs = cKDTree(controls).query_pairs(tol)
        if pairs:
            i, j = sorted(next(iter(pairs)))
            raise ValueError(f"{what} {i} and {j} coincide within {tol:.3e}")


def weights_at(x, controls, config=IdwConfig()):
    """Weight vector of ``controls`` at the single point ``x``.

    Reference implementation used to cross-check assembled matrix rows;
    not the bulk path.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
    if controls.shape[0] == 0:
        raise ValueError("need at least one control point")
    if controls.shape[1] != x.size:
        raise ValueError(f"point has dim {x.size}, controls have dim {controls.shape[1]}")
    tol = config.resolve_tol(np.vstack([controls, x[None, :]]))
    _check_distinct_controls(controls, tol)
    dist = np.linalg.norm(controls - x, axis=1)
    dmin = dist.min()
    if dmin <= tol:
        w = np.zeros(len(controls))
        w[int(dist.argmin())] = 1.0  # argmin: lowest index on ties
        return w
    w = (dmin / dist) ** config.p
    return w / w.sum()


def _validated(mesh, control_ids, target_ids, config):
    """Checked id arrays, control coordinates and resolved tolerance."""
    control_ids = np.atleast_1d(np.asarray(control_ids, dtype=np.int64))
    target_ids = np.atleast_1d(np.asarray(target_ids, dtype=np.int64))
    if control_ids.size == 0:
        raise ValueError("need at least one control point")
    for name, ids in (("control_ids", control_ids), ("target_ids", target_ids)):
        if ids.size and (ids.min() < 0 or ids.max() >= mesh.node_count):
            raise ValueError(f"{name} contains a node id out of range")
        if np.unique(ids).size != ids.size:
            raise ValueError(f"{name} contains duplicates")
    tol = config.resolve_tol(mesh.nodes)
    controls = np.ascontiguousarray(mesh.nodes[control_ids])
    _check_distinct_controls(controls, tol)
    return control_ids, target_ids, controls, tol


def assemble(mesh, control_ids, target_ids, config=IdwConfig()):
    """Weight matrix of ``control_ids`` at ``target_ids`` for ``mesh``.

    The coincidence tolerance resolves against the mesh bounding box and
    is stored back into the returned operator's config, so dumps carry
    concrete numbers.
    """
    control_ids, target_ids, controls, tol = _validated(
        mesh, control_ids, target_ids, config)
    matrix = _kernels.assemble_weight_matrix(mesh.nodes[target_ids], controls,
                                             config.p, tol)
    return IdwOperator(matrix, target_ids, control_ids,
                       IdwConfig(config.p, tol))


def interpolate(mesh, displacement, target_ids, config=IdwConfig()):
    """IDW morph of ``displacement`` (over its own ids) at ``target_ids``.

    Equals ``deform(assemble(mesh, displacement.indices, target_ids,
    config), displacement)`` to rounding, with the same validation, but
    never builds the dense operator: the weights of one block of target
    rows at a time go through the kernel layer and straight into the
    product, so memory stays at one block of ``_STREAM_BUDGET`` entries.
    """
    control_ids, target_ids, controls, tol = _validated(
        mesh, displacement.indices, target_ids, config)
    targets = mesh.nodes[target_ids]
    out = np.empty((target_ids.size, displacement.dim))
    rows = max(1, _STREAM_BUDGET // control_ids.size)
    for lo in range(0, target_ids.size, rows):
        weights = _kernels.assemble_weight_matrix(targets[lo:lo + rows],
                                                  controls, config.p, tol)
        np.matmul(weights, displacement.vectors, out=out[lo:lo + rows])
    return DisplacementField(target_ids, out)


def deform(op, displacement):
    """Apply the operator: target displacements = matrix @ control ones.

    ``displacement`` must cover exactly ``op.control_ids``, in order.
    """
    if not np.array_equal(displacement.indices, op.control_ids):
        raise ValueError("displacement indices must equal op.control_ids in order")
    return DisplacementField(op.target_ids, op.matrix @ displacement.vectors)


# ---------------------------------------------------------------------------
# binary persistence
#
# layout, all little-endian:
#   4s    magic "IDW1"
#   u32   n_targets
#   u32   n_controls
#   u32   p
#   f64   coincidence_tol
#   i64[] target_ids
#   i64[] control_ids
#   f64[] matrix, row-major

_MAGIC = b"IDW1"
_HEADER = struct.Struct("<4sIIId")


def write_operator(op, path):
    """Dump an operator to ``path`` in the IDW1 binary layout."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, op.n_targets, op.n_controls,
                              op.config.p, op.config.coincidence_tol))
        fh.write(op.target_ids.astype("<i8").tobytes())
        fh.write(op.control_ids.astype("<i8").tobytes())
        fh.write(np.ascontiguousarray(op.matrix, dtype="<f8").tobytes())


def read_operator(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an IDW1 operator dump")
    magic, n_t, n_c, p, tol = _HEADER.unpack_from(raw)
    offset = _HEADER.size
    expected = offset + 8 * (n_t + n_c + n_t * n_c)
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated operator dump "
                         f"({len(raw)} bytes, expected {expected})")
    tgt = np.frombuffer(raw, dtype="<i8", count=n_t, offset=offset)
    offset += 8 * n_t
    ctl = np.frombuffer(raw, dtype="<i8", count=n_c, offset=offset)
    offset += 8 * n_c
    mat = np.frombuffer(raw, dtype="<f8", count=n_t * n_c,
                        offset=offset).reshape(n_t, n_c)
    return IdwOperator(mat, tgt, ctl, IdwConfig(p, tol))

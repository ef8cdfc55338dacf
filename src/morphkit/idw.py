"""Inverse-distance weighting: point evaluation, matrix assembly, application.

The weight of control point c_k at a target x is

    w_k(x) = |x - c_k|^(-p) / sum_j |x - c_j|^(-p)

with w(x) collapsing to the indicator of the nearest control when x sits
on a control point: within 1e-12 times the bounding box diagonal of the
mesh (:func:`assemble`, :func:`interpolate`) or of the points at hand
(:func:`weights_at`). Controls closer than that are refused. Weights are
evaluated in the overflow-safe ratio form (d_min / d_k)^p, which is
algebraically identical. Rows therefore always sum to one and a constant
control displacement is reproduced exactly.

:func:`assemble` builds the dense weight matrix through the kernel
layer; :func:`interpolate` streams the same weights through the same
kernel in row blocks and applies them without ever holding the dense
matrix; :func:`weights_at` is the independent single-point reference
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .mesh import (COINCIDENCE_FACTOR, DisplacementField, _bbox_diagonal,
                   _node_ids, _numbers, _own, _scalar, _trusted,
                   coincident_pair)

__all__ = [
    "IdwConfig",
    "IdwOperator",
    "weights_at",
    "assemble",
    "deform",
    "interpolate",
]

@dataclass(frozen=True)
class IdwConfig:
    """Assembly parameters.

    Attributes:
        p: inverse-distance exponent, integer >= 1; an integral float
            such as 4.0 is taken, while None, a bool, a string or 2.5
            raises ValueError.
    """

    p: int = 4

    def __post_init__(self):
        object.__setattr__(self, "p", _scalar(self.p, "p", True, 1))

    def resolve_tol(self, points):
        """Coincidence tolerance of ``points``: 1e-12 times the diagonal
        of their bounding box, as a Mesh computes it for its nodes."""
        return COINCIDENCE_FACTOR * _bbox_diagonal(points)


@dataclass(frozen=True, eq=False)
class IdwOperator:
    """Dense weight matrix mapping control displacements to target ones.

    Attributes:
        matrix: shape (n_targets, n_controls), entries in [0, 1], rows
            summing to one.
        target_ids / control_ids: node ids labelling rows / columns.
    """

    matrix: np.ndarray
    target_ids: np.ndarray
    control_ids: np.ndarray

    def __post_init__(self):
        # a frozen array that owns its data is taken as is; anything that
        # some other reference may still write is copied
        mat = _own(self.matrix, np.float64)
        tgt = _node_ids(self.target_ids, "target_ids")
        ctl = _node_ids(self.control_ids, "control_ids")
        if mat.ndim != 2 or mat.shape != (tgt.size, ctl.size):
            raise ValueError(f"matrix shape {mat.shape} does not match "
                             f"{tgt.size} targets x {ctl.size} controls")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "target_ids", tgt)
        object.__setattr__(self, "control_ids", ctl)

    @property
    def n_targets(self):
        return self.target_ids.size

    @property
    def n_controls(self):
        return self.control_ids.size


def _check_distinct_controls(controls, tol):
    pair = coincident_pair(controls, tol)
    if pair is not None:
        i, j = pair
        raise ValueError(f"control points {i} and {j} coincide within {tol:.3e}")


def weights_at(x, controls, config=IdwConfig()):
    """Weight vector of ``controls`` at the single point ``x``.

    Reference implementation used to cross-check assembled matrix rows;
    not the bulk path. Its coincidence tolerance is
    ``config.resolve_tol`` of the controls and ``x`` together. Both are
    read by ``mesh._numbers``, as a mesh reads its nodes: a string or a
    bool raises ValueError naming the entry.
    """
    x = np.asarray(_numbers(x, "point"), dtype=np.float64).reshape(-1)
    controls = np.atleast_2d(np.asarray(_numbers(controls, "controls"),
                                        dtype=np.float64))
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


def _validated(mesh, control_ids, target_ids):
    """Checked id arrays, control coordinates and the mesh's tolerance."""
    control_ids = _node_ids(control_ids, "control_ids", mesh.node_count)
    target_ids = _node_ids(target_ids, "target_ids", mesh.node_count)
    if control_ids.size == 0:
        raise ValueError("need at least one control point")
    controls = np.ascontiguousarray(mesh.nodes[control_ids])
    tol = mesh.coincidence_tolerance
    # a mesh that passed validate() has swept every node pair at tol, and
    # the control ids are unique
    if not mesh._valid:
        _check_distinct_controls(controls, tol)
    return control_ids, target_ids, controls, tol


def assemble(mesh, control_ids, target_ids, config=IdwConfig()):
    """Weight matrix of ``control_ids`` at ``target_ids`` for ``mesh``, at
    the mesh's coincidence tolerance: the frozen kernel output and the ids
    checked here, held by ``mesh._trusted``."""
    control_ids, target_ids, controls, tol = _validated(
        mesh, control_ids, target_ids)
    matrix = _kernels.assemble_weight_matrix(mesh.nodes[target_ids], controls,
                                             config.p, tol)
    matrix.setflags(write=False)
    return _trusted(IdwOperator, matrix=matrix, target_ids=target_ids,
                    control_ids=control_ids)


def interpolate(mesh, displacement, target_ids, config=IdwConfig()):
    """IDW morph of ``displacement`` (over its own ids) at ``target_ids``.

    Equals ``deform(assemble(mesh, displacement.indices, target_ids,
    config), displacement)`` to rounding, with the same validation, but
    never builds the dense operator: the weights of one kernel chunk of
    target rows at a time go straight into the product, and each row is
    normalized once, after it.
    """
    control_ids, target_ids, controls, tol = _validated(
        mesh, displacement.indices, target_ids)
    out = _kernels.apply_weights(mesh.nodes[target_ids], controls,
                                 displacement.vectors, config.p, tol)
    out.setflags(write=False)  # frozen, so the field keeps it uncopied
    return DisplacementField(target_ids, out)


def deform(op, displacement):
    """Apply the operator: target displacements = matrix @ control ones.

    ``displacement`` must cover exactly ``op.control_ids``, in order.
    """
    if not (displacement.indices is op.control_ids
            or np.array_equal(displacement.indices, op.control_ids)):
        raise ValueError("displacement indices must equal op.control_ids in order")
    out = op.matrix @ displacement.vectors
    out.setflags(write=False)  # frozen, so the field keeps it uncopied
    return DisplacementField(op.target_ids, out)

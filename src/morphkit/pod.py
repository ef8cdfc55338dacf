"""Reduced-order acceleration of repeated morphs.

Offline: evaluate the morphing operator on training parameters, stack
the flattened interior displacements as snapshot columns (node-major,
components interleaved), extract an orthonormal basis Z by thin SVD, and
precompute one online map R. The mode count N is the smallest one whose
discarded spectral energy

    E(N) = sum_{n>N} sigma_n^2 / sum_n sigma_n^2

drops to the requested epsilon.

Online: for a new parameter, the reduced coordinates are beta = R d for
the control displacement d, expanded through Z. Two projections fix R:

* "weighted": least squares of the control displacement through the
  pseudo-inverse of the weight matrix, R = pinv(K Z) with K = pinv(W);
  taken from the SVD of K Z, so the condition number is never squared.
* "plain": R = Zt W, i.e. ordinary projection of the morphed field onto
  the basis.

Both reproduce any morph whose image already lies in span(Z).

K Z comes one of two ways. The snapshots are S = (W ⊗ I) F, F holding
the training control fields, so the basis is Z = S V_N Sigma_N^-1
(the method of snapshots, Sirovich 1987). When W has full column rank,
pinv(W) W = I and K Z = F V_N Sigma_N^-1: one small product over
factors the offline stage already holds. V_N is taken from the SVD
itself; the identity V_N Sigma_N^-1 = S^T Z Sigma_N^-2 would square
sigma_1 / sigma_N. :func:`build_pod_model` takes that route when W is
tall and its Gram matrix certifies the rank (:func:`_full_column_rank`).
Otherwise, and for any basis handed to :func:`build_online` on its own,
K Z is a minimum-norm least-squares solve against W.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSnapshotsError, IllPosedOnlineError
from .idw import deform  # noqa: F401 -- perfbench/tracing.py wraps pod.deform
from .laws import evaluate
from .mesh import DisplacementField, _node_ids, _own, _scalar

__all__ = [
    "SnapshotSet",
    "PodModel",
    "build_snapshots",
    "compute_pod",
    "pod_energy",
    "pseudo_inverse",
    "build_online",
    "online_solve",
    "build_pod_model",
    "write_model",
    "read_model",
]

RANK_TOL = 1e-12

# K Z skips the solve against W only if lambda_min(Wt W) exceeds this
# fraction of lambda_max; see _full_column_rank
GRAM_TOL = 1e-8

MODES = ("weighted", "plain")


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Training snapshots: one flattened displacement field per column.

    ``fields``, when given, holds the training control fields the
    snapshots were morphed from, one column each, rows laid out
    (control, component). Hand-built sets may omit it.
    """

    matrix: np.ndarray      # (n_targets * dim, n_train)
    params: tuple           # training mu values, one per column
    target_ids: np.ndarray
    dim: int
    fields: np.ndarray | None = None  # (n_controls * dim, n_train)

    def __post_init__(self):
        mat = _own(self.matrix, np.float64)
        ids = _node_ids(self.target_ids, "target_ids")
        if mat.ndim != 2 or mat.shape[0] != ids.size * self.dim:
            raise ValueError("snapshot rows must equal n_targets * dim")
        if mat.shape[1] != len(self.params):
            raise ValueError("one training parameter per column required")
        if self.fields is not None:
            fields = _own(self.fields, np.float64)
            if (fields.ndim != 2 or fields.shape[0] % self.dim
                    or fields.shape[1] != mat.shape[1]):
                raise ValueError("fields must be (n_controls * dim) x n_train")
            object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "target_ids", ids)
        object.__setattr__(self, "params", tuple(float(m) for m in self.params))


@dataclass(frozen=True, eq=False)
class PodModel:
    """Offline artifact: basis plus the precomputed online map."""

    basis: np.ndarray            # (n_targets * dim, n_modes)
    singular_values: np.ndarray  # all retained values, >= n_modes of them
    n_modes: int
    epsilon: float
    mode: str                    # "weighted" or "plain"
    online_map: np.ndarray       # (N, n_controls * dim): beta = R @ d
    control_ids: np.ndarray
    target_ids: np.ndarray
    dim: int
    train_params: tuple = ()
    selection_params: dict | None = None
    # max|basis|, taken once: online_solve's outputs are bounded by it
    # times sum|beta|
    _basis_max: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        # the basis is held column-major: Z @ beta runs over contiguous
        # columns; write_model still stores it row-major
        for name, order in (("basis", "F"), ("singular_values", "C"),
                            ("online_map", "C")):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True,
                           order=order)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("control_ids", "target_ids"):
            object.__setattr__(self, name, _node_ids(getattr(self, name), name))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        object.__setattr__(self, "epsilon", _scalar(self.epsilon, "epsilon"))
        object.__setattr__(self, "train_params", tuple(
            _scalar(m, "train_params entry") for m in self.train_params))
        if not isinstance(self.selection_params, (dict, type(None))):
            raise ValueError("selection_params must be a dict or None")
        if self.basis.shape != (self.target_ids.size * self.dim, self.n_modes):
            raise ValueError("basis shape inconsistent with targets and n_modes")
        if self.online_map.shape != (self.n_modes,
                                     self.control_ids.size * self.dim):
            raise ValueError("online_map must be N x (n_controls * dim)")
        # checked once here, so online_solve can trust them on every query
        for name in ("basis", "online_map"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if self.basis.size:
            object.__setattr__(self, "_basis_max",
                               float(np.abs(self.basis).max()))


def build_snapshots(op, law, mesh, train_params):
    """Morph every training parameter and stack the results as columns.

    The control fields sit side by side in one (n_controls, dim * n_train)
    matrix, component-major, so that one product with the operator morphs
    them all straight into the snapshot layout: column j is
    ``deform(op, field_j).as_vector()``. The set keeps that matrix as its
    ``fields``, viewed (n_controls * dim, n_train).
    """
    train_params = tuple(float(m) for m in train_params)
    if not train_params:
        raise ValueError("need at least one training parameter")
    dim, n_train = mesh.dim, len(train_params)
    fields = np.empty((op.n_controls * dim, n_train))
    stacked = fields.reshape(op.n_controls, dim, n_train)
    for j, mu in enumerate(train_params):
        stacked[:, :, j] = evaluate(law, mesh, mu).restrict(
            op.control_ids).vectors
    cols = np.empty((op.n_targets * dim, n_train))
    np.matmul(op.matrix, stacked.reshape(op.n_controls, dim * n_train),
              out=cols.reshape(op.n_targets, dim * n_train))
    # frozen, so the set keeps both uncopied
    cols.setflags(write=False)
    fields.setflags(write=False)
    return SnapshotSet(cols, train_params, op.target_ids, dim, fields)


def pod_energy(sigma, n):
    """Discarded-energy fraction E(n) for the spectrum ``sigma``."""
    sq = np.asarray(sigma, dtype=np.float64) ** 2
    total = sq.sum()
    if total == 0.0:
        raise ValueError("zero spectrum has no energy")
    return float(sq[n:].sum() / total)


def compute_pod(snapshots, epsilon, right_vectors=False):
    """Orthonormal basis from snapshots: returns (Z, sigma, N).

    sigma holds every singular value above RANK_TOL * sigma_1; Z keeps
    the first N columns, N being the smallest count with E(N) <= epsilon.
    With ``right_vectors`` the tuple ends with Vt_N, the first N right
    singular vectors as rows, so that Z = S Vt_N^T / sigma_N.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    U = snapshots.matrix
    if not U.any():
        raise DegenerateSnapshotsError("all snapshot columns are zero")
    Z, sigma, Vt = np.linalg.svd(U, full_matrices=False)
    keep = sigma >= RANK_TOL * sigma[0]
    sigma = sigma[keep]
    r = sigma.size
    n_modes = r
    for n in range(1, r + 1):
        if pod_energy(sigma, n) <= epsilon:
            n_modes = n
            break
    if right_vectors:
        return Z[:, :n_modes], sigma, n_modes, Vt[:n_modes]
    return Z[:, :n_modes], sigma, n_modes


def pseudo_inverse(matrix):
    """Moore-Penrose inverse; singular values below RANK_TOL * max are zeroed."""
    matrix = np.asarray(matrix, dtype=np.float64)
    U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((matrix.shape[1], matrix.shape[0]))
    inv = np.where(s >= RANK_TOL * s[0], s, np.inf)
    return (Vt.T / inv) @ U.T


def _full_column_rank(W):
    """Whether the weight matrix ``W`` is tall and certified to have full
    column rank, so that pinv(W) W = I.

    The test is lambda_min > GRAM_TOL * lambda_max on the eigenvalues of
    the Gram matrix Wt W, i.e. cond(W) < 1e4. Squaring the condition
    number is harmless here: it only picks the route to K Z and never
    enters the result. The threshold is conservative. ``eigvalsh`` errs
    by about n * eps * lambda_max (~5e-14 lambda_max at n = 237
    controls), and forming Wt W from nonnegative weights by at most
    n_targets * eps * lambda_max; both stay far below 1e-8 lambda_max.
    So a pass certifies cond(W) of at most about 1e4, eight orders of
    magnitude inside the rcond = RANK_TOL truncation of the solve, which
    then drops nothing. A bare Cholesky success would certify no margin.
    """
    n, m = W.shape
    if m == 0 or n < m:
        return False
    lam = np.linalg.eigvalsh(W.T @ W)  # ascending
    return bool(lam[-1] > 0.0 and lam[0] > GRAM_TOL * lam[-1])


def build_online(Z, sigma, op, mode="weighted", epsilon=0.0,
                 train_params=(), selection_params=None, kz=None):
    """Precompute the online map for basis ``Z`` over operator ``op``.

    In weighted mode ``kz`` may carry K Z = (pinv(W) ⊗ I_dim) Z, rows
    laid out (control, component), already formed; without it K Z is a
    least-squares solve against W.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if Z.shape[0] % op.n_targets:
        raise ValueError("basis rows are not a multiple of the target count")
    dim = Z.shape[0] // op.n_targets
    n_modes = Z.shape[1]
    if mode == "weighted":
        if kz is None:
            # K Z = (pinv(W) ⊗ I_dim) Z: a minimum-norm least-squares
            # solve against Z laid out (targets) x (components, modes)
            rhs = Z.reshape(op.n_targets, dim * n_modes)
            kz = np.linalg.lstsq(op.matrix, rhs, rcond=RANK_TOL)[0]
            kz = kz.reshape(op.n_controls * dim, n_modes)
        U, s, Vt = np.linalg.svd(kz, full_matrices=False)
        if s.size == 0 or s[0] == 0.0 or s[-1] < RANK_TOL * s[0]:
            raise IllPosedOnlineError(
                "pinv(W) @ Z is rank deficient; the weighted online system "
                "is not solvable", float(s[-1]) if s.size else 0.0)
        online_map = (Vt.T / s) @ U.T  # pinv(K Z)
    else:
        # Zt (W ⊗ I_dim), laid out (N) x (controls, components)
        Zr = Z.reshape(op.n_targets, dim, n_modes)
        online_map = np.tensordot(Zr, op.matrix, axes=([0], [0]))  # (dim, N, m)
        online_map = online_map.transpose(1, 2, 0).reshape(n_modes,
                                                           op.n_controls * dim)
    return PodModel(Z, sigma, n_modes, epsilon, mode, online_map,
                    op.control_ids, op.target_ids, dim, train_params,
                    selection_params)


def online_solve(model, d_controls):
    """Reduced coordinates of one control displacement, expanded through the basis.

    ``d_controls`` must cover exactly ``model.control_ids``, in order.
    Every output is at most max|basis| * sum|beta| in magnitude, so that
    bound, not a scan of the outputs, proves them finite.
    """
    ids = d_controls.indices
    if not (ids is model.control_ids or np.array_equal(ids, model.control_ids)):
        raise ValueError("displacement indices must equal model.control_ids in order")
    if d_controls.dim != model.dim:
        raise ValueError(f"field dim {d_controls.dim} != model dim {model.dim}")
    beta = model.online_map @ d_controls.as_vector()
    flat = model.basis @ beta
    flat.setflags(write=False)  # so the reshaped view cannot be made writeable
    # the model has checked its target ids for duplicates; the bound is
    # summed in Python floats, which overflow to inf without a warning
    return DisplacementField._built(
        model.target_ids, flat.reshape(model.target_ids.size, model.dim),
        model._basis_max * sum(map(abs, beta.tolist())))


def build_pod_model(op, law, mesh, train_params, epsilon, mode="weighted",
                    selection_params=None):
    """Full offline stage: snapshots, basis, online map.

    In weighted mode K Z comes from the snapshot SVD when W passes
    :func:`_full_column_rank`, else from :func:`build_online`'s solve.
    """
    snapshots = build_snapshots(op, law, mesh, train_params)
    Z, sigma, n_modes, Vt = compute_pod(snapshots, epsilon,
                                        right_vectors=True)
    kz = None
    if mode == "weighted" and _full_column_rank(op.matrix):
        kz = snapshots.fields @ (Vt.T / sigma[:n_modes])  # F V_N Sigma_N^-1
    del snapshots  # freed before the online map is built
    return build_online(Z, sigma, op, mode=mode, epsilon=epsilon,
                        train_params=train_params,
                        selection_params=selection_params, kz=kz)


# ---------------------------------------------------------------------------
# persistence
#
# one file, little-endian:
#   4s  magic "POD3"
#   u32 rows (n_targets * dim), u32 n_modes, u32 n_sigma,
#   u32 n_controls, u32 n_targets, u32 dim, u8 mode (0 weighted, 1 plain),
#   u32 trailer length in bytes
#   f64[] basis (rows x n_modes, row-major), f64[] sigma,
#   f64[] online_map (N x n_controls*dim)
#   i64[] target_ids, i64[] control_ids
#   UTF-8 JSON trailer: epsilon, train_params, selection_params
# "POD1" dumps (a normal-equation matrix plus a right-hand-side map) and
# "POD2" ones (no trailer, but a JSON sidecar) are not read.

_MAGIC = b"POD3"
_HEADER = struct.Struct("<4sIIIIIIBI")


def write_model(model, path):
    trailer = json.dumps({"epsilon": model.epsilon,
                          "train_params": list(model.train_params),
                          "selection_params": model.selection_params}).encode()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, model.basis.shape[0], model.n_modes,
                              model.singular_values.size,
                              model.control_ids.size, model.target_ids.size,
                              model.dim, MODES.index(model.mode),
                              len(trailer)))
        for arr in (model.basis, model.singular_values, model.online_map):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for arr in (model.target_ids, model.control_ids):
            fh.write(arr.astype("<i8").tobytes())
        fh.write(trailer)


def read_model(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: magic {raw[:4]!r} is not POD3; POD1 and "
                         "POD2 dumps of older versions are not read, re-run "
                         "pod-offline")
    (_, rows, n_modes, n_sigma, n_ctl, n_tgt, dim, mode_flag,
     n_trailer) = _HEADER.unpack_from(raw)
    if mode_flag >= len(MODES):
        raise ValueError(f"{path}: unknown mode flag {mode_flag}")
    counts = (rows * n_modes, n_sigma, n_modes * n_ctl * dim, n_tgt, n_ctl)
    expected = _HEADER.size + 8 * sum(counts) + n_trailer
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated model dump "
                         f"({len(raw)} bytes, expected {expected})")
    offset = _HEADER.size
    blocks = []
    for count, dtype in zip(counts, ("<f8",) * 3 + ("<i8",) * 2):
        blocks.append(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
        offset += 8 * count
    try:  # the trailer, like the arrays, comes from outside the program
        trailer = json.loads(raw[offset:])
        return PodModel(
            basis=blocks[0].reshape(rows, n_modes),
            singular_values=blocks[1],
            n_modes=n_modes,
            epsilon=trailer["epsilon"],
            mode=MODES[mode_flag],
            online_map=blocks[2].reshape(n_modes, n_ctl * dim),
            control_ids=blocks[4],
            target_ids=blocks[3],
            dim=dim,
            train_params=trailer["train_params"],
            selection_params=trailer["selection_params"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad model file: {exc!r}") from None

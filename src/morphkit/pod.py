"""Reduced-order acceleration of repeated morphs.

Offline, on plain arrays: :func:`build_snapshots` morphs every training
parameter through the operator W (targets x controls) and returns S, the
flattened interior displacements as columns (node-major, components
interleaved), and F, the training control fields they came from, so
that S = (W ⊗ I) F. :func:`compute_pod` takes the thin SVD
S = Z Sigma Vt and keeps N modes, N the smallest count whose discarded
spectral energy

    E(N) = sum_{n>N} sigma_n^2 / sum_n sigma_n^2

drops to the requested epsilon. One online map R is then precomputed.

Online: for a new parameter, the reduced coordinates are beta = R d for
the control displacement d, expanded through Z. Two projections fix R:

* "weighted": least squares of the control displacement through the
  pseudo-inverse of the weight matrix, R = pinv(K Z) with K = pinv(W);
  taken from the SVD of K Z, so the condition number is never squared.
* "plain": R = Zt W, i.e. ordinary projection of the morphed field onto
  the basis.

Both reproduce any morph whose image already lies in span(Z).

K Z comes one of two ways. The basis is Z = S V_N Sigma_N^-1 (the method
of snapshots, Sirovich 1987), so when W has full column rank,
pinv(W) W = I and K Z = F V_N Sigma_N^-1: one small product of F with
the right singular vectors the SVD of S already gave. The identity
V_N Sigma_N^-1 = S^T Z Sigma_N^-2 would square sigma_1 / sigma_N.
:func:`build_pod_model` takes that route when W is tall and its Gram
matrix certifies the rank (:func:`_full_column_rank`). Otherwise, and
for any basis handed to :func:`build_online` on its own, K Z is a
minimum-norm least-squares solve against W.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSnapshotsError, IllPosedOnlineError
from .idw import deform  # noqa: F401 -- perfbench/tracing.py wraps pod.deform
from .laws import evaluate
from .mesh import DisplacementField, _node_ids, _scalar

__all__ = [
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
        # columns; write_model still stores it row-major. Each copy starts
        # on a 64-byte boundary: where the allocator happened to place the
        # basis moved a tunnel-22 query's time by up to ~8 %
        for name, order in (("basis", "F"), ("singular_values", "C"),
                            ("online_map", "C")):
            src = np.asarray(getattr(self, name), dtype=np.float64)
            raw = np.empty(src.size + 8)
            arr = np.ndarray(src.shape, np.float64, raw,
                             -raw.ctypes.data % 64, order=order)
            arr[...] = src
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("control_ids", "target_ids"):
            object.__setattr__(self, name, _node_ids(getattr(self, name), name))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        object.__setattr__(self, "dim", _scalar(self.dim, "dim", True, 1))
        object.__setattr__(self, "n_modes", _scalar(self.n_modes, "n_modes",
                                                    True, 1))
        object.__setattr__(self, "epsilon", _scalar(self.epsilon, "epsilon",
                                                    minimum=0))
        object.__setattr__(self, "train_params", tuple(
            _scalar(m, "train_params entry") for m in self.train_params))
        if not isinstance(self.selection_params, (dict, type(None))):
            raise ValueError("selection_params must be a dict or None")
        if self.basis.shape != (self.target_ids.size * self.dim, self.n_modes):
            raise ValueError("basis shape inconsistent with targets and n_modes")
        if self.online_map.shape != (self.n_modes,
                                     self.control_ids.size * self.dim):
            raise ValueError("online_map must be N x (n_controls * dim)")
        if self.singular_values.ndim != 1:
            raise ValueError("singular_values must be one-dimensional")
        # checked once here, so online_solve can trust them on every query
        for name in ("basis", "online_map", "singular_values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if self.basis.size:
            object.__setattr__(self, "_basis_max",
                               float(np.abs(self.basis).max()))


def build_snapshots(op, law, mesh, train_params):
    """Morph every training parameter: returns (S, F), both read-only.

    S (n_targets * dim, n_train) holds one flattened interior
    displacement per column, column j being ``deform(op,
    field_j).as_vector()``; F (n_controls * dim, n_train) holds the
    training control fields, rows laid out (control, component). F is
    filled as one (n_controls, dim * n_train) matrix, component-major, so
    that one product with the operator morphs every field straight into
    the layout of S.
    """
    train_params = tuple(float(m) for m in train_params)
    if not train_params:
        raise ValueError("need at least one training parameter")
    dim, n_train = mesh.dim, len(train_params)
    F = np.empty((op.n_controls * dim, n_train))
    stacked = F.reshape(op.n_controls, dim, n_train)
    for j, mu in enumerate(train_params):
        stacked[:, :, j] = evaluate(law, mesh, mu).restrict(
            op.control_ids).vectors
    S = np.empty((op.n_targets * dim, n_train))
    np.matmul(op.matrix, stacked.reshape(op.n_controls, dim * n_train),
              out=S.reshape(op.n_targets, dim * n_train))
    S.setflags(write=False)
    F.setflags(write=False)
    return S, F


def pod_energy(sigma, n):
    """Discarded-energy fraction E(n) for the spectrum ``sigma``."""
    n = _scalar(n, "n", True, 0)
    sq = np.asarray(sigma, dtype=np.float64) ** 2
    total = sq.sum()
    if total == 0.0:
        raise ValueError("zero spectrum has no energy")
    return float(sq[n:].sum() / total)


def compute_pod(S, epsilon):
    """Orthonormal basis of the snapshot matrix ``S``: (Z, sigma, N, Vt_N).

    sigma holds every singular value above RANK_TOL * sigma_1; Z keeps
    the first N left singular vectors, N being the smallest count with
    E(N) <= epsilon, and Vt_N the first N right ones as rows, so that
    Z = S Vt_N^T / sigma_N.
    """
    epsilon = _scalar(epsilon, "epsilon", minimum=0)
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError(f"snapshot matrix must be 2-D, got shape {S.shape}")
    if not S.any():
        raise DegenerateSnapshotsError("all snapshot columns are zero")
    Z, sigma, Vt = np.linalg.svd(S, full_matrices=False)
    keep = sigma >= RANK_TOL * sigma[0]
    sigma = sigma[keep]
    r = sigma.size
    n_modes = r
    for n in range(1, r + 1):
        if pod_energy(sigma, n) <= epsilon:
            n_modes = n
            break
    return Z[:, :n_modes], sigma, n_modes, Vt[:n_modes]


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
    ``mode`` and ``epsilon`` are checked before the snapshots are built.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _scalar(epsilon, "epsilon", minimum=0)
    S, F = build_snapshots(op, law, mesh, train_params)
    Z, sigma, n_modes, Vt = compute_pod(S, epsilon)
    kz = None
    if mode == "weighted" and _full_column_rank(op.matrix):
        kz = F @ (Vt.T / sigma[:n_modes])  # F V_N Sigma_N^-1
    del S, F  # freed before the online map is built
    return build_online(Z, sigma, op, mode=mode, epsilon=epsilon,
                        train_params=train_params,
                        selection_params=selection_params, kz=kz)


# ---------------------------------------------------------------------------
# persistence
#
# one NumPy .npz archive under any file name: the _ARRAYS, the basis
# row-major, and meta, a JSON string of the _META fields; n_modes is the
# basis's column count. np.load checks every member's CRC-32. The binary
# dumps of older versions (magics "POD1" to "POD3") are not read.

_ARRAYS = ("basis", "singular_values", "online_map", "target_ids",
           "control_ids")
_META = ("mode", "dim", "epsilon", "train_params", "selection_params")


def write_model(model, path):
    with open(path, "wb") as fh:  # given a handle, np.savez adds no ".npz"
        np.savez(fh, **{name: np.ascontiguousarray(getattr(model, name))
                        for name in _ARRAYS},
                 meta=json.dumps({key: getattr(model, key) for key in _META}))


def _member(npz, name, limit):
    """The array ``name`` of the open archive ``npz``, read once its .npy
    header claims no more than ``limit`` bytes, the whole file's size: a
    header that claims more is refused before anything is allocated."""
    with npz.zip.open(name + ".npy") as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError(f"member {name!r} is not a version 1.0 .npy array")
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    if math.prod(shape) * dtype.itemsize > limit:
        raise ValueError(f"member {name!r} claims {dtype} of shape {shape}, "
                         f"more than the file's {limit} bytes")
    return npz[name]


def read_model(path):
    with open(path, "rb") as fh:  # a missing file raises OSError here
        magic = fh.read(4)
        if magic != b"PK\x03\x04":
            raise ValueError(f"{path}: starts {magic!r}, not a .npz archive; "
                             "the POD1 to POD3 dumps of older versions are "
                             "not read, re-run pod-offline")
        fh.seek(0)
        size = os.fstat(fh.fileno()).st_size
        try:  # every member, like its bytes, comes from outside the program
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: _member(npz, name, size)
                          for name in ("meta", *_ARRAYS)}
            meta = json.loads(arrays.pop("meta").item())
            return PodModel(**arrays, n_modes=arrays["basis"].shape[1],
                            **{key: meta[key] for key in _META})
        except zipfile.BadZipFile as exc:  # a cut file or a failed CRC-32
            raise ValueError(f"{path}: bad model file, truncated or "
                             f"damaged: {exc}") from None
        except (ValueError, KeyError, TypeError, IndexError, EOFError) as exc:
            raise ValueError(f"{path}: bad model file: {exc!r}") from None

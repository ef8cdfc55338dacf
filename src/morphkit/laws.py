"""Parametrized displacement laws evaluated at control nodes.

A law maps a scalar parameter mu in a declared domain to a displacement
field over a fixed set of control node ids. Three kinds exist:

* ``bend``: deflection mu * s^2 along the vertical axis, where s is the
  distance from the clamped side (the generators' "left" face, z = 0;
  for 2D meshes s is the x coordinate).
* ``rotation``: rigid rotation by mu degrees (right-handed) about a
  coordinate axis through a pivot.
* ``tabulated``: explicit fields at discrete mu values.

Nodes of ``clamp_groups`` are forced to zero displacement for every mu.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mesh import DisplacementField, _node_ids, _scalar

__all__ = [
    "DisplacementLaw",
    "bend_law",
    "rotation_law",
    "tabulated_law",
    "evaluate",
    "sample_domain",
    "read_tabulated",
]

KINDS = ("bend", "rotation", "tabulated")
_AXES = {"x": 0, "y": 1, "z": 2}


# compared and hashed by identity, like Mesh and DisplacementField: a
# field-wise == would compare arrays
@dataclass(frozen=True, eq=False)
class DisplacementLaw:
    kind: str
    control_ids: np.ndarray
    domain: tuple
    clamp_groups: tuple = ()
    axis: str = "z"                 # rotation only
    pivot: np.ndarray | None = None  # rotation only
    table: dict | None = None        # tabulated only: mu -> DisplacementField
    # _resolve's cache: (weakref to the last mesh met, (free, flat, rows))
    _resolved: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        object.__setattr__(self, "control_ids",
                           _node_ids(self.control_ids, "control_ids"))
        lo, hi = (_scalar(v, "domain bound") for v in self.domain)
        if not lo <= hi:
            raise ValueError(f"domain [{lo}, {hi}] is empty")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "clamp_groups", tuple(self.clamp_groups))
        if self.kind == "rotation":
            if self.axis not in _AXES:
                raise ValueError(f"axis must be one of {sorted(_AXES)}")
            pivot = np.array(np.atleast_1d(self.pivot), dtype=np.float64, copy=True)
            if not np.all(np.isfinite(pivot)):
                raise ValueError(f"pivot {pivot.tolist()} is not finite")
            pivot.setflags(write=False)
            object.__setattr__(self, "pivot", pivot)
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated law needs a non-empty table")
            object.__setattr__(self, "table",
                               {_scalar(k, "tabulated mu"): v
                                for k, v in self.table.items()})


def bend_law(control_ids, domain, clamp_groups=()):
    return DisplacementLaw("bend", control_ids, domain, clamp_groups)


def rotation_law(control_ids, domain, pivot, axis="z", clamp_groups=()):
    return DisplacementLaw("rotation", control_ids, domain, clamp_groups,
                           axis=axis, pivot=pivot)


def tabulated_law(control_ids, domain, table, clamp_groups=()):
    return DisplacementLaw("tabulated", control_ids, domain, clamp_groups,
                           table=table)


def _rotation_transpose(dim, axis, radians):
    """Rᵀ of the right-handed rotation by ``radians`` about ``axis``, as
    one C-contiguous array, so that ``rows @ Rᵀ`` rotates row vectors.
    A 2D rotation is about "z"; :func:`_resolve` checks that."""
    c, s = np.cos(radians), np.sin(radians)
    if dim == 2:
        return np.array([[c, s], [-s, c]])
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    if axis == "y":
        return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _resolve(law, mesh):
    """``law`` against ``mesh``, independent of mu: (free, flat, rows, r).

    ``free`` holds the positions in ``law.control_ids`` outside every
    clamp group, or is None when the law has no clamp groups (every
    position is free). ``flat`` holds the same free entries as positions
    in the node-major flattening of a (n_controls, dim) field, or is None
    with ``free``. ``rows`` holds, for the free ids in that order,
    the squared span coordinate (bend) or the coordinates relative to
    the pivot (rotation); it is None for a tabulated law. ``r`` is
    max|rows| as a Python float, 0.0 without rows; NaN or inf rows make
    it NaN or inf.

    Both the law and the mesh are immutable, so the answer is cached on
    the law for the last mesh it met, keyed by that mesh's identity
    through a weak reference. A check that fails caches nothing.
    """
    cached = law._resolved
    if cached is not None and cached[0]() is mesh:
        return cached[1]
    ids = _node_ids(law.control_ids, "law control ids", mesh.node_count)
    free = flat = None
    if law.clamp_groups:
        clamped = np.zeros(mesh.node_count, dtype=bool)
        for g in law.clamp_groups:
            clamped[mesh.group(g)] = True
        free = np.flatnonzero(~clamped[ids])
        flat = (free[:, None] * mesh.dim + np.arange(mesh.dim)).ravel()
    free_ids = ids if free is None else ids[free]
    if law.kind == "bend":
        span_axis = 2 if mesh.dim == 3 else 0
        rows = mesh.nodes[free_ids, span_axis] ** 2
    elif law.kind == "rotation":
        if law.pivot.size != mesh.dim:
            raise ValueError(f"pivot has dim {law.pivot.size}, mesh has {mesh.dim}")
        if mesh.dim == 2 and law.axis != "z":
            raise ValueError("2D rotation must be about 'z'")
        # take is the fast form of the gather, with bitwise the same rows
        rows = np.take(mesh.nodes, free_ids, axis=0) - law.pivot
    else:
        rows = None
    r = float(np.abs(rows).max()) if rows is not None and rows.size else 0.0
    resolved = (free, flat, rows, r)
    object.__setattr__(law, "_resolved", (weakref.ref(mesh), resolved))
    return resolved


def evaluate(law, mesh, mu):
    """Displacement field of ``law`` at parameter ``mu`` over its control ids.

    Only the free rows are computed; clamped rows are zero. ``mu`` other
    than a float goes through ``mesh._scalar``, so None, a bool or a
    string raises ValueError. Raises DomainError when mu falls outside the
    declared domain and KeyError when a tabulated law has no entry for mu.
    """
    if type(mu) is not float:  # a float, the usual case, skips the gate
        mu = _scalar(mu, "mu")
    lo, hi = law.domain
    if not lo <= mu <= hi:
        raise DomainError(f"mu={mu} outside domain [{lo}, {hi}]")
    free, flat, rows, r = _resolve(law, mesh)
    ids = law.control_ids

    # bound on every |entry|: |mu| * max|rows| for the bend, and for the
    # rotation dim * max|rows| for rows @ Rᵀ (|Rᵀ entries| <= 1) plus
    # max|rows| for the subtraction; table rows are finite fields' rows
    if law.kind == "bend":
        moved = np.zeros((rows.size, mesh.dim))
        moved[:, 1] = mu * rows
        bound = abs(mu) * r
    elif law.kind == "rotation":
        # a row's result does not depend on the others
        moved = rows @ _rotation_transpose(mesh.dim, law.axis,
                                           np.deg2rad(mu)) - rows
        bound = (mesh.dim + 1) * r
    else:
        try:
            entry = law.table[mu]
        except KeyError:
            raise KeyError(f"tabulated law has no entry for mu={mu}") from None
        moved = entry.restrict(ids).vectors
        if moved.shape[1] != mesh.dim:
            raise ValueError(f"tabulated entry for mu={mu} has dim "
                             f"{moved.shape[1]}, mesh has {mesh.dim}")
        if free is not None:
            moved = moved[free]
        bound = 0.0

    if free is None:
        vec = moved
    else:
        vec = np.zeros((ids.size, mesh.dim))
        vec.reshape(-1)[flat] = moved.ravel()
    return DisplacementField._built(ids, vec, bound)


def sample_domain(domain, n, seed):
    """n uniform draws from [lo, hi]; a point domain repeats its value.
    ``seed`` must be an integer >= 0."""
    lo, hi = (_scalar(v, "domain bound") for v in domain)
    if not lo <= hi:
        raise ValueError(f"domain [{lo}, {hi}] is empty")
    return np.random.default_rng(_scalar(seed, "seed", True, 0)).uniform(
        lo, hi, size=_scalar(n, "sample count", True, 1))


def read_tabulated(path, control_ids, clamp_groups=()):
    """Tabulated law from JSON: {"domain": [lo, hi], "entries":
    [{"mu": m, "indices": [...], "vectors": [[...]]}, ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    table = {_scalar(e["mu"], "tabulated mu"):
             DisplacementField(e["indices"], e["vectors"])
             for e in doc["entries"]}
    return tabulated_law(control_ids, tuple(doc["domain"]), table, clamp_groups)

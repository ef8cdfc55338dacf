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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mesh import DisplacementField

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


@dataclass(frozen=True)
class DisplacementLaw:
    kind: str
    control_ids: np.ndarray
    domain: tuple
    clamp_groups: tuple = ()
    axis: str = "z"                 # rotation only
    pivot: np.ndarray | None = None  # rotation only
    table: dict | None = None        # tabulated only: mu -> DisplacementField

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        ids = np.array(np.atleast_1d(self.control_ids), dtype=np.int64, copy=True)
        ids.setflags(write=False)
        object.__setattr__(self, "control_ids", ids)
        lo, hi = (float(v) for v in self.domain)
        if not lo <= hi:
            raise ValueError(f"domain [{lo}, {hi}] is empty")
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "clamp_groups", tuple(self.clamp_groups))
        if self.kind == "rotation":
            if self.axis not in _AXES:
                raise ValueError(f"axis must be one of {sorted(_AXES)}")
            pivot = np.array(np.atleast_1d(self.pivot), dtype=np.float64, copy=True)
            pivot.setflags(write=False)
            object.__setattr__(self, "pivot", pivot)
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated law needs a non-empty table")
            object.__setattr__(self, "table",
                               {float(k): v for k, v in self.table.items()})


def bend_law(control_ids, domain, clamp_groups=()):
    return DisplacementLaw("bend", control_ids, domain, clamp_groups)


def rotation_law(control_ids, domain, pivot, axis="z", clamp_groups=()):
    return DisplacementLaw("rotation", control_ids, domain, clamp_groups,
                           axis=axis, pivot=pivot)


def tabulated_law(control_ids, domain, table, clamp_groups=()):
    return DisplacementLaw("tabulated", control_ids, domain, clamp_groups,
                           table=table)


def _rotation_matrix(dim, axis, radians):
    c, s = np.cos(radians), np.sin(radians)
    if dim == 2:
        if axis != "z":
            raise ValueError("2D rotation must be about 'z'")
        return np.array([[c, -s], [s, c]])
    k = _AXES[axis]
    rot = np.eye(3)
    i, j = (k + 1) % 3, (k + 2) % 3
    rot[i, i] = c
    rot[j, j] = c
    rot[j, i] = s
    rot[i, j] = -s
    return rot


def evaluate(law, mesh, mu):
    """Displacement field of ``law`` at parameter ``mu`` over its control ids.

    Raises DomainError when mu falls outside the declared domain and
    KeyError when a tabulated law has no entry for mu.
    """
    mu = float(mu)
    lo, hi = law.domain
    if not lo <= mu <= hi:
        raise DomainError(f"mu={mu} outside domain [{lo}, {hi}]")
    ids = law.control_ids
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.node_count):
        raise ValueError("law control ids out of range for this mesh")

    if law.kind == "bend":
        span_axis = 2 if mesh.dim == 3 else 0
        s = mesh.nodes[ids, span_axis]
        vec = np.zeros((ids.size, mesh.dim))
        vec[:, 1] = mu * s**2
    elif law.kind == "rotation":
        if law.pivot.size != mesh.dim:
            raise ValueError(f"pivot has dim {law.pivot.size}, mesh has {mesh.dim}")
        rot = _rotation_matrix(mesh.dim, law.axis, np.deg2rad(mu))
        # take and a contiguous rot.T are the fast forms of the gather and
        # the product, with bitwise the same results
        rel = np.take(mesh.nodes, ids, axis=0) - law.pivot
        vec = rel @ np.ascontiguousarray(rot.T) - rel
    else:
        try:
            entry = law.table[mu]
        except KeyError:
            raise KeyError(f"tabulated law has no entry for mu={mu}") from None
        entry = entry.restrict(ids)
        vec = entry.vectors.copy()

    if law.clamp_groups:
        clamped = np.zeros(mesh.node_count, dtype=bool)
        for g in law.clamp_groups:
            clamped[mesh.group(g)] = True
        # clamp groups usually hold most of the ids: copying the few free
        # rows into zeros is cheaper than zeroing the many clamped ones
        free = np.flatnonzero(~clamped[ids])
        out = np.zeros_like(vec)
        out[free] = vec[free]
        vec = out
    return DisplacementField(ids, vec)


def sample_domain(domain, n, seed):
    """n uniform draws from [lo, hi]; a point domain repeats its value."""
    lo, hi = (float(v) for v in domain)
    if not lo <= hi:
        raise ValueError(f"domain [{lo}, {hi}] is empty")
    if n < 1:
        raise ValueError("need at least one sample")
    return np.random.default_rng(seed).uniform(lo, hi, size=int(n))


def read_tabulated(path, control_ids, clamp_groups=()):
    """Tabulated law from JSON: {"domain": [lo, hi], "entries":
    [{"mu": m, "indices": [...], "vectors": [[...]]}, ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    table = {float(e["mu"]): DisplacementField(e["indices"], e["vectors"])
             for e in doc["entries"]}
    return tabulated_law(control_ids, tuple(doc["domain"]), table, clamp_groups)

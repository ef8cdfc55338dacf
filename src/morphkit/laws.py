"""Parametrized displacement laws evaluated at control nodes.

A law maps a scalar parameter mu in a declared domain to a displacement
field over a fixed set of control node ids. Three kinds exist:

* ``bend``: deflection mu * s^2 along the vertical axis, where s is the
  distance from the clamped side (the generators' "left" face, z = 0;
  for 2D meshes s is the x coordinate).
* ``rotation``: rigid rotation by mu degrees (right-handed) about a
  coordinate axis through a pivot, accurate to rounding also as mu → 0.
* ``tabulated``: explicit fields at discrete mu values.

Nodes of ``clamp_groups`` are forced to zero displacement for every mu.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TableEntryError
from .mesh import (DisplacementField, _group_names, _node_ids, _numbers,
                   _own, _read_json, _scalar)

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


def _domain(domain):
    """(lo, hi) of ``domain`` as floats; one that is not a pair, or is
    empty, raises ValueError."""
    try:
        lo, hi = domain
    except (TypeError, ValueError):
        raise ValueError(f"domain must be [lo, hi], got {domain!r}") from None
    lo, hi = _scalar(lo, "domain bound"), _scalar(hi, "domain bound")
    if not lo <= hi:
        raise ValueError(f"domain [{lo}, {hi}] is empty")
    return lo, hi


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
    # _resolve's cache: (weakref to the last mesh met, its answer)
    _resolved: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        object.__setattr__(self, "control_ids",
                           _node_ids(self.control_ids, "control_ids"))
        object.__setattr__(self, "domain", _domain(self.domain))
        object.__setattr__(self, "clamp_groups",
                           _group_names(self.clamp_groups, "clamp_groups"))
        if self.kind == "rotation":
            if self.axis not in _AXES:
                raise ValueError(f"axis must be one of {sorted(_AXES)}")
            pivot = _numbers(self.pivot)
            if pivot is None or pivot.ndim != 1:
                raise ValueError(f"pivot must list numbers, got {self.pivot!r}")
            pivot = _own(pivot, np.float64)
            if not np.all(np.isfinite(pivot)):
                raise ValueError(f"pivot {pivot.tolist()} is not finite")
            object.__setattr__(self, "pivot", pivot)
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated law needs a non-empty table")
            table = {_scalar(k, "tabulated mu"): v for k, v in self.table.items()}
            for mu in table:  # an entry's fit to a mesh is _resolve's
                if not self.domain[0] <= mu <= self.domain[1]:
                    raise ValueError(f"entry at mu={mu} outside domain "
                                     f"{list(self.domain)}")
            object.__setattr__(self, "table", table)


def bend_law(control_ids, domain, clamp_groups=()):
    return DisplacementLaw("bend", control_ids, domain, clamp_groups)


def rotation_law(control_ids, domain, pivot, axis="z", clamp_groups=()):
    return DisplacementLaw("rotation", control_ids, domain, clamp_groups,
                           axis=axis, pivot=pivot)


def tabulated_law(control_ids, domain, table, clamp_groups=()):
    return DisplacementLaw("tabulated", control_ids, domain, clamp_groups,
                           table=table)


def _step(dim, axis, radians):
    """S = Rᵀ − I of the right-handed rotation by ``radians`` about ``axis``
    (2D is the "z" case), so that ``rows @ S`` moves row vectors. cos θ − 1
    is −2 sin²(θ/2), which does not cancel as θ → 0."""
    i, j = (_AXES[axis] + 1) % 3, (_AXES[axis] + 2) % 3
    half, sin = math.sin(0.5 * radians), math.sin(radians)
    step = np.zeros((dim, dim))
    step[i, i] = step[j, j] = -2.0 * half * half
    step[i, j], step[j, i] = sin, -sin
    return step


def _resolve(law, mesh):
    """``law`` against ``mesh``, independent of mu: (flat, rows, r).

    The free ids are the control ids outside every clamp group, in the
    law's order; ``flat`` their entries' positions in the node-major
    flattening of a (n_controls, dim) field, as an index array;
    ``rows`` their squared span coordinate (bend), coordinates relative to
    the pivot (rotation) or per mu the entry's rows at them (tabulated:
    all widths, then all covers, a misfit raising TableEntryError); ``r``
    max|rows| as a Python float, 0.0 without rows or for a table, NaN or
    inf with NaN or inf rows.

    Both the law and the mesh are immutable, so the answer is cached on
    the law for the last mesh it met, keyed by that mesh's identity
    through a weak reference. A check that fails caches nothing.
    """
    cached = law._resolved
    if cached is not None and cached[0]() is mesh:
        return cached[1]
    ids = _node_ids(law.control_ids, "law control ids", mesh.node_count)
    clamped = np.zeros(mesh.node_count, dtype=bool)
    for g in law.clamp_groups:
        clamped[mesh.group(g)] = True
    free = np.flatnonzero(~clamped[ids])
    flat = (free[:, None] * mesh.dim + np.arange(mesh.dim)).ravel()
    free_ids = ids[free]
    free_ids.setflags(write=False)
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
    else:  # every entry, once per mesh: first the widths, then the ids
        for mu, entry in law.table.items():
            if entry.dim != mesh.dim:
                raise TableEntryError(f"entry at mu={mu}: vectors have width "
                                      f"{entry.dim}, the mesh has dim {mesh.dim}")
        rows = {}
        for mu, entry in law.table.items():
            try:
                rows[mu] = entry.restrict(free_ids).vectors
            except ValueError as exc:
                raise TableEntryError(f"entry at mu={mu}: {exc}") from None
    r = float(np.abs(rows).max()) if law.kind != "tabulated" and rows.size else 0.0
    resolved = (flat, rows, r)
    object.__setattr__(law, "_resolved", (weakref.ref(mesh), resolved))
    return resolved


def evaluate(law, mesh, mu):
    """Displacement field of ``law`` at parameter ``mu`` over its control ids.

    Only the free rows are computed (a table's are looked up, checked by
    :func:`_resolve`); clamped rows are zero. ``mu`` other than a float goes
    through ``mesh._scalar``, so None, a bool or a string raises
    ValueError. Raises DomainError when mu falls outside the
    declared domain and KeyError when a tabulated law has no entry for mu.
    """
    if type(mu) is not float:  # a float, the usual case, skips the gate
        mu = _scalar(mu, "mu")
    lo, hi = law.domain
    if not lo <= mu <= hi:
        raise DomainError(f"mu={mu} outside domain [{lo}, {hi}]")
    flat, rows, r = _resolve(law, mesh)

    # bound on every |entry|: |mu| * max|rows| for the bend; for the
    # rotation (dim + 1) * max|rows|, as a column of S holds |cos θ − 1|
    # <= 2 and |sin θ| <= 1; table rows are copied from finite fields
    if law.kind == "bend":
        moved = np.zeros((rows.size, mesh.dim))
        moved[:, 1] = mu * rows
        bound = abs(mu) * r
    elif law.kind == "rotation":
        # a row's result does not depend on the others
        moved = rows @ _step(mesh.dim, law.axis, math.radians(mu))
        bound = (mesh.dim + 1) * r
    elif mu not in rows:
        raise KeyError(f"tabulated law has no entry for mu={mu}")
    else:
        moved, bound = rows[mu], 0.0

    ids = law.control_ids
    vec = np.zeros((ids.size, mesh.dim))
    vec.reshape(-1)[flat] = moved.ravel()
    return DisplacementField._built(ids, vec, bound)


def sample_domain(domain, n, seed):
    """n uniform draws from [lo, hi]; a point domain repeats its value.
    ``seed`` must be an integer >= 0."""
    lo, hi = _domain(domain)
    return np.random.default_rng(_scalar(seed, "seed", True, 0)).uniform(
        lo, hi, size=_scalar(n, "sample count", True, 1))


def read_tabulated(path, control_ids, clamp_groups=()):
    """Tabulated law from the JSON file ``path``, over the file's domain:
    {"domain": [lo, hi], "entries": [{"mu": m, "indices": [...],
    "vectors": [[...]]}, ...]}. A file of another shape, or one the law
    refuses (no entries, a mu outside the domain), or one that repeats a mu,
    raises ValueError naming the file, the entry and the key or the mu."""
    doc = _read_json(path, ("domain", "entries"))
    control_ids = _node_ids(control_ids, "control_ids")  # not the file's fault
    clamp_groups = _group_names(clamp_groups, "clamp_groups")
    where, table = "the document", {}
    try:  # only what comes from the file
        for i, entry in enumerate(doc["entries"]):
            where = f"entries[{i}]"
            mu = _scalar(entry["mu"], "tabulated mu")
            if mu in table:
                raise ValueError(f"repeats mu {mu!r}")
            table[mu] = DisplacementField(entry["indices"], entry["vectors"])
        where = "the document"
        return tabulated_law(control_ids, doc["domain"], table, clamp_groups)
    except KeyError as exc:
        raise ValueError(f"{path}: {where} has no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None

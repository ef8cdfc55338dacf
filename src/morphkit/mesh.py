"""Simplicial meshes: data model, synthetic generators, quality, and I/O.

A mesh is a flat array of node coordinates plus simplex connectivity
(triangles in 2D, tetrahedra in 3D), with the node set partitioned into
boundary and interior index lists and named node groups living on the
boundary. Instances are immutable; deformation produces a new mesh.

Two generators build the synthetic geometries used throughout, both on
one Kuhn-split lattice of hexahedral cells (six tetrahedra per cell,
outer faces claimed in one order):

* :func:`generate_box_wing` - a structured box, the stand-in for a
  clamped wing (span along z, "left" face at z = 0 is the clamp).
* :func:`generate_tunnel` - a box with a rectangular obstacle carved out
  of its middle, the stand-in for an enclosed body in a channel.

File formats: a native JSON schema (read/write, round-trips exactly) and
legacy ASCII VTK (write only, for external viewers).
"""

from __future__ import annotations

import functools
import itertools
import json
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError, MeshFormatError

__all__ = [
    "Mesh",
    "DisplacementField",
    "generate_box_wing",
    "generate_tunnel",
    "element_quality",
    "mesh_quality",
    "apply_deformation",
    "coincident_pair",
    "merge_fields",
    "read_mesh",
    "write_mesh",
]

# node-coincidence tolerance, as a fraction of the bounding-box diagonal
COINCIDENCE_FACTOR = 1e-12

_EPS = np.finfo(np.float64).eps


def coincident_pair(points, tol):
    """Lowest index pair (i, j), i < j, of ``points`` at most ``tol`` apart.

    Returns None when every pair is farther apart. The points are sorted
    by their projection on a fixed generic unit direction; two points
    within ``tol`` of each other have projections within ``tol`` plus a
    rounding slack, so only neighbours inside that window in sorted order
    have their Euclidean distance checked. The answer does not depend on
    the sort. On typical point sets the sweep is O(n log n); points spread
    over a plane orthogonal to the direction make it O(n²).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        return None
    pts = pts.reshape(n, -1)
    dim = pts.shape[1]
    direction = np.sqrt(np.arange(1.0, dim + 1.0))
    direction /= np.sqrt(direction @ direction)
    proj = pts @ direction
    order = np.argsort(proj)
    proj = proj[order]
    # rounding in the projections, their differences and the distances
    slack = 8 * (dim + 1) * _EPS * (float(np.abs(pts).sum(axis=1).max()) + tol)
    reach = tol + slack
    best = None
    for gap in range(1, n):
        near = np.flatnonzero(proj[gap:] - proj[:-gap] <= reach)
        if near.size == 0:
            break  # every wider gap spans one of these differences
        a, b = order[near], order[near + gap]
        diff = pts[a] - pts[b]
        hit = np.sqrt(np.add.reduce(diff * diff, axis=1)) <= tol
        if hit.any():
            lo, hi = np.minimum(a[hit], b[hit]), np.maximum(a[hit], b[hit])
            pair = min(zip(lo.tolist(), hi.tolist()))
            best = pair if best is None else min(best, pair)
    return best


# np.unique would import numpy.ma (~16 ms) into every cold command, so
# the two helpers below sort instead

def has_duplicates(ids):
    """Whether the 1-D integer array ``ids`` repeats a value.

    Strictly increasing ids, the usual case, are unique: an O(n) test.
    Others take the sort-based one.
    """
    if (ids[1:] > ids[:-1]).all():
        return False
    ids = np.sort(ids)
    return bool((ids[1:] == ids[:-1]).any())


def sorted_unique(ids):
    """The distinct values of the 1-D array ``ids``, sorted, as
    ``np.unique`` gives them."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _own(a, dtype):
    """``a`` as a read-only array of ``dtype`` that no other reference can
    write: a read-only array of that dtype which owns its data is kept as
    is, anything else is copied and frozen."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _holds_bool(seq, arr):
    """Whether the (nested) list or tuple ``seq``, which NumPy read as the
    numeric array ``arr``, holds a bool. Only its entries that read as 0 or
    1 can be one, so only those are looked at."""
    for index in np.argwhere((arr == 0) | (arr == 1)):
        item = seq
        for i in index:
            item = item[i]
        if isinstance(item, (bool, np.bool_)):
            return True
    return False


def _int_ids(ids, what="indices"):
    """``ids``, at least 1-D and of any rank, through :func:`_own` as int64.

    A boolean mask, a float that is not an integer or a non-numeric value
    raises ValueError naming ``what`` instead of being cast silently, and so
    does a bool inside a list or tuple, which NumPy would read as 0 or 1.
    Arrays skip that look: a numeric array cannot hold a bool.
    """
    arr = np.atleast_1d(ids)
    if arr.dtype.kind == "b":
        raise ValueError(f"{what} must be integer node ids, not a boolean mask")
    if arr.dtype.kind == "f":
        bad = ~((np.trunc(arr) == arr) & (np.abs(arr) < 2.0**63))
        if bad.any():
            raise ValueError(
                f"{what} must be integers, got {arr[bad][:5].tolist()}")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if isinstance(ids, (list, tuple)) and _holds_bool(ids, arr):
        raise ValueError(f"{what} must be integers, not booleans")
    return _own(arr, np.int64)


def _node_ids(ids, what, count=None):
    """``ids`` through :func:`_int_ids`, checked one-dimensional, without
    repeats and, when ``count`` is given, inside [0, count); ValueError
    names ``what``. Strictly increasing ids, the usual case, cost O(n)."""
    ids = _int_ids(ids, what)
    if ids.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if has_duplicates(ids):
        raise ValueError(f"{what} contain duplicates")
    if count is not None and ids.size and (ids.min() < 0 or ids.max() >= count):
        bad = ids[(ids < 0) | (ids >= count)][:5].tolist()
        raise ValueError(f"{what} out of range [0, {count}): {bad}")
    return ids


def _sorted_ids(ids, what):
    """``ids`` through :func:`_int_ids`, checked one-dimensional and sorted
    only when it is not (a frozen, owned, sorted int64 array is kept);
    repeats are left to :meth:`Mesh.validate`."""
    ids = _int_ids(ids, what)
    if ids.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if (ids[1:] < ids[:-1]).any():
        ids = np.sort(ids)
        ids.setflags(write=False)
    return ids


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Per-node displacement vectors on a subset of mesh nodes.

    Both arrays are read-only. An input that already is a read-only
    array of the right dtype (int64 ids, float64 vectors) and owns its
    data is kept without a copy; any other input is copied, so a caller
    writing to its own array later does not change the field.

    Attributes:
        indices: unique node ids, shape (k,).
        vectors: displacement per id, shape (k, dim), finite.
    """

    indices: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        idx = _node_ids(self.indices, "indices")
        vec = _own(self.vectors, np.float64)
        if vec.ndim != 2 or vec.shape[0] != idx.shape[0]:
            raise ValueError(
                f"vectors shape {vec.shape} does not match {idx.shape[0]} indices")
        _check_finite(vec)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "vectors", vec)

    @classmethod
    def _built(cls, indices, vectors, scan=None):
        """Field over arrays a producer has just built, neither copied.

        ``indices`` are read-only, one-dimensional and unique, which the
        producer has established at their source; ``vectors`` (k, dim)
        are fresh and nothing else writes them. Only the finiteness scan
        runs here, over ``scan`` when the producer passes the part of
        ``vectors`` that can hold non-finite values, else over all of them.
        """
        _check_finite(vectors if scan is None else scan)
        vectors.setflags(write=False)
        built = object.__new__(cls)
        object.__setattr__(built, "indices", indices)
        object.__setattr__(built, "vectors", vectors)
        return built

    @property
    def dim(self):
        return self.vectors.shape[1]

    @classmethod
    def zero(cls, indices, dim):
        return cls(indices, np.zeros((np.size(indices), dim)))

    def restrict(self, ids):
        """Rows of this field at ``ids`` (all must be present), in that order.

        The last restriction validated against read-only ``indices`` that
        own their data is kept as a plan: a call on a field holding that
        same ``indices`` object, with an int64 array equal to the ids
        validated then, gathers the planned rows without validating again.
        """
        global _restrict_plan
        plan = _restrict_plan
        idx = self.indices
        if (plan is not None and plan[0]() is idx
                and type(ids) is np.ndarray and ids.dtype == np.int64
                and np.array_equal(plan[1], ids)):
            return DisplacementField._built(
                plan[1], self.vectors.take(plan[2], axis=0))
        ids = _node_ids(ids, "ids")
        # strictly increasing ids (the usual case) need no sort permutation
        order = (None if (idx[1:] > idx[:-1]).all()
                 else np.argsort(idx, kind="stable"))
        pos = np.searchsorted(idx, ids, sorter=order)
        # an id above every index gets pos == idx.size; clipping points it
        # at a smaller index, so the comparison below reports it missing
        rows = pos if order is None else order.take(pos, mode="clip")
        found = (idx.take(rows, mode="clip") == ids if idx.size
                 else np.zeros(ids.size, dtype=bool))
        if not found.all():
            raise ValueError(f"ids not covered by field: {ids[~found][:5].tolist()}")
        if idx.flags.owndata and not idx.flags.writeable:
            rows.setflags(write=False)
            _restrict_plan = (weakref.ref(idx), ids, rows)
        # take is the fast form of the row gather, with bitwise the same rows
        return DisplacementField._built(ids, self.vectors.take(rows, axis=0))

    def as_vector(self):
        """Node-major flattening with the dim components interleaved.

        A read-only view of ``vectors`` when they are C-contiguous, as
        every field morphkit builds is; a copy otherwise.
        """
        return self.vectors.ravel()

    def max_magnitude(self):
        if self.indices.size == 0:
            return 0.0
        return float(np.linalg.norm(self.vectors, axis=1).max())


# DisplacementField.restrict's plan: (weak reference to the source
# field's indices, the validated ids, their rows in the source), or None
_restrict_plan = None


def _check_finite(vectors):
    if not np.isfinite(vectors).all():
        raise ValueError("vectors contain non-finite entries")


def merge_fields(*fields):
    """Concatenate displacement fields over disjoint index sets."""
    if not fields:
        raise ValueError("nothing to merge")
    dims = {f.dim for f in fields}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions {sorted(dims)}")
    idx = np.concatenate([f.indices for f in fields])
    if has_duplicates(idx):
        raise ValueError("fields overlap")
    idx.setflags(write=False)
    return DisplacementField._built(idx, np.vstack([f.vectors for f in fields]))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable simplicial mesh.

    Attributes:
        dim: spatial dimension, 2 or 3.
        nodes: coordinates, shape (n_nodes, dim).
        elements: simplex connectivity, shape (n_elements, dim + 1).
        boundary_ids: sorted node ids on the boundary.
        interior_ids: sorted node ids in the interior.
        groups: named node subsets; every member is a boundary node.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_ids: np.ndarray
    interior_ids: np.ndarray
    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = _own(np.atleast_2d(self.nodes), np.float64)
        # a frozen owned array, as every Mesh holds, is shared: deformed
        # meshes keep their parent's connectivity
        elements = _int_ids(self.elements, "elements")
        if elements.size == 0:
            elements = _own(elements.reshape(0, self.dim + 1), np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        # so are sorted id arrays: with_nodes copies no ids
        for name in ("boundary_ids", "interior_ids"):
            object.__setattr__(self, name, _sorted_ids(getattr(self, name), name))
        object.__setattr__(self, "groups",
                           {str(k): _sorted_ids(v, f"group {k!r}")
                            for k, v in dict(self.groups).items()})

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def element_count(self):
        return self.elements.shape[0]

    # nodes are read-only and the instance is frozen, so both are computed
    # once
    @functools.cached_property
    def bbox_diagonal(self):
        if self.node_count == 0:
            return 0.0
        return float(np.linalg.norm(self.nodes.max(axis=0) - self.nodes.min(axis=0)))

    @functools.cached_property
    def coincidence_tolerance(self):
        return COINCIDENCE_FACTOR * self.bbox_diagonal

    @functools.cached_property
    def _memo(self):
        # selection.py keeps small candidate sets' distances here, within
        # its own budgets
        return {}

    def group(self, name):
        try:
            return self.groups[name]
        except KeyError:
            raise ValueError(f"unknown group {name!r}; have {sorted(self.groups)}") from None

    def validate(self):
        """Check structural invariants; returns self so calls chain.

        Raises ValueError on: bad dimension, malformed arrays, a node id
        out of range, boundary/interior not partitioning the node set, a
        group node off the boundary, or two nodes closer than the
        coincidence tolerance.
        """
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise ValueError(f"nodes must have shape (n, {self.dim})")
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("node coordinates contain non-finite values")
        n = self.node_count
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError(f"elements must have shape (e, {self.dim + 1})")
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= n):
            raise ValueError("element refers to a node id out of range")
        merged = np.concatenate([self.boundary_ids, self.interior_ids])
        if has_duplicates(merged):
            raise ValueError("boundary and interior ids overlap")
        if not np.array_equal(np.sort(merged), np.arange(n)):
            raise ValueError("boundary and interior ids do not partition the node set")
        boundary = set(self.boundary_ids.tolist())
        for name, ids in self.groups.items():
            if ids.size and not set(ids.tolist()) <= boundary:
                raise ValueError(f"group {name!r} contains non-boundary nodes")
        tol = self.coincidence_tolerance
        if n > 1:
            if tol == 0.0:
                raise ValueError("all nodes coincide")
            pair = coincident_pair(self.nodes, tol)
            if pair is not None:
                i, j = pair
                raise ValueError(f"nodes {i} and {j} coincide within {tol:.3e}")
        return self

    def with_nodes(self, nodes):
        """Same topology and groups, new coordinates."""
        return Mesh(self.dim, nodes, self.elements,
                    self.boundary_ids, self.interior_ids, self.groups)

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.elements, other.elements)
                and np.array_equal(self.boundary_ids, other.boundary_ids)
                and np.array_equal(self.interior_ids, other.interior_ids)
                and self.groups.keys() == other.groups.keys()
                and all(np.array_equal(v, other.groups[k])
                        for k, v in self.groups.items()))


# ---------------------------------------------------------------------------
# generators

# the six tetrahedra of the Kuhn split of a hexahedral cell, as corner
# triples (dx, dy, dz); every cell uses the same main diagonal so shared
# faces agree across cells
_KUHN_TETS = (
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 1), (1, 0, 0), (1, 1, 1)),
)

# the outer faces in claim order, as (name, axis, lattice index on it or
# -1 for the last): a node on several faces goes to the earliest
_FACES = (("left", 2, 0), ("right", 2, -1), ("top", 1, -1),
          ("bottom", 1, 0), ("front", 0, 0), ("rear", 0, -1))


def _lattice(axes, hole=None):
    """Kuhn-split tetrahedral lattice over the grid ``axes`` (x, y, z).

    ``axes`` holds one increasing coordinate array per axis. With
    ``hole=(lo, hi)``, the cells whose centers lie strictly inside that
    box are dropped, and so are the nodes no remaining element uses.

    Returns (nodes, elements, index, faces): the node coordinates in
    x-major order; the elements, tet-major then cell order; each node's
    lattice index, shape (3, n); and the six outer faces as disjoint node
    masks, keyed by name in claim order.
    """
    shape = [ax.size for ax in axes]
    cells = np.indices([s - 1 for s in shape]).reshape(3, -1)
    if hole is not None:
        centers = [(ax[c] + ax[c + 1]) / 2.0 for ax, c in zip(axes, cells)]
        inside = np.logical_and.reduce(
            [(m > lo) & (m < hi) for m, lo, hi in zip(centers, *hole)])
        cells = cells[:, ~inside]
    stride = np.array([shape[1] * shape[2], shape[2], 1])
    first = stride @ cells  # node id of each cell's (0, 0, 0) corner
    corner = np.array(_KUHN_TETS) @ stride
    elements = (first[None, :, None] + corner[:, None, :]).reshape(-1, 4)

    used = np.zeros(np.prod(shape), dtype=bool)
    used[elements.ravel()] = True
    elements = (np.cumsum(used) - 1)[elements]  # used nodes, renumbered
    index = np.indices(shape).reshape(3, -1)[:, used]
    nodes = np.column_stack([ax[i] for ax, i in zip(axes, index)])

    claimed = np.zeros(nodes.shape[0], dtype=bool)
    faces = {}
    for name, axis, at in _FACES:
        on = index[axis] == (at % shape[axis])
        faces[name] = on & ~claimed
        claimed |= on
    return nodes, elements, index, faces


def generate_box_wing(nx, ny, nz, lengths):
    """Structured tetrahedral box with wing-style face groups.

    The box spans [0, Lx] x [0, Ly] x [0, Lz] with (nx, ny, nz) cells per
    axis, so (nx+1)(ny+1)(nz+1) nodes. z is the span direction; the
    clamped "left" face sits at z = 0.

    Args:
        nx, ny, nz: cell counts per axis, each >= 1.
        lengths: box extents (Lx, Ly, Lz), each > 0.

    Returns:
        Mesh with disjoint face groups "left", "right", "top", "bottom",
        "front", "rear" (shared edge nodes go to the earlier name in that
        order) and overlapping edge-curve groups "left_edge",
        "right_edge", "horizontal_edges" for enrichment.
    """
    counts = (int(nx), int(ny), int(nz))
    if min(counts) < 1:
        raise ValueError("cell counts must be at least 1")
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.shape != (3,) or np.any(lengths <= 0):
        raise ValueError("lengths must be three positive extents")

    nodes, elements, (ix, iy, iz), faces = _lattice(
        [np.arange(n + 1) * (length / n) for n, length in zip(counts, lengths)])
    ids = np.arange(nodes.shape[0])
    groups = {name: ids[mask] for name, mask in faces.items()}
    rim_x = (ix == 0) | (ix == counts[0])
    rim_y = (iy == 0) | (iy == counts[1])
    groups["left_edge"] = ids[(iz == 0) & (rim_x | rim_y)]
    groups["right_edge"] = ids[(iz == counts[2]) & (rim_x | rim_y)]
    groups["horizontal_edges"] = ids[rim_x & rim_y]

    on_boundary = np.logical_or.reduce(list(faces.values()))
    return Mesh(3, nodes, elements, ids[on_boundary], ids[~on_boundary],
                groups).validate()


def _axis_coords(extent, cells, cuts, axis):
    """Uniform subdivision of [0, extent] with ``cuts`` forced in exactly.

    A cut within 1e-9 * extent of a grid coordinate replaces it. One that
    would replace a wall (0 or ``extent``) or an earlier cut raises
    ValueError naming ``axis``.
    """
    coords = list(np.linspace(0.0, extent, cells + 1))
    fixed = {0, cells}
    tol = 1e-9 * extent
    for value in cuts:
        nearest = min(range(len(coords)), key=lambda i: abs(coords[i] - value))
        if abs(coords[nearest] - value) > tol:
            fixed.add(len(coords))
            coords.append(value)
        elif nearest in fixed:
            raise ValueError(
                f"obstacle face at {axis} = {value!r} lies within {tol:.3g} "
                f"of an outer wall or of the opposite obstacle face")
        else:
            coords[nearest] = value
            fixed.add(nearest)
    return np.array(sorted(coords))


def generate_tunnel(outer, inner, resolution):
    """Box-minus-box mesh: an obstacle carved from the middle of a channel.

    The outer box spans [0, outer]; the inner (obstacle) box has extents
    ``inner`` and is centered inside it. Grid planes are forced onto the
    obstacle faces, cells inside the obstacle are dropped, and nodes left
    on its surface become boundary nodes.

    Args:
        outer: outer box extents, three positive floats.
        inner: obstacle extents, strictly smaller than ``outer`` per axis.
            An obstacle face within 1e-9 times the extent of an outer
            wall or of the opposite face raises ValueError.
        resolution: cells per axis of the outer box before the obstacle
            cuts are inserted; an int or a (nx, ny, nz) triple.

    Returns:
        Mesh with the same disjoint face groups as the box generator plus
        "obstacle" (all obstacle-surface nodes) and "obstacle_edges"
        (obstacle nodes lying on two or more obstacle faces).
    """
    outer = np.asarray(outer, dtype=np.float64)
    inner = np.asarray(inner, dtype=np.float64)
    if outer.shape != (3,) or np.any(outer <= 0):
        raise ValueError("outer must be three positive extents")
    if inner.shape != (3,) or np.any(inner <= 0):
        raise ValueError("inner must be three positive extents")
    if np.any(inner >= outer):
        raise ValueError("inner box must be strictly inside the outer box")
    if np.isscalar(resolution):
        resolution = (resolution,) * 3
    res = tuple(int(r) for r in resolution)
    if min(res) < 1:
        raise ValueError("resolution must be at least 1 cell per axis")

    lo = (outer - inner) / 2.0
    hi = lo + inner
    axes = [_axis_coords(outer[i], res[i], (lo[i], hi[i]), "xyz"[i])
            for i in range(3)]
    nodes, elements, _, faces = _lattice(axes, hole=(lo, hi))

    inside_closed = np.all((nodes >= lo) & (nodes <= hi), axis=1)
    face_hits = sum((nodes[:, i] == lo[i]) | (nodes[:, i] == hi[i]) for i in range(3))
    on_obstacle = inside_closed & (face_hits >= 1)

    ids = np.arange(nodes.shape[0])
    groups = {name: ids[mask] for name, mask in faces.items()}
    groups["obstacle"] = ids[on_obstacle]
    groups["obstacle_edges"] = ids[inside_closed & (face_hits >= 2)]

    on_boundary = np.logical_or.reduce([on_obstacle, *faces.values()])
    return Mesh(3, nodes, elements, ids[on_boundary], ids[~on_boundary],
                groups).validate()


# ---------------------------------------------------------------------------
# quality

# elements per block of mesh_quality: a tetrahedron block's squared edges
# and gathered coordinates stay within a few hundred KB
QUALITY_BLOCK = 8192


def _squared_edges(mesh, element_rows):
    """Squared edge lengths, shape (e, n_edges), of the elements
    ``element_rows``, summed one coordinate at a time in the order
    ``np.linalg.norm`` sums them. Roots are taken of the extremes only:
    ``sqrt`` is monotone and correctly rounded, so the root of the largest
    (smallest) square is bitwise the longest (shortest) edge."""
    first, second = map(list, zip(*itertools.combinations(range(mesh.dim + 1), 2)))
    sq = 0.0
    for c in range(mesh.dim):
        x = mesh.nodes[:, c][element_rows]  # (e, dim+1)
        diff = x[:, first] - x[:, second]
        diff *= diff
        diff += sq  # addition commutes exactly, and 0.0 + d² is d²
        sq = diff
    return sq


def element_quality(mesh, e):
    """Edge-length ratio (longest over shortest) of element ``e``; 1 is best."""
    if not 0 <= e < mesh.element_count:
        raise ValueError(f"element index {e} out of range")
    sq = _squared_edges(mesh, mesh.elements[e:e + 1])[0]
    shortest = np.sqrt(sq.min())
    if shortest == 0.0:
        raise DegenerateElementError(f"element {e} has a zero-length edge")
    return float(np.sqrt(sq.max()) / shortest)


def mesh_quality(mesh):
    """(max, mean) of the edge-length ratio over all elements.

    The squared edges are formed ``QUALITY_BLOCK`` elements at a time; the
    ratios land in one array, reduced whole, so the results do not depend
    on the block size.
    """
    count = mesh.element_count
    if count == 0:
        raise ValueError("mesh has no elements")
    q = np.empty(count)
    for start in range(0, count, QUALITY_BLOCK):
        sq = _squared_edges(mesh, mesh.elements[start:start + QUALITY_BLOCK])
        shortest = np.sqrt(sq.min(axis=1))
        bad = np.flatnonzero(shortest == 0.0)
        if bad.size:
            raise DegenerateElementError(
                f"element {start + bad[0]} has a zero-length edge")
        np.divide(np.sqrt(sq.max(axis=1)), shortest,
                  out=q[start:start + shortest.size])
    return float(q.max()), float(q.mean())


def apply_deformation(mesh, displacement):
    """New mesh with ``displacement`` added to the referenced nodes."""
    if displacement.dim != mesh.dim:
        raise ValueError(f"field dim {displacement.dim} != mesh dim {mesh.dim}")
    idx = _node_ids(displacement.indices, "displacement ids", mesh.node_count)
    coords = mesh.nodes.copy()
    coords[idx] += displacement.vectors
    coords.setflags(write=False)  # fresh, so the new mesh keeps it uncopied
    return mesh.with_nodes(coords)


# ---------------------------------------------------------------------------
# file formats

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


def write_mesh(mesh, path, format="native-json"):
    """Write ``mesh`` to ``path`` as 'native-json' or 'vtk-legacy-ascii'.

    The native JSON file holds exactly the bytes of ``json.dumps`` of the
    document {"dim", "nodes", "elements", "boundary", "interior",
    "groups"} (arrays as lists) plus a newline. Non-finite coordinates
    and element ids outside [0, node_count) raise ValueError, since
    :func:`read_mesh` would reject the file.
    """
    if format == "native-json":
        _write_json(mesh, path)
    elif format == "vtk-legacy-ascii":
        _write_vtk(mesh, path)
    else:
        raise ValueError(f"unknown mesh format {format!r}")


def _write_json(mesh, path):
    if not np.isfinite(mesh.nodes).all():
        raise ValueError("node coordinates contain non-finite values")
    elements = mesh.elements
    n = mesh.node_count
    if elements.size and (elements.min() < 0 or elements.max() >= n):
        raise ValueError("element refers to a node id out of range")
    # dim, ids and groups are small and go through json.dumps; the two
    # large arrays are composed here in the same text, which is ASCII
    # throughout (json.dumps escapes any other character)
    head = ('{"dim": ' + json.dumps(mesh.dim) + ', "nodes": '
            + _nodes_json(mesh.nodes) + ', "elements": ')
    body = _elements_json(elements, n)
    groups = {k: v.tolist() for k, v in mesh.groups.items()}
    tail = (', "boundary": ' + json.dumps(mesh.boundary_ids.tolist())
            + ', "interior": ' + json.dumps(mesh.interior_ids.tolist())
            + ', "groups": ' + json.dumps(groups) + "}\n")
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(body)
        fh.write(tail.encode("ascii"))


def _nodes_json(nodes):
    """``json.dumps(nodes.tolist())`` for finite (n, d) coordinates: JSON
    writes a float as its ``repr``."""
    if nodes.size == 0:
        return json.dumps(nodes.tolist())
    reprs = iter(map(float.__repr__, nodes.ravel().tolist()))
    rows = zip(*[reprs] * nodes.shape[1])
    return "[[" + "], [".join(map(", ".join, rows)) + "]]"


def _elements_json(elements, node_count):
    """``json.dumps(elements.tolist())`` as bytes, for ids in
    [0, node_count), composed in one byte buffer.

    A table holds each id's decimal digits right-aligned in ``width``
    bytes, the unused ones 0. Each element gets a row of fixed-width
    slots with the brackets and separators already in place, its ids'
    digits are gathered in from the table, and the 0 bytes are masked
    out.
    """
    if elements.ndim != 2 or elements.size == 0:
        return json.dumps(elements.tolist()).encode("ascii")
    ids = np.arange(node_count)
    width = len(str(node_count - 1))
    table = np.zeros((node_count, width), dtype=np.uint8)
    for j in range(width):  # digit j counted from the right
        first = 10 ** j if j else 0  # ids below 10**j have no digit j
        table[first:, width - 1 - j] = ord("0") + ids[first:] // 10 ** j % 10
    # a row is one slot " [" then per id its digits and ", ", with "],"
    # after the last id: " [0, 1, 2, 3], [4, 5, 6, 7],"
    count, k = elements.shape
    buf = np.zeros((count, k + 1, width + 2), dtype=np.uint8)
    buf[:, 0, :2] = np.frombuffer(b" [", dtype=np.uint8)
    buf[:, 1:, width:] = np.frombuffer(b", ", dtype=np.uint8)
    buf[:, -1, width:] = np.frombuffer(b"],", dtype=np.uint8)
    digits = table.view(f"V{width}").ravel()  # one id's digits per item
    buf[:, 1:, :width] = digits.take(elements).view(np.uint8).reshape(
        count, k, width)
    text = buf[buf != 0]
    return b"[" + text[1:-1].tobytes() + b"]"


def _write_vtk(mesh, path):
    pts = mesh.nodes
    if mesh.dim == 2:  # VTK points are always 3D
        pts = np.column_stack([pts, np.zeros(len(pts))])
    lines = ["# vtk DataFile Version 3.0", "morphkit mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.node_count} double"]
    lines += [" ".join(repr(c) for c in row) for row in pts.tolist()]
    nv = mesh.dim + 1
    lines.append(f"CELLS {mesh.element_count} {mesh.element_count * (nv + 1)}")
    lines += [f"{nv} " + " ".join(str(i) for i in row)
              for row in mesh.elements.tolist()]
    lines.append(f"CELL_TYPES {mesh.element_count}")
    lines += [str(_VTK_CELL_TYPE[mesh.dim])] * mesh.element_count
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read a mesh written by :func:`write_mesh` as 'native-json'."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"invalid JSON: {exc.msg}",
                                  line=exc.lineno, offset=exc.colno) from None
    if not isinstance(doc, dict):
        raise MeshFormatError("top-level value must be an object")
    for key in ("dim", "nodes", "elements", "boundary", "interior", "groups"):
        if key not in doc:
            raise MeshFormatError(f"missing key {key!r}")
    try:
        mesh = Mesh(int(doc["dim"]), doc["nodes"], doc["elements"],
                    doc["boundary"], doc["interior"], doc["groups"])
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"malformed mesh document: {exc}") from None
    try:
        return mesh.validate()
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from None

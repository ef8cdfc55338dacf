"""Simplicial meshes: data model, synthetic generators, quality, and I/O.

A mesh is a flat array of node coordinates plus simplex connectivity
(triangles in 2D, tetrahedra in 3D), with the node set partitioned into
boundary and interior index lists and named node groups living on the
boundary. Instances are immutable; deformation produces a new mesh.

Two generators build the synthetic geometries used throughout:

* :func:`generate_box_wing` - a structured box, the stand-in for a
  clamped wing (span along z, "left" face at z = 0 is the clamp).
* :func:`generate_tunnel` - a box with a rectangular obstacle carved out
  of its middle, the stand-in for an enclosed body in a channel.

File formats: a native JSON schema (read/write, round-trips exactly) and
legacy ASCII VTK (write only, for external viewers).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateElementError, MeshFormatError

__all__ = [
    "Mesh",
    "DisplacementField",
    "generate_box_wing",
    "generate_tunnel",
    "element_quality",
    "mesh_quality",
    "apply_deformation",
    "merge_fields",
    "read_mesh",
    "write_mesh",
]

# node-coincidence tolerance, as a fraction of the bounding-box diagonal
COINCIDENCE_FACTOR = 1e-12


def _own(a, dtype):
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Per-node displacement vectors on a subset of mesh nodes.

    Attributes:
        indices: unique node ids, shape (k,).
        vectors: displacement per id, shape (k, dim), finite.
    """

    indices: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        idx = _own(np.atleast_1d(self.indices), np.int64)
        vec = np.array(self.vectors, dtype=np.float64, copy=True)
        if vec.ndim != 2 or vec.shape[0] != idx.shape[0]:
            raise ValueError(
                f"vectors shape {vec.shape} does not match {idx.shape[0]} indices")
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        # strictly increasing ids are unique, an O(n) test; sort otherwise
        if (not np.all(idx[1:] > idx[:-1])
                and np.unique(idx).size != idx.size):
            raise ValueError("indices contain duplicates")
        if not np.all(np.isfinite(vec)):
            raise ValueError("vectors contain non-finite entries")
        vec.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "vectors", vec)

    @property
    def dim(self):
        return self.vectors.shape[1]

    @classmethod
    def zero(cls, indices, dim):
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        return cls(indices, np.zeros((indices.size, dim)))

    def restrict(self, ids):
        """Rows of this field at ``ids`` (all must be present), in that order."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        idx = self.indices
        # strictly increasing ids (the usual case) need no sort permutation
        order = (None if np.all(idx[1:] > idx[:-1])
                 else np.argsort(idx, kind="stable"))
        pos = np.searchsorted(idx, ids, sorter=order)
        if np.any(pos >= idx.size):
            missing = ids[pos >= idx.size]
            raise ValueError(f"ids not covered by field: {missing[:5].tolist()}")
        rows = pos if order is None else order[pos]
        if not np.array_equal(idx[rows], ids):
            missing = ids[idx[rows] != ids]
            raise ValueError(f"ids not covered by field: {missing[:5].tolist()}")
        return DisplacementField(ids, self.vectors[rows])

    def as_vector(self):
        """Flattened copy, node-major with the dim components interleaved."""
        return self.vectors.ravel()

    def max_magnitude(self):
        if self.indices.size == 0:
            return 0.0
        return float(np.linalg.norm(self.vectors, axis=1).max())


def merge_fields(*fields):
    """Concatenate displacement fields over disjoint index sets."""
    if not fields:
        raise ValueError("nothing to merge")
    dims = {f.dim for f in fields}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions {sorted(dims)}")
    idx = np.concatenate([f.indices for f in fields])
    if np.unique(idx).size != idx.size:
        raise ValueError("fields overlap")
    vec = np.vstack([f.vectors for f in fields])
    return DisplacementField(idx, vec)


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
        elements = np.array(self.elements, dtype=np.int64, copy=True)
        if elements.size == 0:
            elements = elements.reshape(0, self.dim + 1)
        elements.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary_ids",
                           _own(np.sort(np.atleast_1d(self.boundary_ids)), np.int64))
        object.__setattr__(self, "interior_ids",
                           _own(np.sort(np.atleast_1d(self.interior_ids)), np.int64))
        object.__setattr__(self, "groups",
                           {str(k): _own(np.sort(np.atleast_1d(v)), np.int64)
                            for k, v in dict(self.groups).items()})

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def element_count(self):
        return self.elements.shape[0]

    @property
    def bbox_diagonal(self):
        if self.node_count == 0:
            return 0.0
        return float(np.linalg.norm(self.nodes.max(axis=0) - self.nodes.min(axis=0)))

    @property
    def coincidence_tolerance(self):
        return COINCIDENCE_FACTOR * self.bbox_diagonal

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
        if np.unique(merged).size != merged.size:
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
            pairs = cKDTree(self.nodes).query_pairs(tol)
            if pairs:
                i, j = sorted(next(iter(pairs)))
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


def _tetrahedralize_cells(cell_ix, cell_iy, cell_iz, node_id):
    """Six tets per hexahedral cell; ``node_id(ix, iy, iz)`` maps lattice
    coordinates to node ids."""
    tets = []
    for corners in _KUHN_TETS:
        tets.append(np.stack(
            [node_id(cell_ix + dx, cell_iy + dy, cell_iz + dz)
             for dx, dy, dz in corners], axis=1))
    return np.vstack(tets)


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
    nx, ny, nz = int(nx), int(ny), int(nz)
    if min(nx, ny, nz) < 1:
        raise ValueError("cell counts must be at least 1")
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.shape != (3,) or np.any(lengths <= 0):
        raise ValueError("lengths must be three positive extents")

    ix, iy, iz = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                             np.arange(nz + 1), indexing="ij")
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
    nodes = np.column_stack([ix * (lengths[0] / nx),
                             iy * (lengths[1] / ny),
                             iz * (lengths[2] / nz)])

    def node_id(jx, jy, jz):
        return (jx * (ny + 1) + jy) * (nz + 1) + jz

    cx, cy, cz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    elements = _tetrahedralize_cells(cx.ravel(), cy.ravel(), cz.ravel(), node_id)

    on_left = iz == 0
    on_right = iz == nz
    on_top = iy == ny
    on_bottom = iy == 0
    on_front = ix == 0
    on_rear = ix == nx
    on_boundary = on_left | on_right | on_top | on_bottom | on_front | on_rear

    ids = np.arange(nodes.shape[0])
    claimed = np.zeros(nodes.shape[0], dtype=bool)
    groups = {}
    for name, mask in (("left", on_left), ("right", on_right),
                       ("top", on_top), ("bottom", on_bottom),
                       ("front", on_front), ("rear", on_rear)):
        take = mask & ~claimed
        groups[name] = ids[take]
        claimed |= take

    face_rim = (ix == 0) | (ix == nx) | (iy == 0) | (iy == ny)
    groups["left_edge"] = ids[on_left & face_rim]
    groups["right_edge"] = ids[on_right & face_rim]
    groups["horizontal_edges"] = ids[((ix == 0) | (ix == nx)) & ((iy == 0) | (iy == ny))]

    return Mesh(3, nodes, elements, ids[on_boundary], ids[~on_boundary],
                groups).validate()


def _axis_coords(extent, cells, cuts):
    """Uniform subdivision of [0, extent] with ``cuts`` forced in exactly."""
    coords = list(np.linspace(0.0, extent, cells + 1))
    tol = 1e-9 * extent
    for value in cuts:
        nearest = min(range(len(coords)), key=lambda i: abs(coords[i] - value))
        if abs(coords[nearest] - value) <= tol:
            coords[nearest] = value
        else:
            coords.append(value)
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
    axes = [_axis_coords(outer[i], res[i], (lo[i], hi[i])) for i in range(3)]
    counts = [len(ax) - 1 for ax in axes]

    gx, gy, gz = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    all_nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def grid_id(jx, jy, jz):
        return (jx * (counts[1] + 1) + jy) * (counts[2] + 1) + jz

    cx, cy, cz = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    cx, cy, cz = cx.ravel(), cy.ravel(), cz.ravel()
    centers = np.column_stack([(axes[0][cx] + axes[0][cx + 1]),
                               (axes[1][cy] + axes[1][cy + 1]),
                               (axes[2][cz] + axes[2][cz + 1])]) / 2.0
    keep = ~np.all((centers > lo) & (centers < hi), axis=1)
    elements = _tetrahedralize_cells(cx[keep], cy[keep], cz[keep], grid_id)

    used = np.zeros(all_nodes.shape[0], dtype=bool)
    used[elements.ravel()] = True
    new_id = np.full(all_nodes.shape[0], -1, dtype=np.int64)
    new_id[used] = np.arange(used.sum())
    nodes = all_nodes[used]
    elements = new_id[elements]

    x, y, z = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    on_outer = {
        "left": z == 0.0, "right": z == outer[2],
        "top": y == outer[1], "bottom": y == 0.0,
        "front": x == 0.0, "rear": x == outer[0],
    }
    inside_closed = np.all((nodes >= lo) & (nodes <= hi), axis=1)
    face_hits = sum((nodes[:, i] == lo[i]) | (nodes[:, i] == hi[i]) for i in range(3))
    on_obstacle = inside_closed & (face_hits >= 1)

    ids = np.arange(nodes.shape[0])
    boundary_mask = on_obstacle.copy()
    for mask in on_outer.values():
        boundary_mask |= mask

    claimed = np.zeros(nodes.shape[0], dtype=bool)
    groups = {}
    for name in ("left", "right", "top", "bottom", "front", "rear"):
        take = on_outer[name] & ~claimed
        groups[name] = ids[take]
        claimed |= take
    groups["obstacle"] = ids[on_obstacle]
    groups["obstacle_edges"] = ids[inside_closed & (face_hits >= 2)]

    return Mesh(3, nodes, elements, ids[boundary_mask], ids[~boundary_mask],
                groups).validate()


# ---------------------------------------------------------------------------
# quality

def _edge_lengths(mesh, element_rows):
    verts = mesh.nodes[element_rows]  # (e, dim+1, dim)
    pairs = list(itertools.combinations(range(mesh.dim + 1), 2))
    diffs = np.stack([verts[:, i] - verts[:, j] for i, j in pairs], axis=1)
    return np.linalg.norm(diffs, axis=2)  # (e, n_edges)


def element_quality(mesh, e):
    """Edge-length ratio (longest over shortest) of element ``e``; 1 is best."""
    if not 0 <= e < mesh.element_count:
        raise ValueError(f"element index {e} out of range")
    lengths = _edge_lengths(mesh, mesh.elements[e:e + 1])[0]
    shortest = lengths.min()
    if shortest == 0.0:
        raise DegenerateElementError(f"element {e} has a zero-length edge")
    return float(lengths.max() / shortest)


def mesh_quality(mesh):
    """(max, mean) of the edge-length ratio over all elements."""
    if mesh.element_count == 0:
        raise ValueError("mesh has no elements")
    lengths = _edge_lengths(mesh, mesh.elements)
    shortest = lengths.min(axis=1)
    bad = np.nonzero(shortest == 0.0)[0]
    if bad.size:
        raise DegenerateElementError(f"element {bad[0]} has a zero-length edge")
    q = lengths.max(axis=1) / shortest
    return float(q.max()), float(q.mean())


def apply_deformation(mesh, displacement):
    """New mesh with ``displacement`` added to the referenced nodes."""
    if displacement.dim != mesh.dim:
        raise ValueError(f"field dim {displacement.dim} != mesh dim {mesh.dim}")
    idx = displacement.indices
    if idx.size and (idx.min() < 0 or idx.max() >= mesh.node_count):
        raise ValueError("displacement refers to a node id out of range")
    coords = mesh.nodes.copy()
    coords[idx] += displacement.vectors
    return mesh.with_nodes(coords)


# ---------------------------------------------------------------------------
# file formats

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


def write_mesh(mesh, path, format="native-json"):
    """Write ``mesh`` to ``path`` as 'native-json' or 'vtk-legacy-ascii'."""
    if format == "native-json":
        doc = {
            "dim": mesh.dim,
            "nodes": mesh.nodes.tolist(),
            "elements": mesh.elements.tolist(),
            "boundary": mesh.boundary_ids.tolist(),
            "interior": mesh.interior_ids.tolist(),
            "groups": {k: v.tolist() for k, v in mesh.groups.items()},
        }
        with open(path, "w") as fh:
            # dumps runs the C encoder; dump would go through the
            # pure-Python iterencode for the same bytes
            fh.write(json.dumps(doc))
            fh.write("\n")
    elif format == "vtk-legacy-ascii":
        _write_vtk(mesh, path)
    else:
        raise ValueError(f"unknown mesh format {format!r}")


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


def read_mesh(path, format="native-json"):
    """Read a mesh written by :func:`write_mesh` (native-json only)."""
    if format != "native-json":
        raise ValueError(f"reading format {format!r} is not supported")
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

"""Mesh containers, generators, quality metric, and file formats."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import morphkit as mk
from morphkit import (DisplacementField, Mesh, MeshFormatError,
                      DegenerateElementError, apply_deformation,
                      coincident_pair, element_quality, generate_box_wing,
                      generate_tunnel, merge_fields, mesh_quality, read_mesh,
                      write_mesh)
from morphkit import mesh as mesh_module
from morphkit.mesh import _squared_edges, has_duplicates, sorted_unique
from conftest import make_lattice2d


# ---------------------------------------------------------------------------
# DisplacementField

def test_field_zero_and_vector_layout():
    f = DisplacementField.zero([3, 7], 3)
    assert f.vectors.shape == (2, 3)
    assert f.as_vector().shape == (6,)
    assert f.max_magnitude() == 0.0


def test_field_vector_is_node_major():
    f = DisplacementField([2, 5], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(f.as_vector(), [1.0, 2.0, 3.0, 4.0])


def test_field_restrict_reorders_to_request():
    f = DisplacementField([1, 4, 9], [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    g = f.restrict([9, 1])
    np.testing.assert_array_equal(g.indices, [9, 1])
    np.testing.assert_array_equal(g.vectors[:, 0], [3.0, 1.0])


def test_field_restrict_missing_id():
    f = DisplacementField([1, 4], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        f.restrict([1, 5])


def sorted_and_shuffled_fields():
    ids = np.array([1, 4, 9, 12, 20])
    vec = np.arange(10.0).reshape(5, 2)
    perm = [3, 0, 4, 2, 1]
    return (DisplacementField(ids, vec),
            DisplacementField(ids[perm], vec[perm]))


@pytest.mark.parametrize("request_ids", [[9, 1, 20], [20], [1, 4, 9, 12, 20]])
def test_field_restrict_sorted_or_not(request_ids):
    ordered, shuffled = sorted_and_shuffled_fields()
    a, b = ordered.restrict(request_ids), shuffled.restrict(request_ids)
    np.testing.assert_array_equal(a.indices, request_ids)
    np.testing.assert_array_equal(b.indices, request_ids)
    np.testing.assert_array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("request_ids", [[1, 5], [21, 4], [0]])
def test_field_restrict_missing_id_sorted_or_not(request_ids):
    messages = []
    for field in sorted_and_shuffled_fields():
        with pytest.raises(ValueError, match="not covered") as err:
            field.restrict(request_ids)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_field_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        DisplacementField([1, 1], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        DisplacementField([1], [[np.nan, 0.0]])


@pytest.mark.parametrize("ids", [[1, 2, 2, 3], [3, 1, 3]])
def test_field_rejects_duplicates_sorted_or_not(ids):
    with pytest.raises(ValueError, match="duplicates"):
        DisplacementField(ids, np.zeros((len(ids), 2)))


def test_field_arrays_frozen():
    f = DisplacementField([0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        f.vectors[0, 0] = 9.0


def test_field_copies_a_writeable_caller_array():
    ids = np.array([3, 5])
    vec = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = DisplacementField(ids, vec)
    ids[0] = 4
    vec[0, 0] = 9.0
    np.testing.assert_array_equal(f.indices, [3, 5])
    np.testing.assert_array_equal(f.vectors, [[1.0, 2.0], [3.0, 4.0]])


def test_field_keeps_a_frozen_owned_array():
    ids = np.array([3, 5])
    vec = np.array([[1.0, 2.0], [3.0, 4.0]])
    ids.setflags(write=False)
    vec.setflags(write=False)
    f = DisplacementField(ids, vec)
    assert np.shares_memory(f.indices, ids)
    assert np.shares_memory(f.vectors, vec)
    assert np.shares_memory(f.as_vector(), vec)
    # a frozen view is copied: its base may still be written
    base = np.zeros((4, 2))
    view = base[:2]
    view.setflags(write=False)
    g = DisplacementField([1, 2], view)
    assert not np.shares_memory(g.vectors, base)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=60))
def test_duplicates_and_union_match_np_unique(values):
    ids = np.array(values, dtype=np.int64)
    oracle = np.unique(ids)
    assert has_duplicates(ids) == (oracle.size != ids.size)
    union = sorted_unique(ids)
    assert union.dtype == np.int64
    np.testing.assert_array_equal(union, oracle)


def test_field_restrict_copies_the_request_and_rejects_duplicates():
    f = DisplacementField([1, 4, 9], [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    request = np.array([9, 1])
    g = f.restrict(request)
    request[0] = 4
    np.testing.assert_array_equal(g.indices, [9, 1])
    assert not g.vectors.flags.writeable
    with pytest.raises(ValueError, match="duplicates"):
        f.restrict([4, 1, 4])


@pytest.mark.parametrize("bad,match", [
    ([1.7], "integers"),
    ([0.9, 2.2], "integers"),
    ([np.nan], "integers"),
    (np.array([True, False, True]), "boolean mask"),
    ([0, True], "integers"),  # NumPy alone would read the bool as 1
])
def test_field_and_restrict_reject_non_integer_ids(bad, match):
    f = DisplacementField([0, 1, 2], np.zeros((3, 2)))
    with pytest.raises(ValueError, match=match):
        f.restrict(bad)
    with pytest.raises(ValueError, match=match):
        DisplacementField(bad, np.zeros((len(bad), 2)))
    with pytest.raises(ValueError, match=match):
        DisplacementField.zero(bad, 2)


def test_field_accepts_integral_float_ids():
    f = DisplacementField([0.0, 2.0], [[1.0, 0.0], [2.0, 0.0]])
    assert f.indices.dtype == np.int64
    np.testing.assert_array_equal(f.indices, [0, 2])
    np.testing.assert_array_equal(f.restrict([2.0]).vectors, [[2.0, 0.0]])


# every entry point that takes node ids from a caller, called with ``ids``
# (3 of them) and every other argument well-formed, returning the id array
# it keeps; with the messages of the checks it makes beyond integers, no
# boolean mask and one dimension: on repeats, and on ids outside its mesh
_CUBE = generate_box_wing(1, 1, 1, (1.0, 1.0, 1.0))  # 8 nodes
_UNIQUE = {"repeat": "duplicates"}
_IN_MESH = {"repeat": "duplicates", "range": "out of range"}


def _deformed_ids(ids):
    field = DisplacementField(ids, np.zeros((len(ids), 3)))
    apply_deformation(_CUBE, field)
    return field.indices


_ID_HOLDERS = {
    "law": (lambda ids: mk.bend_law(ids, (0.0, 1.0)).control_ids, _UNIQUE),
    "snapshots": (lambda ids: mk.SnapshotSet(
        np.zeros((3, 1)), (0.0,), ids, 1).target_ids, _UNIQUE),
    "pod-controls": (lambda ids: mk.PodModel(
        np.zeros((2, 1)), [1.0], 1, 0.0, "plain", np.zeros((1, 3)),
        ids, [0, 1], 1).control_ids, _UNIQUE),
    "pod-targets": (lambda ids: mk.PodModel(
        np.zeros((3, 1)), [1.0], 1, 0.0, "plain", np.zeros((1, 2)),
        [0, 1], ids, 1).target_ids, _UNIQUE),
    "selection": (lambda ids: mk.SelectionResult(ids, (), ()).selected,
                  _UNIQUE),
    "op-targets": (lambda ids: mk.IdwOperator(
        np.ones((3, 1)), ids, [9], mk.IdwConfig()).target_ids, _UNIQUE),
    "op-controls": (lambda ids: mk.IdwOperator(
        np.full((1, 3), 1 / 3), [9], ids, mk.IdwConfig()).control_ids,
        _UNIQUE),
    "assemble": (lambda ids: mk.assemble(_CUBE, ids, [7]).control_ids,
                 _IN_MESH),
    "assemble-targets": (lambda ids: mk.assemble(_CUBE, [7], ids).target_ids,
                         _IN_MESH),
    "interpolate": (lambda ids: mk.interpolate(
        _CUBE, DisplacementField([7], [[0.0, 0.0, 1.0]]), ids).indices,
        _IN_MESH),
    "field": (lambda ids: DisplacementField(
        ids, np.zeros((len(ids), 2))).indices, _UNIQUE),
    "restrict": (lambda ids: DisplacementField(
        np.arange(8), np.zeros((8, 2))).restrict(ids).indices,
        {"repeat": "duplicates", "range": "not covered"}),
    "evaluate": (lambda ids: mk.evaluate(
        mk.bend_law(ids, (0.0, 1.0)), _CUBE, 0.5).indices, _IN_MESH),
    "apply-deformation": (_deformed_ids, _IN_MESH),
    "select": (lambda ids: mk.select(_CUBE, ids, 0.01).selected, _IN_MESH),
    "enrich": (lambda ids: mk.enrich(ids, _CUBE, []), _IN_MESH),
    "select-random": (lambda ids: mk.select_random(ids, 3, 0), _UNIQUE),
    # a mesh's ids are sorted on the way in; repeats are Mesh.validate's
    "mesh-boundary": (lambda ids: Mesh(
        3, _CUBE.nodes, _CUBE.elements, ids, []).boundary_ids, {}),
    "mesh-group": (lambda ids: Mesh(
        3, _CUBE.nodes, _CUBE.elements, _CUBE.boundary_ids,
        _CUBE.interior_ids, {"g": ids}).groups["g"], {}),
}
# entry points returning a fresh array for the caller to own
_FRESH = {"enrich", "select-random"}


@pytest.mark.parametrize("holder", list(_ID_HOLDERS))
@pytest.mark.parametrize("ids, match", [
    ([0.0, 1.7, 2.0], "integers"),
    (np.array([True, False, True]), "boolean mask"),
    ([0.0, 2.0, 5.0], None),
    ([[0], [2], [5]], "one-dimensional"),
    ([0, 5, 5], "repeat"),
    ([0, 5, 99], "range"),
    ([0, True, 5], "integers"),
])
def test_id_holders_reject_non_integer_ids(holder, ids, match):
    build, checks = _ID_HOLDERS[holder]
    if match in ("repeat", "range"):
        match = checks.get(match)  # None: this entry point accepts the ids
    if match is None:
        held = build(ids)
        assert held.dtype == np.int64
        assert holder in _FRESH or not held.flags.writeable
        np.testing.assert_array_equal(held, ids)
    else:
        with pytest.raises(ValueError, match=match):
            build(ids)


def test_frozen_sorted_ids_pass_through_uncopied():
    ids = np.arange(8)
    ids.setflags(write=False)
    assert Mesh(3, _CUBE.nodes, _CUBE.elements, ids, []).boundary_ids is ids
    assert DisplacementField(ids, np.zeros((8, 3))).indices is ids
    op = mk.IdwOperator(np.full((8, 8), 1 / 8), ids, ids, mk.IdwConfig())
    assert op.target_ids is ids and op.control_ids is ids
    model = mk.PodModel(np.zeros((8, 1)), [1.0], 1, 0.0, "plain",
                        np.zeros((1, 8)), ids, ids, 1)
    assert model.target_ids is ids and model.control_ids is ids


# DisplacementField.restrict keeps the last validated restriction as a
# plan; a hit leaves the module's plan object in place, a miss replaces it

def _plan_source():
    return DisplacementField([2, 5, 7, 11, 13, 17],
                             np.arange(18.0).reshape(6, 3))


def test_restrict_plan_hit_is_bitwise_a_fresh_restrict():
    f = _plan_source()
    request = np.array([13, 2, 17])
    f.restrict(request)
    plan = mesh_module._restrict_plan
    assert plan[0]() is f.indices
    other = DisplacementField(f.indices, f.vectors * 0.5)
    assert other.indices is f.indices
    hit = other.restrict(request)
    assert mesh_module._restrict_plan is plan
    fresh = DisplacementField(f.indices.copy(), other.vectors).restrict(
        request.tolist())
    assert mesh_module._restrict_plan is not plan
    assert hit.indices.tobytes() == fresh.indices.tobytes()
    assert hit.vectors.tobytes() == fresh.vectors.tobytes()
    assert not hit.vectors.flags.writeable


def test_restrict_plan_follows_a_mutated_request():
    f = _plan_source()
    request = np.array([13, 2, 17])
    f.restrict(request)
    request[1] = 5
    g = f.restrict(request)
    np.testing.assert_array_equal(g.indices, [13, 5, 17])
    np.testing.assert_array_equal(g.vectors, f.vectors[[4, 1, 5]])
    request[0] = 3
    with pytest.raises(ValueError, match="not covered"):
        f.restrict(request)


def test_restrict_plan_on_unsorted_source():
    f = DisplacementField([17, 2, 11, 5], np.arange(8.0).reshape(4, 2))
    request = np.array([5, 17, 11])
    first = f.restrict(request)
    plan = mesh_module._restrict_plan
    second = f.restrict(request)
    assert mesh_module._restrict_plan is plan
    for g in (first, second):
        np.testing.assert_array_equal(g.indices, [5, 17, 11])
        np.testing.assert_array_equal(g.vectors, f.vectors[[3, 0, 2]])


def test_restrict_plan_hit_then_bad_request_still_raises():
    f = _plan_source()
    request = np.array([13, 2])
    f.restrict(request)
    f.restrict(request)
    with pytest.raises(ValueError, match="not covered"):
        f.restrict(np.array([13, 3]))
    with pytest.raises(ValueError, match="duplicates"):
        f.restrict(np.array([13, 13]))
    # a mask equal in value to planned ids is not taken for them
    g = DisplacementField([0, 1], np.zeros((2, 2)))
    g.restrict(np.array([1, 0]))
    with pytest.raises(ValueError, match="boolean mask"):
        g.restrict(np.array([True, False]))


@pytest.mark.parametrize("kind", ["writeable", "view"])
def test_restrict_plans_only_frozen_owned_indices(kind, monkeypatch):
    base = np.array([2, 5, 7, 11])
    idx = base if kind == "writeable" else base[:]
    if kind == "view":
        idx.setflags(write=False)
    f = DisplacementField._built(idx, np.arange(8.0).reshape(4, 2))
    monkeypatch.setattr(mesh_module, "_restrict_plan", None)
    request = np.array([11, 5])
    for _ in range(2):
        g = f.restrict(request)
        assert mesh_module._restrict_plan is None
        np.testing.assert_array_equal(g.vectors, [[6.0, 7.0], [2.0, 3.0]])


def test_merge_fields_disjoint_union():
    a = DisplacementField([0], [[1.0, 0.0]])
    b = DisplacementField([2], [[0.0, 1.0]])
    m = merge_fields(a, b)
    np.testing.assert_array_equal(m.indices, [0, 2])
    with pytest.raises(ValueError):
        merge_fields(a, DisplacementField([0], [[0.0, 0.0]]))


def test_field_max_magnitude():
    f = DisplacementField([0, 1], [[3.0, 4.0], [1.0, 0.0]])
    assert f.max_magnitude() == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# box wing generator

def test_tiny_wing_counts(tiny_wing):
    # 3x3x3 grid of nodes, 8 cells split into 6 tets each
    assert tiny_wing.node_count == 27
    assert tiny_wing.element_count == 48
    assert tiny_wing.boundary_ids.size == 26
    np.testing.assert_array_equal(tiny_wing.interior_ids, [13])
    np.testing.assert_allclose(tiny_wing.nodes[13], [0.5, 0.5, 0.5])


def test_tiny_wing_face_groups_partition_boundary(tiny_wing):
    sizes = {k: v.size for k, v in tiny_wing.groups.items()}
    assert sizes["left"] == sizes["right"] == 9
    assert sizes["top"] == sizes["bottom"] == 3
    assert sizes["front"] == sizes["rear"] == 1
    faces = ("left", "right", "top", "bottom", "front", "rear")
    union = np.concatenate([tiny_wing.group(g) for g in faces])
    assert union.size == np.unique(union).size  # disjoint
    np.testing.assert_array_equal(np.sort(union), tiny_wing.boundary_ids)


def test_tiny_wing_edge_groups(tiny_wing):
    assert tiny_wing.group("left_edge").size == 8
    assert tiny_wing.group("right_edge").size == 8
    assert tiny_wing.group("horizontal_edges").size == 12
    # rim of the left face, so contained in it
    assert np.isin(tiny_wing.group("left_edge"), tiny_wing.group("left")).all()


def test_wing_left_face_is_clamp_plane(tiny_wing):
    # "left" sits at z = 0 by convention
    assert np.allclose(tiny_wing.nodes[tiny_wing.group("left"), 2], 0.0)
    assert np.allclose(tiny_wing.nodes[tiny_wing.group("right"), 2], 1.0)


def test_kuhn_split_fills_the_box(tiny_wing):
    vol = 0.0
    for e in tiny_wing.elements:
        p = tiny_wing.nodes[e]
        vol += abs(np.linalg.det(p[1:] - p[0])) / 6.0
    assert vol == pytest.approx(1.0, abs=1e-12)


def test_wing_validate_passes(wing):
    wing.validate()


def test_generator_rejects_bad_counts():
    with pytest.raises(ValueError):
        generate_box_wing(0, 2, 2, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        generate_box_wing(2, 2, 2, (1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# tunnel generator

def test_tunnel_counts(small_tunnel):
    assert small_tunnel.node_count == 728
    assert small_tunnel.element_count == 3024
    assert small_tunnel.boundary_ids.size == 412
    assert small_tunnel.interior_ids.size == 316
    small_tunnel.validate()


def test_tunnel_groups_partition_boundary(small_tunnel):
    names = ("left", "right", "top", "bottom", "front", "rear", "obstacle")
    union = np.concatenate([small_tunnel.group(g) for g in names])
    assert union.size == np.unique(union).size
    np.testing.assert_array_equal(np.sort(union), small_tunnel.boundary_ids)


def test_tunnel_obstacle_on_inner_box(small_tunnel):
    # obstacle nodes lie on the surface of the centered 1.2^3 box
    pts = small_tunnel.nodes[small_tunnel.group("obstacle")]
    lo, hi = (4.0 - 1.2) / 2.0, (4.0 + 1.2) / 2.0
    on_face = np.isclose(pts, lo) | np.isclose(pts, hi)
    assert on_face.any(axis=1).all()
    inside = (pts >= lo - 1e-12).all(axis=1) & (pts <= hi + 1e-12).all(axis=1)
    assert inside.all()
    edges = small_tunnel.group("obstacle_edges")
    assert np.isin(edges, small_tunnel.group("obstacle")).all()


def test_tunnel_drops_cells_inside_obstacle(small_tunnel):
    # no element center may fall strictly inside the inner box
    centers = small_tunnel.nodes[small_tunnel.elements].mean(axis=1)
    lo, hi = (4.0 - 1.2) / 2.0, (4.0 + 1.2) / 2.0
    inside = (centers > lo).all(axis=1) & (centers < hi).all(axis=1)
    assert not inside.any()


def test_tunnel_rejects_obstacle_touching_wall():
    with pytest.raises(ValueError):
        generate_tunnel((2.0, 2.0, 2.0), (2.0, 1.0, 1.0), 4)


@pytest.mark.parametrize("inner, axis", [
    # a face within 1e-9 * extent of a wall would move that wall
    ((4.0 * (1 - 1e-12), 1.2, 1.2), "x"),
    ((1.2, 1.2, 4.0 - 2e-9), "z"),
    # two faces that close would become one plane
    ((1e-12, 1.2, 1.2), "x"),
    ((1.2, 1e-10, 1.2), "y"),
])
def test_tunnel_rejects_face_snapping_onto_wall_or_face(inner, axis):
    with pytest.raises(ValueError, match=f"at {axis} = "):
        generate_tunnel((4.0, 4.0, 4.0), inner, 6)


def test_tunnel_face_snaps_onto_interior_grid_plane():
    # the x faces land 2e-10 from the grid planes at 2/3 and 10/3, within
    # 1e-9 * 4, so those planes move onto the faces
    mesh = generate_tunnel((4.0, 4.0, 4.0), (8.0 / 3.0 - 4e-10, 1.2, 1.2), 6)
    xs = sorted(set(mesh.nodes[:, 0].tolist()))
    assert len(xs) == 7 and xs[0] == 0.0 and xs[-1] == 4.0
    assert xs[1] == (4.0 - (8.0 / 3.0 - 4e-10)) / 2.0
    assert all(mesh.group(g).size for g in ("front", "rear", "obstacle"))


# write_mesh's native JSON for each generator input, pinned when each
# generator built its own lattice
@pytest.mark.parametrize("build, digest", [
    (lambda: generate_box_wing(2, 2, 2, (1, 1, 1)),
     "76568741eb7b195fa579801b6d375914bc8c31249af1665fd6e8071b364556b5"),
    (lambda: generate_box_wing(8, 4, 25, (1.0, 0.25, 6.3)),
     "0ecbc120c30b2b4205d7104a58a7c7e0f0c1a8a50aeec894b5ad21f1f9367cc2"),
    (lambda: generate_tunnel((4, 4, 4), (1.2, 1.2, 1.2), 6),
     "ba1ad0833888eee7839c5afafe38e7259773e0e9bbb751549184f58f56bfc088"),
    (lambda: generate_tunnel((5, 5, 5), (1, 1, 1), 22),
     "87e997572e54099efb292478c7c4052223eeb859dce1d9d13ae9394a95d6b608"),
    (lambda: generate_tunnel((3, 4, 5), (0.7, 1.3, 2.9), (4, 7, 9)),
     "14163d528b5edf97486393cadeeb06f7ec8f1c21654ca73e2a9a2acb910d16ca"),
], ids=["wing-2", "wing-8-4-25", "tunnel-6", "tunnel-22", "tunnel-4-7-9"])
def test_generator_bytes_are_pinned(build, digest, tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Mesh invariants

def test_mesh_group_unknown(tiny_wing):
    with pytest.raises(ValueError, match="unknown group"):
        tiny_wing.group("nope")


def test_mesh_bbox_and_tolerance(tiny_wing):
    assert tiny_wing.bbox_diagonal == pytest.approx(np.sqrt(3.0))
    assert tiny_wing.coincidence_tolerance == pytest.approx(
        np.sqrt(3.0) * 1e-12)


def test_validate_catches_bad_element_index():
    nodes = np.eye(3)
    mesh = Mesh(3, np.vstack([nodes, [1.0, 1.0, 1.0]]),
                [[0, 1, 2, 9]], [0, 1, 2, 3], [])
    with pytest.raises(ValueError):
        mesh.validate()


def test_validate_catches_coincident_nodes():
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    mesh = Mesh(3, nodes, [[0, 1, 2, 3]], [0, 1, 2, 3, 4], [])
    with pytest.raises(ValueError, match="coincide"):
        mesh.validate()


def test_validate_catches_nonpartition():
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0]]
    mesh = Mesh(3, nodes, [[0, 1, 2, 3]], [0, 1], [2])  # node 3 unclaimed
    with pytest.raises(ValueError):
        mesh.validate()


def test_validate_catches_group_outside_boundary():
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0]]
    mesh = Mesh(3, nodes, [[0, 1, 2, 3]], [0, 1, 2], [3], {"g": [3]})
    with pytest.raises(ValueError, match="boundary"):
        mesh.validate()


def test_mesh_equality(tiny_wing):
    again = generate_box_wing(2, 2, 2, (1.0, 1.0, 1.0))
    assert tiny_wing == again
    assert tiny_wing != again.with_nodes(again.nodes + 0.5)


def test_deformed_meshes_share_the_topology(wing):
    moved = wing.with_nodes(wing.nodes + 0.5)
    assert moved.elements is wing.elements
    d = DisplacementField(wing.interior_ids[:3], np.ones((3, 3)))
    deformed = apply_deformation(wing, d)
    assert deformed.elements is wing.elements


def test_deformed_meshes_share_their_ids(wing):
    moved = wing.with_nodes(wing.nodes + 0.5)
    assert moved.boundary_ids is wing.boundary_ids
    assert moved.interior_ids is wing.interior_ids
    assert moved.groups.keys() == wing.groups.keys()
    assert all(moved.groups[k] is v for k, v in wing.groups.items())


def test_mesh_sorts_and_copies_ids_it_cannot_keep():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.4]]
    elements = np.array([[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]])
    boundary = np.array([3, 1, 0, 2])
    group = np.array([2, 0])
    frozen = np.array([3, 1])
    frozen.setflags(write=False)  # owned and read-only, but unsorted
    mesh = Mesh(2, nodes, elements, boundary, [4],
                {"g": group, "f": frozen, "list": [1, 0]})
    np.testing.assert_array_equal(mesh.boundary_ids, [0, 1, 2, 3])
    np.testing.assert_array_equal(mesh.groups["g"], [0, 2])
    np.testing.assert_array_equal(mesh.groups["f"], [1, 3])
    np.testing.assert_array_equal(mesh.groups["list"], [0, 1])
    for ids, given in ((mesh.boundary_ids, boundary), (mesh.groups["g"], group),
                       (mesh.groups["f"], frozen)):
        assert not np.shares_memory(ids, given)
    for ids in (mesh.boundary_ids, mesh.interior_ids, *mesh.groups.values()):
        assert ids.dtype == np.int64 and not ids.flags.writeable
    boundary[0] = 0
    np.testing.assert_array_equal(mesh.boundary_ids, [0, 1, 2, 3])
    # sorted, frozen, owned int64 ids are kept; a frozen view is not
    kept = Mesh(2, nodes, elements, mesh.boundary_ids, mesh.interior_ids)
    assert kept.boundary_ids is mesh.boundary_ids
    view = np.array([0, 1, 2, 3, 9])[:4]
    view.setflags(write=False)
    assert not np.shares_memory(Mesh(2, nodes, elements, view, [4]).boundary_ids,
                                view)
    scalar = Mesh(2, nodes, elements, boundary, 4)
    np.testing.assert_array_equal(scalar.interior_ids, [4])


def test_mesh_copies_a_writeable_element_array():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    elements = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = Mesh(2, nodes, elements, [0, 1, 2, 3], [])
    assert not np.shares_memory(mesh.elements, elements)
    assert not mesh.elements.flags.writeable
    elements[0, 0] = 3
    np.testing.assert_array_equal(mesh.elements, [[0, 1, 2], [1, 3, 2]])
    # a frozen view is copied too: its base may still be written
    view = np.array([[0, 1, 2], [1, 3, 2], [0, 0, 0]])[:2]
    view.setflags(write=False)
    assert not np.shares_memory(Mesh(2, nodes, view, [0, 1, 2, 3], []).elements,
                                view)


@pytest.mark.parametrize("elements", [[], np.empty((0, 3), dtype=np.int64),
                                      np.empty(0)])
def test_mesh_without_elements(elements):
    mesh = Mesh(2, [[0.0, 0.0], [1.0, 0.0]], elements, [0, 1], [])
    assert mesh.elements.shape == (0, 3)
    assert mesh.elements.dtype == np.int64
    assert not mesh.elements.flags.writeable
    assert mesh.with_nodes(mesh.nodes).elements.shape == (0, 3)


def test_validate_names_the_lowest_coincident_pair():
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    mesh = Mesh(3, nodes, [[0, 1, 2, 3]], [0, 1, 2, 3, 4, 5], [])
    with pytest.raises(ValueError, match="nodes 1 and 4 coincide"):
        mesh.validate()


def test_bbox_and_tolerance_are_computed_once(tiny_wing):
    mesh = generate_box_wing(2, 2, 2, (1.0, 1.0, 1.0))
    first = mesh.coincidence_tolerance
    assert "bbox_diagonal" in vars(mesh)
    assert mesh.coincidence_tolerance is first
    assert first == tiny_wing.coincidence_tolerance


# ---------------------------------------------------------------------------
# coincident_pair against a brute-force oracle

def brute_pair(points, tol):
    """Lowest (i, j), i < j, with cdist distance <= tol, or None."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        return None
    i, j = np.nonzero(np.triu(cdist(points, points) <= tol, k=1))
    return min(zip(i.tolist(), j.tolist())) if i.size else None


def plant(seed, n, dim, offsets):
    """Uniform cloud in [0, 1)^dim with point ``b`` moved to ``a + offset``
    for each ((a, b), offset); returns the points and the planted distances."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, dim))
    dists = []
    for (a, b), length in offsets:
        step = rng.normal(size=dim)
        pts[b] = pts[a] + length * step / np.linalg.norm(step)
        dists.append(float(cdist(pts[[a]], pts[[b]])[0, 0]))
    return pts, dists


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_coincident_pair_at_and_around_tol(dim, seed):
    pts, (dist,) = plant(seed, 400, dim, [((17, 311), 3e-9)])
    at = dist
    inside = float(np.nextafter(dist, np.inf))
    outside = float(np.nextafter(dist, 0.0))
    for tol, expected in ((at, (17, 311)), (inside, (17, 311)),
                          (outside, None)):
        assert brute_pair(pts, tol) == expected
        assert coincident_pair(pts, tol) == expected


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_coincident_pair_reports_the_lowest_pair(dim, seed):
    # planted pairs (40, 300), (5, 250), (5, 120) all fall within tol; the
    # lowest is (5, 120) although (40, 300) is the closest
    pts, dists = plant(seed, 400, dim, [((40, 300), 1e-10), ((5, 250), 5e-9),
                                        ((120, 5), 4e-9)])
    tol = max(dists) * 1.5
    assert brute_pair(pts, tol) == (5, 120)
    assert coincident_pair(pts, tol) == (5, 120)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 60),
       dim=st.sampled_from([1, 2, 3]),
       tol=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0 ** 0.5, 3.0]))
def test_coincident_pair_matches_oracle_on_integer_grids(seed, n, dim, tol):
    # small integer coordinates give exact duplicates and many pairs at
    # exactly tol
    pts = np.random.default_rng(seed).integers(0, 4, size=(n, dim)) * 1.0
    assert coincident_pair(pts, tol) == brute_pair(pts, tol)


def test_coincident_pair_exact_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [1.0, 2.0],
                    [3.0, 1.0]])
    assert coincident_pair(pts, 0.0) == (1, 3)
    assert coincident_pair(pts, 1e-12) == (1, 3)
    assert coincident_pair(pts[[0, 2, 4]], 0.0) == (1, 2)


def test_coincident_pair_small_inputs():
    assert coincident_pair(np.empty((0, 3)), 1.0) is None
    assert coincident_pair([[0.0, 0.0, 0.0]], 1.0) is None
    assert coincident_pair([[0.0, 0.0], [0.5, 0.0]], 0.5) == (0, 1)
    assert coincident_pair([[0.0, 0.0], [0.5, 0.0]], 0.4) is None


@pytest.mark.parametrize("dim", [2, 3])
def test_coincident_pair_on_plane_orthogonal_to_sweep(dim):
    # every projection on the sweep direction is equal up to rounding, so
    # no pair is ruled out by the sort and all are checked
    direction = np.sqrt(np.arange(1.0, dim + 1.0))
    direction /= np.linalg.norm(direction)
    basis = np.linalg.qr(np.column_stack(
        [direction, np.eye(dim)[:, :dim - 1]]))[0][:, 1:]
    rng = np.random.default_rng(dim)
    pts = 0.7 * direction + rng.uniform(-1.0, 1.0, size=(150, dim - 1)) @ basis.T
    proj = pts @ direction
    assert np.ptp(proj) < 1e-14
    tol = 0.5 * float(cdist(pts, pts)[np.triu_indices(150, 1)].min())
    assert coincident_pair(pts, tol) is None
    pts[97] = pts[12] + 0.5 * tol * basis[:, 0]
    assert brute_pair(pts, tol) == (12, 97)
    assert coincident_pair(pts, tol) == (12, 97)


def test_coincident_pair_one_ulp_apart_far_from_origin():
    # near 1e6 a one-ulp step is ~1.2e-10 while the projections round by
    # up to ~2.3e-10: without its rounding slack the sweep misses pairs
    rng = np.random.default_rng(11)
    base = 1e6 + rng.uniform(size=(100, 3))
    twin = base.copy()
    rows, axes = np.arange(100), rng.integers(0, 3, size=100)
    twin[rows, axes] = np.nextafter(base[rows, axes], np.inf)
    for a, b in zip(base, twin):
        pts = np.vstack([a, b])
        tol = float(cdist(pts[:1], pts[1:])[0, 0])
        assert coincident_pair(pts, tol) == brute_pair(pts, tol) == (0, 1)
        outside = float(np.nextafter(tol, 0.0))
        assert coincident_pair(pts, outside) is brute_pair(pts, outside) is None


# ---------------------------------------------------------------------------
# quality

def test_right_tet_quality():
    # unit right tetrahedron: three unit legs, three sqrt(2) diagonals
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0]]
    mesh = Mesh(3, nodes, [[0, 1, 2, 3]], [0, 1, 2, 3], [])
    assert element_quality(mesh, 0) == pytest.approx(np.sqrt(2.0))


def test_kuhn_tets_quality(tiny_wing):
    # all Kuhn tets of a cube share edges 1, sqrt(2), sqrt(3) scaled by h
    max_q, mean_q = mesh_quality(tiny_wing)
    assert max_q == pytest.approx(np.sqrt(3.0))
    assert mean_q == pytest.approx(np.sqrt(3.0))


def test_degenerate_element_raises():
    # nodes 1 and 3 coincide, so the element has a zero-length edge
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.0, 0.0]]
    mesh = Mesh(2, nodes, [[0, 1, 3]], [0, 1, 2, 3], [])
    with pytest.raises(DegenerateElementError):
        element_quality(mesh, 0)


def quality_by_norms(mesh):
    """Per-element edge-length ratios from the norms of all edge vectors:
    the form mesh_quality had before it took roots of the extremes only."""
    verts = mesh.nodes[mesh.elements]
    pairs = itertools.combinations(range(mesh.dim + 1), 2)
    lengths = np.linalg.norm(
        np.stack([verts[:, i] - verts[:, j] for i, j in pairs], axis=1), axis=2)
    return lengths.max(axis=1) / lengths.min(axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["lattice", "wing", "tunnel"])
def test_quality_is_bitwise_the_norm_form(kind, seed, wing, small_tunnel):
    mesh = {"lattice": make_lattice2d(7, 5, (1.0, 0.6)), "wing": wing,
            "tunnel": small_tunnel}[kind]
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-1e-3, 1e-3, mesh.nodes.shape) * mesh.bbox_diagonal
    mesh = mesh.with_nodes(mesh.nodes + jitter)
    q = quality_by_norms(mesh)
    assert mesh_quality(mesh) == (float(q.max()), float(q.mean()))
    for e in range(0, mesh.element_count, 7):
        assert element_quality(mesh, e) == q[e]


def test_mesh_quality_names_the_degenerate_element(tiny_wing):
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.0, 0.0]]
    mesh = Mesh(2, nodes, [[0, 1, 2], [0, 1, 3]], [0, 1, 2, 3], [])
    with pytest.raises(DegenerateElementError, match="element 1 "):
        mesh_quality(mesh)
    a, b = tiny_wing.elements[5, :2]
    nodes = tiny_wing.nodes.copy()
    nodes[b] = nodes[a]
    with pytest.raises(DegenerateElementError):
        mesh_quality(tiny_wing.with_nodes(nodes))


def quality_one_shot(mesh):
    """(max, mean) from the squared edges of all elements at once: the
    form mesh_quality had before it went block by block."""
    sq = _squared_edges(mesh, mesh.elements)
    q = np.sqrt(sq.max(axis=1)) / np.sqrt(sq.min(axis=1))
    return float(q.max()), float(q.mean())


@pytest.mark.parametrize("block", [1, 7, "all"])
@pytest.mark.parametrize("kind", ["lattice", "wing", "tunnel"])
def test_blocked_quality_is_bitwise_the_one_shot_form(kind, block, wing,
                                                      small_tunnel,
                                                      monkeypatch):
    mesh = {"lattice": make_lattice2d(7, 5, (1.0, 0.6)), "wing": wing,
            "tunnel": small_tunnel}[kind]
    jitter = np.random.default_rng(3).uniform(-1e-3, 1e-3, mesh.nodes.shape)
    mesh = mesh.with_nodes(mesh.nodes + jitter * mesh.bbox_diagonal)
    size = mesh.element_count + 5 if block == "all" else block
    monkeypatch.setattr(mesh_module, "QUALITY_BLOCK", size)
    assert mesh_quality(mesh) == quality_one_shot(mesh)


def lattice_with_degenerate(bad):
    """7x5 lattice whose elements ``bad`` each get a zero-length edge: a
    new node, used by that element only, put on one of its vertices."""
    mesh = make_lattice2d(7, 5, (1.0, 0.6))
    nodes, elements = mesh.nodes, mesh.elements.copy()
    for e in bad:
        elements[e, 0] = nodes.shape[0]
        nodes = np.vstack([nodes, nodes[elements[e, 1]]])
    ids = np.arange(nodes.shape[0])
    return Mesh(2, nodes, elements, ids, [])


@pytest.mark.parametrize("bad, named", [((6,), 6), ((7,), 7), ((8,), 8),
                                        ((20, 7), 7), ((15, 30), 15)])
def test_blocked_quality_names_the_global_element(bad, named, monkeypatch):
    monkeypatch.setattr(mesh_module, "QUALITY_BLOCK", 7)
    mesh = lattice_with_degenerate(bad)
    with pytest.raises(DegenerateElementError, match=f"element {named} "):
        mesh_quality(mesh)
    for e in bad:
        with pytest.raises(DegenerateElementError):
            element_quality(mesh, e)


def test_apply_deformation_moves_only_listed_nodes(tiny_wing):
    d = DisplacementField([13], [[0.1, 0.0, 0.0]])
    moved = apply_deformation(tiny_wing, d)
    assert moved.nodes[13, 0] == pytest.approx(0.6)
    others = np.delete(np.arange(27), 13)
    np.testing.assert_array_equal(moved.nodes[others], tiny_wing.nodes[others])


# ---------------------------------------------------------------------------
# file formats

def test_json_roundtrip_exact(wing, tmp_path):
    path = tmp_path / "wing.json"
    write_mesh(wing, path)
    back = read_mesh(path)
    assert back == wing
    assert set(back.groups) == set(wing.groups)


def dumped(mesh, tmp_path):
    """The bytes ``json.dump`` writes for ``mesh``'s document, newline
    included."""
    doc = {"dim": mesh.dim, "nodes": mesh.nodes.tolist(),
           "elements": mesh.elements.tolist(),
           "boundary": mesh.boundary_ids.tolist(),
           "interior": mesh.interior_ids.tolist(),
           "groups": {k: v.tolist() for k, v in mesh.groups.items()}}
    expected = tmp_path / "dump.json"
    with open(expected, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return expected.read_bytes()


def written(mesh, tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    return path.read_bytes()


def test_json_bytes_match_json_dump(tiny_wing, tmp_path):
    assert written(tiny_wing, tmp_path) == dumped(tiny_wing, tmp_path)


def test_json_bytes_match_json_dump_2d(lattice11, tmp_path):
    mesh = make_lattice2d(9, 4, (1.0, 0.4))
    for m in (lattice11, mesh):
        assert written(m, tmp_path) == dumped(m, tmp_path)


@pytest.mark.parametrize("node_count", [1, 2, 10, 11, 100, 101, 1000, 1001,
                                        10000, 10001, 10002])
def test_json_bytes_at_every_digit_count(node_count, tmp_path):
    # element ids run across 9/10, 99/100, 999/1000 and 9999/10000 up to
    # the last node, in rows that mix short and long ids
    ids = np.arange(node_count)
    rows = np.concatenate([ids, ids[::-1], ids[::7]])
    rows = rows[:rows.size // 3 * 3].reshape(-1, 3)
    nodes = np.random.default_rng(node_count).uniform(size=(node_count, 2))
    mesh = Mesh(2, nodes, rows, ids, [], {"all": ids})
    assert written(mesh, tmp_path) == dumped(mesh, tmp_path)


def test_json_bytes_of_awkward_coordinates(tmp_path):
    specials = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e16, -1e16,
                0.1, -0.1, 1.0, 123456789.125, 2.0 ** 60, 1e-7]
    jitter = np.random.default_rng(5).uniform(-1.0, 1.0, 30) * 10.0 ** (
        np.arange(30) % 21 - 10)
    coords = np.concatenate([specials, jitter])
    coords = coords[:coords.size // 3 * 3].reshape(-1, 3)
    ids = np.arange(coords.shape[0])
    mesh = Mesh(3, coords, [[0, 1, 2, 3], [4, 5, 6, 7]], ids, [])
    text = written(mesh, tmp_path)
    assert text == dumped(mesh, tmp_path)
    assert np.array_equal(json.loads(text)["nodes"], coords)
    assert b"-0.0, 0.0, 1e-300" in text and b"5e-324" in text


def test_json_bytes_without_elements_or_group_members(tmp_path):
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    for mesh in (Mesh(2, nodes, [], [0, 1, 2], [], {"empty": [], "all": [0, 1, 2]}),
                 Mesh(2, nodes, [], [0, 1, 2], []),
                 Mesh(3, np.empty((0, 3)), [], [], [], {"g": []})):
        text = written(mesh, tmp_path)
        assert text == dumped(mesh, tmp_path)
        assert b'"elements": []' in text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_mesh_refuses_nonfinite_coordinates(tiny_wing, tmp_path, bad):
    nodes = tiny_wing.nodes.copy()
    nodes[13, 1] = bad
    path = tmp_path / "mesh.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_mesh(tiny_wing.with_nodes(nodes), path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [-1, 27, 10 ** 6])
def test_write_mesh_refuses_element_ids_out_of_range(tiny_wing, tmp_path, bad):
    elements = tiny_wing.elements.copy()
    elements[5, 2] = bad
    mesh = Mesh(3, tiny_wing.nodes, elements, tiny_wing.boundary_ids,
                tiny_wing.interior_ids)
    path = tmp_path / "mesh.json"
    with pytest.raises(ValueError, match="out of range"):
        write_mesh(mesh, path)
    assert not path.exists()


def test_json_roundtrip_2d(lattice11, tmp_path):
    path = tmp_path / "lat.json"
    write_mesh(lattice11, path)
    assert read_mesh(path) == lattice11


def test_read_mesh_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3,\n  "nodes": [[0, 0, 0],\n')
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert err.value.line is not None


@pytest.mark.parametrize("where, value", [
    ("elements", 0.4), ("boundary", 0.4), ("groups", 0.4), ("elements", "3"),
    ("elements", True), ("boundary", True)])
def test_read_mesh_rejects_non_integer_ids(tiny_wing, tmp_path, where, value):
    path = tmp_path / "mesh.json"
    write_mesh(tiny_wing, path)
    doc = json.loads(path.read_text())
    ids = {"elements": doc["elements"][0], "boundary": doc["boundary"],
           "groups": doc["groups"]["left"]}[where]
    ids[1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshFormatError, match="integers"):
        read_mesh(path)


def test_read_mesh_missing_key(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": 3, "nodes": [[0.0, 0.0, 0.0]]}))
    with pytest.raises(MeshFormatError):
        read_mesh(path)


def test_write_mesh_unknown_format(tiny_wing, tmp_path):
    with pytest.raises(ValueError):
        write_mesh(tiny_wing, tmp_path / "m.bin", format="stl")


def test_vtk_writer_shape(tiny_wing, tmp_path):
    path = tmp_path / "m.vtk"
    write_mesh(tiny_wing, path, format="vtk-legacy-ascii")
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile Version")
    assert any(line == "POINTS 27 double" for line in text)
    assert any(line.startswith("CELLS 48 ") for line in text)
    # 10 is the tetrahedron cell type
    idx = text.index("CELL_TYPES 48")
    assert text[idx + 1].strip() == "10"


def test_vtk_writer_2d_pads_z(lattice11, tmp_path):
    path = tmp_path / "lat.vtk"
    write_mesh(lattice11, path, format="vtk-legacy-ascii")
    text = path.read_text().splitlines()
    points_at = next(i for i, l in enumerate(text) if l.startswith("POINTS"))
    first = text[points_at + 1].split()
    assert len(first) == 3 and float(first[2]) == 0.0
    idx = text.index(f"CELL_TYPES {lattice11.element_count}")
    assert text[idx + 1].strip() == "5"  # triangle

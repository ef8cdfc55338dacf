"""Mesh containers, generators, quality metric, and file formats."""

import json

import numpy as np
import pytest

import morphkit as mk
from morphkit import (DisplacementField, Mesh, MeshFormatError,
                      DegenerateElementError, apply_deformation,
                      element_quality, generate_box_wing, generate_tunnel,
                      merge_fields, mesh_quality, read_mesh, write_mesh)


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


def test_json_bytes_match_json_dump(tiny_wing, tmp_path):
    path = tmp_path / "wing.json"
    write_mesh(tiny_wing, path)
    doc = {"dim": tiny_wing.dim, "nodes": tiny_wing.nodes.tolist(),
           "elements": tiny_wing.elements.tolist(),
           "boundary": tiny_wing.boundary_ids.tolist(),
           "interior": tiny_wing.interior_ids.tolist(),
           "groups": {k: v.tolist() for k, v in tiny_wing.groups.items()}}
    expected = tmp_path / "dump.json"
    with open(expected, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()


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

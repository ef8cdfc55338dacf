"""Displacement laws: bend, rigid rotation, tabulated lookup."""

import gc
import json
import re
import weakref

import numpy as np
import pytest

import morphkit as mk
from morphkit import laws
from morphkit import (DisplacementField, DomainError, bend_law, evaluate,
                      read_tabulated, rotation_law, sample_domain,
                      tabulated_law)


# ---------------------------------------------------------------------------
# bend

def test_bend_is_quadratic_in_span(tiny_wing):
    # deflection mu * z^2 on the vertical component, nothing else
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0))
    d = evaluate(law, tiny_wing, 0.5)
    z = tiny_wing.nodes[tiny_wing.boundary_ids, 2]
    np.testing.assert_allclose(d.vectors[:, 1], 0.5 * z**2, atol=1e-15)
    assert np.all(d.vectors[:, 0] == 0.0)
    assert np.all(d.vectors[:, 2] == 0.0)


def test_bend_uses_x_in_2d(lattice11):
    law = bend_law(lattice11.boundary_ids, (0.0, 1.0))
    d = evaluate(law, lattice11, 0.25)
    x = lattice11.nodes[lattice11.boundary_ids, 0]
    np.testing.assert_allclose(d.vectors[:, 1], 0.25 * x**2, atol=1e-15)


def test_bend_is_linear_in_mu(tiny_wing):
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0))
    d1 = evaluate(law, tiny_wing, 0.2)
    d2 = evaluate(law, tiny_wing, 0.4)
    np.testing.assert_allclose(d2.vectors, 2.0 * d1.vectors, atol=1e-15)


def test_bend_clamp_zeroes_the_left_face(tiny_wing):
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0), clamp_groups=("left",))
    d = evaluate(law, tiny_wing, 1.0)
    clamped = np.isin(tiny_wing.boundary_ids, tiny_wing.group("left"))
    assert np.all(d.vectors[clamped] == 0.0)
    assert np.any(d.vectors[~clamped] != 0.0)


def test_clamp_overlapping_groups_and_foreign_nodes(tiny_wing):
    # "left" and "left_edge" overlap, and "right" holds nodes that are not
    # control ids of this law; the field matches a sort-based membership test
    ids = np.setdiff1d(tiny_wing.boundary_ids, tiny_wing.group("right"))[::-1]
    groups = ("left", "left_edge", "right", "top")
    law = rotation_law(ids, (0.0, 30.0), pivot=(0.5, 0.5, 0.5), axis="x",
                       clamp_groups=groups)
    d = evaluate(law, tiny_wing, 20.0)
    free = rotation_law(ids, (0.0, 30.0), pivot=(0.5, 0.5, 0.5), axis="x")
    expected = evaluate(free, tiny_wing, 20.0).vectors.copy()
    expected[np.isin(ids, np.concatenate(
        [tiny_wing.group(g) for g in groups]))] = 0.0
    np.testing.assert_array_equal(d.indices, ids)
    np.testing.assert_array_equal(d.vectors, expected)
    assert np.any(d.vectors != 0.0)


OUTER_FACES = ("left", "right", "top", "bottom", "front", "rear")


def rotation_matrix(dim, axis, radians):
    """R written out element by element: the reference for the Rᵀ that
    laws._rotation_transpose builds as one array."""
    c, s = np.cos(radians), np.sin(radians)
    if dim == 2:
        return np.array([[c, -s], [s, c]])
    k = "xyz".index(axis)
    rot = np.eye(3)
    i, j = (k + 1) % 3, (k + 2) % 3
    rot[i, i] = c
    rot[j, j] = c
    rot[j, i] = s
    rot[i, j] = -s
    return rot


def explicit_field(kind, mesh, ids, mu):
    """The law's field written out from its definition, no clamping."""
    if kind == "bend":
        vec = np.zeros((ids.size, 3))
        vec[:, 1] = mu * mesh.nodes[ids, 2] ** 2
        return vec
    if kind == "rotation":
        rel = mesh.nodes[ids] - np.array([2.0, 2.0, 2.0])
        return rel @ rotation_matrix(3, "z", np.deg2rad(mu)).T - rel
    return np.sin(mesh.nodes[ids] * mu)


def make_law(kind, mesh, ids, groups, mus):
    if kind == "bend":
        return bend_law(ids, (-36.0, 0.0), clamp_groups=groups)
    if kind == "rotation":
        return rotation_law(ids, (-36.0, 0.0), pivot=(2.0, 2.0, 2.0),
                            clamp_groups=groups)
    table = {mu: DisplacementField(ids, explicit_field(kind, mesh, ids, mu))
             for mu in mus}
    return tabulated_law(ids, (-36.0, 0.0), table, clamp_groups=groups)


@pytest.mark.parametrize("kind", ["bend", "rotation", "tabulated"])
def test_evaluate_is_bitwise_with_and_without_clamps(small_tunnel, kind):
    # the tunnel's outer faces hold most boundary ids, as in the benchmark;
    # clamped rows are +0.0 and free rows the unclamped law, bit for bit
    mesh = small_tunnel
    ids = mesh.boundary_ids
    mus = np.linspace(-36.0, 0.0, 50).tolist()
    free = make_law(kind, mesh, ids, (), mus)
    clamped = make_law(kind, mesh, ids, OUTER_FACES, mus)
    mask = np.isin(ids, np.concatenate([mesh.group(g) for g in OUTER_FACES]))
    assert 0 < np.count_nonzero(~mask) < mask.sum()
    for mu in mus:
        expected = explicit_field(kind, mesh, ids, mu)
        assert evaluate(free, mesh, mu).vectors.tobytes() == expected.tobytes()
        expected[mask] = 0.0
        got = evaluate(clamped, mesh, mu)
        np.testing.assert_array_equal(got.indices, ids)
        assert got.vectors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["bend", "rotation"])
@pytest.mark.parametrize("moved_first", [False, True])
def test_law_answers_each_mesh_for_itself(small_tunnel, kind, moved_first):
    # one law alternates between two meshes of one topology; each call
    # gives that mesh's own field, bit for bit the explicit form
    moved = small_tunnel.with_nodes(small_tunnel.nodes * 1.05 + 0.1)
    ids = small_tunnel.boundary_ids
    law = make_law(kind, small_tunnel, ids, OUTER_FACES, [])
    mask = np.isin(ids, np.concatenate(
        [small_tunnel.group(g) for g in OUTER_FACES]))
    meshes = [moved, small_tunnel] if moved_first else [small_tunnel, moved]
    for mesh in meshes + meshes:
        expected = explicit_field(kind, mesh, ids, -12.5)
        expected[mask] = 0.0
        got = evaluate(law, mesh, -12.5)
        assert got.vectors.tobytes() == expected.tobytes()
    a, b = (evaluate(law, m, -12.5).vectors for m in (small_tunnel, moved))
    assert a.tobytes() != b.tobytes()


def test_failed_evaluate_caches_nothing(tiny_wing, lattice11):
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0), clamp_groups=("left",))
    with pytest.raises(ValueError, match="unknown group"):
        evaluate(law, lattice11, 0.5)   # the lattice has no group "left"
    assert law._resolved is None
    expected = evaluate(bend_law(tiny_wing.boundary_ids, (0.0, 1.0)),
                        tiny_wing, 0.5).vectors.copy()
    expected[np.isin(tiny_wing.boundary_ids, tiny_wing.group("left"))] = 0.0
    np.testing.assert_array_equal(evaluate(law, tiny_wing, 0.5).vectors,
                                  expected)
    with pytest.raises(ValueError, match="unknown group"):
        evaluate(law, lattice11, 0.5)
    assert law._resolved[0]() is tiny_wing

    far = bend_law([100], (0.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        evaluate(far, tiny_wing, 0.5)   # 27 nodes
    assert far._resolved is None
    x = lattice11.nodes[100, 0]
    np.testing.assert_array_equal(evaluate(far, lattice11, 0.5).vectors,
                                  [[0.0, 0.5 * x**2]])


def test_law_cache_does_not_keep_the_mesh_alive(tiny_wing):
    mesh = tiny_wing.with_nodes(tiny_wing.nodes)
    ref = weakref.ref(mesh)
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0), clamp_groups=("left",))
    evaluate(law, mesh, 0.5)
    del mesh
    gc.collect()
    assert ref() is None
    assert law._resolved[0]() is None   # a dead key matches no mesh
    evaluate(law, tiny_wing, 0.5)


def test_laws_compare_by_identity():
    # field-wise == would ask the truth value of an id array and raise
    a = bend_law([1, 2, 3], (0, 1))
    b = bend_law([1, 2, 3], (0, 1))
    assert a == a and a != b
    assert {a: "a", b: "b"}[b] == "b"


def test_evaluate_rejects_nonfinite_values(wing):
    # mu * z^2 overflows: the bound |mu| * max z^2 is inf, so the field is
    # scanned and refused
    law = bend_law(wing.boundary_ids, (0.0, 1e308))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        evaluate(law, wing, 1e308)


def test_evaluate_scans_the_free_rows_of_a_clamped_law(wing):
    # only the free rows are computed, and their bound sends the field to
    # the scan; the overflow lies in them
    law = bend_law(wing.boundary_ids, (0.0, 1e308), clamp_groups=("left",))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        evaluate(law, wing, 1e308)


def test_evaluated_fields_are_frozen(tiny_wing):
    for law in (bend_law(tiny_wing.boundary_ids, (0.0, 1.0)),
                rotation_law(tiny_wing.boundary_ids, (0.0, 1.0),
                             pivot=(0.5, 0.5, 0.5), clamp_groups=("left",))):
        d = evaluate(law, tiny_wing, 0.5)
        assert not d.vectors.flags.writeable
        assert not d.indices.flags.writeable


# ---------------------------------------------------------------------------
# rotation

def test_rotation_90deg_about_z():
    # (1,0,0) rotated +90 degrees lands on (0,1,0): displacement (-1,1,0)
    nodes = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
             [0.0, 1.0, 0.0]]
    mesh = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64),
                   [0, 1, 2, 3], [])
    law = rotation_law([0], (0.0, 90.0), pivot=(0.0, 0.0, 0.0))
    d = evaluate(law, mesh, 90.0)
    np.testing.assert_allclose(d.vectors, [[-1.0, 1.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("axis,point,expected", [
    ("x", [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]),   # y-axis unit -> z-axis unit
    ("y", [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]),   # z-axis unit -> x-axis unit
    ("z", [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]),  # y-axis unit -> -x-axis unit
])
def test_rotation_right_handed(axis, point, expected):
    nodes = [point, [5.0, 5.0, 5.0]]
    mesh = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64), [0, 1], [])
    law = rotation_law([0], (0.0, 90.0), pivot=(0.0, 0.0, 0.0), axis=axis)
    d = evaluate(law, mesh, 90.0)
    np.testing.assert_allclose(d.vectors[0], expected, atol=1e-15)


def test_rotation_about_pivot():
    nodes = [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    mesh = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64), [0, 1], [])
    law = rotation_law([0], (0.0, 180.0), pivot=(1.0, 1.0, 0.0))
    d = evaluate(law, mesh, 180.0)
    # point reflects through the pivot in the xy plane
    np.testing.assert_allclose(d.vectors[0], [-2.0, 0.0, 0.0], atol=1e-12)


def test_rotation_preserves_distance_to_pivot(wing):
    pivot = np.array([0.5, 0.125, 0.0])
    law = rotation_law(wing.boundary_ids, (-36.0, 0.0), pivot=pivot)
    d = evaluate(law, wing, -17.3)
    before = np.linalg.norm(wing.nodes[wing.boundary_ids] - pivot, axis=1)
    after = np.linalg.norm(wing.nodes[wing.boundary_ids] + d.vectors - pivot,
                           axis=1)
    np.testing.assert_allclose(after, before, rtol=1e-12)


@pytest.mark.parametrize("dim, axis", [(3, "x"), (3, "y"), (3, "z"),
                                       (2, "z")], ids=["x", "y", "z", "2d"])
def test_rotation_is_bitwise_the_explicit_form(wing, lattice11, dim, axis):
    # Rᵀ built as one array gives the element-wise R's field bit for bit
    mesh = wing if dim == 3 else lattice11
    pivot = np.array([0.5, 0.125, 1.0][:dim])
    law = rotation_law(mesh.boundary_ids, (-36.0, 36.0), pivot=pivot,
                       axis=axis)
    rel = mesh.nodes[mesh.boundary_ids] - pivot
    for mu in (-36.0, -17.3, -1e-9, 0.0, 2.5, 30.0, 36.0):
        rot = rotation_matrix(dim, axis, np.deg2rad(mu))
        assert laws._rotation_transpose(dim, axis, np.deg2rad(mu)).tobytes() \
            == np.ascontiguousarray(rot.T).tobytes()
        got = evaluate(law, mesh, mu).vectors
        assert got.tobytes() == (rel @ rot.T - rel).tobytes()


@pytest.mark.parametrize("node, pivot", [
    ((1.5e308, 0.0), (-1.5e308, 0.0)),   # node - pivot overflows
    ((1e308, 1e308), (0.0, 0.0)),        # node - pivot is finite, R x is not
])
def test_rotation_rejects_nonfinite_values(node, pivot):
    # the bound (dim + 1) * max|node - pivot| is inf, so the field is scanned
    mesh = mk.Mesh(2, [node, [0.0, 0.0]], np.empty((0, 3), dtype=np.int64),
                   [0, 1], [])
    law = rotation_law([0], (0.0, 90.0), pivot=pivot)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        evaluate(law, mesh, 90.0)


def test_rotation_2d():
    nodes = [[1.0, 0.0], [0.0, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [])
    law = rotation_law([0], (0.0, 90.0), pivot=(0.0, 0.0))
    d = evaluate(law, mesh, 90.0)
    np.testing.assert_allclose(d.vectors, [[-1.0, 1.0]], atol=1e-15)


def test_rotation_2d_rejects_other_axes():
    nodes = [[1.0, 0.0], [0.0, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [])
    law = rotation_law([0], (0.0, 90.0), pivot=(0.0, 0.0), axis="x")
    with pytest.raises(ValueError, match="'z'"):
        evaluate(law, mesh, 45.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rotation_rejects_nonfinite_pivot(bad):
    with pytest.raises(ValueError, match=r"pivot \[.*\] is not finite"):
        rotation_law([0], (0.0, 1.0), pivot=(0.0, bad, 0.0))


def test_rotation_validates_pivot_dim(tiny_wing):
    law = rotation_law([0], (0.0, 1.0), pivot=(0.0, 0.0))
    with pytest.raises(ValueError, match="pivot"):
        evaluate(law, tiny_wing, 0.5)


# ---------------------------------------------------------------------------
# domain and law plumbing

def test_domain_is_inclusive(tiny_wing):
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0))
    evaluate(law, tiny_wing, 0.0)
    evaluate(law, tiny_wing, 1.0)
    with pytest.raises(DomainError):
        evaluate(law, tiny_wing, 1.0 + 1e-12)
    with pytest.raises(DomainError):
        evaluate(law, tiny_wing, -0.1)


def test_evaluate_takes_numbers_not_strings(tiny_wing):
    law = bend_law(tiny_wing.boundary_ids, (0.0, 1.0))
    expected = evaluate(law, tiny_wing, 0.5).vectors
    for mu in (np.float64(0.5), np.float32(0.5)):
        assert evaluate(law, tiny_wing, mu).vectors.tobytes() \
            == expected.tobytes()
    np.testing.assert_array_equal(evaluate(law, tiny_wing, 1).vectors,
                                  evaluate(law, tiny_wing, 1.0).vectors)
    for mu in ("0.01", None, True, np.float64(np.nan)):
        with pytest.raises(ValueError, match=re.escape(
                f"mu must be a finite number, got {mu!r}")):
            evaluate(law, tiny_wing, mu)


def test_law_validation():
    with pytest.raises(ValueError, match="kind"):
        mk.DisplacementLaw("stretch", [0], (0.0, 1.0))
    with pytest.raises(ValueError, match="empty"):
        bend_law([0], (1.0, 0.0))
    with pytest.raises(ValueError, match="axis"):
        rotation_law([0], (0.0, 1.0), pivot=(0.0, 0.0, 0.0), axis="w")
    with pytest.raises(ValueError, match="table"):
        tabulated_law([0], (0.0, 1.0), {})
    with pytest.raises(ValueError, match="duplicates"):
        bend_law([3, 1, 3], (0.0, 1.0))
    # domain bounds and table keys are numbers, not cast
    for domain in ((None, 1.0), ("0", 1.0), (True, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="domain bound must be a finite"):
            bend_law([0], domain)
        with pytest.raises(ValueError, match="domain bound must be a finite"):
            sample_domain(domain, 3, seed=0)
    field = DisplacementField([0], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="tabulated mu must be a finite"):
        tabulated_law([0], (0.0, 1.0), {"0.5": field})


def test_evaluate_checks_control_ids(lattice11):
    law = bend_law([500], (0.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        evaluate(law, lattice11, 0.5)


# ---------------------------------------------------------------------------
# tabulated

def test_tabulated_exact_lookup(tiny_wing):
    ids = tiny_wing.boundary_ids
    half = DisplacementField(ids, np.full((ids.size, 3), 0.5))
    law = tabulated_law(ids, (0.0, 1.0), {0.5: half})
    d = evaluate(law, tiny_wing, 0.5)
    np.testing.assert_array_equal(d.vectors, half.vectors)
    with pytest.raises(KeyError, match="no entry"):
        evaluate(law, tiny_wing, 0.25)


def test_tabulated_entry_of_another_dim_is_rejected(tiny_wing):
    ids = tiny_wing.boundary_ids
    flat = DisplacementField(ids, np.ones((ids.size, 2)))
    for groups in ((), ("left",)):
        law = tabulated_law(ids, (0.0, 1.0), {0.5: flat}, clamp_groups=groups)
        with pytest.raises(ValueError, match="has dim 2, mesh has 3"):
            evaluate(law, tiny_wing, 0.5)


def test_read_tabulated(tiny_wing, tmp_path):
    ids = [0, 1, 2]
    doc = {"domain": [0.0, 2.0],
           "entries": [{"mu": 1.0,
                        "indices": [int(i) for i in tiny_wing.boundary_ids],
                        "vectors": [[0.1, 0.0, 0.0]] * 26}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    law = read_tabulated(path, ids)
    d = evaluate(law, tiny_wing, 1.0)
    assert d.vectors.shape == (3, 3)
    np.testing.assert_allclose(d.vectors[:, 0], 0.1)
    for mu in (None, "1.0", [1.0]):
        doc["entries"][0]["mu"] = mu
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="tabulated mu must be a finite"):
            read_tabulated(path, ids)


# ---------------------------------------------------------------------------
# sampling

def test_sample_domain_deterministic():
    a = sample_domain((0.0, 2.0), 10, seed=4)
    b = sample_domain((0.0, 2.0), 10, seed=4)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10,)
    assert ((a >= 0.0) & (a <= 2.0)).all()


def test_sample_domain_validation():
    with pytest.raises(ValueError):
        sample_domain((1.0, 0.0), 5, seed=0)
    with pytest.raises(ValueError):
        sample_domain((0.0, 1.0), 0, seed=0)
    for n in (4.5, None, True, "4"):
        with pytest.raises(ValueError, match="sample count must be an integer"):
            sample_domain((0.0, 1.0), n, seed=0)
    np.testing.assert_array_equal(sample_domain((0.0, 1.0), 4.0, seed=0),
                                  sample_domain((0.0, 1.0), 4, seed=0))

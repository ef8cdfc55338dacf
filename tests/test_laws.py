"""Displacement laws: bend, rigid rotation, tabulated lookup."""

import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

import morphkit as mk
from morphkit import laws
from morphkit import mesh as mesh_module
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


def step_matrix(dim, axis, radians):
    """S = Rᵀ − I written out axis by axis, cos θ − 1 as −2 sin²(θ/2):
    the reference for the S that laws._step builds by one rule."""
    s = math.sin(radians)
    half = math.sin(0.5 * radians)
    c1 = -2.0 * half * half
    if dim == 2:
        return np.array([[c1, s], [-s, c1]])
    if axis == "x":
        return np.array([[0.0, 0.0, 0.0], [0.0, c1, s], [0.0, -s, c1]])
    if axis == "y":
        return np.array([[c1, 0.0, -s], [0.0, 0.0, 0.0], [s, 0.0, c1]])
    return np.array([[c1, s, 0.0], [-s, c1, 0.0], [0.0, 0.0, 0.0]])


def explicit_field(kind, mesh, ids, mu):
    """The law's field written out from its definition, no clamping."""
    if kind == "bend":
        vec = np.zeros((ids.size, 3))
        vec[:, 1] = mu * mesh.nodes[ids, 2] ** 2
        return vec
    if kind == "rotation":
        rel = mesh.nodes[ids] - np.array([2.0, 2.0, 2.0])
        return rel @ step_matrix(3, "z", math.radians(mu))
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
    clamped_laws = [clamped]
    if kind == "tabulated":  # an entry need cover only the free ids
        clamped_laws.append(tabulated_law(
            ids, clamped.domain, {mu: v.restrict(ids[~mask])
                                  for mu, v in clamped.table.items()},
            clamp_groups=OUTER_FACES))
    for mu in mus:
        expected = explicit_field(kind, mesh, ids, mu)
        assert evaluate(free, mesh, mu).vectors.tobytes() == expected.tobytes()
        expected[mask] = 0.0
        for law in clamped_laws:
            got = evaluate(law, mesh, mu)
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


ROTATIONS = pytest.mark.parametrize(
    "dim, axis", [(3, "x"), (3, "y"), (3, "z"), (2, "z")],
    ids=["x", "y", "z", "2d"])


@ROTATIONS
def test_rotation_is_bitwise_the_explicit_form(wing, lattice11, dim, axis):
    # S built by one rule for every axis gives the written-out S's field,
    # rows @ S, bit for bit
    mesh = wing if dim == 3 else lattice11
    pivot = np.array([0.5, 0.125, 1.0][:dim])
    law = rotation_law(mesh.boundary_ids, (-36.0, 36.0), pivot=pivot,
                       axis=axis)
    rel = mesh.nodes[mesh.boundary_ids] - pivot
    for mu in (-36.0, -17.3, -1e-9, 0.0, 2.5, 30.0, 36.0):
        step = step_matrix(dim, axis, math.radians(mu))
        assert laws._step(dim, axis, math.radians(mu)).tobytes() \
            == step.tobytes()
        got = evaluate(law, mesh, mu).vectors
        assert got.tobytes() == (rel @ step).tobytes()


@ROTATIONS
def test_rotation_keeps_its_accuracy_near_zero(wing, lattice11, dim, axis):
    # at |θ| <= 4e-8 rad the field is within a relative 1e-14 of
    # θ·(rows @ J) − (θ²/2)·(rows in the rotated plane); a field formed
    # as R x − x would be off by about eps/|θ| relative
    mesh = wing if dim == 3 else lattice11
    pivot = np.array([0.5, 0.125, 1.0][:dim])
    law = rotation_law(mesh.boundary_ids, (-36.0, 36.0), pivot=pivot,
                       axis=axis)
    rel = mesh.nodes[mesh.boundary_ids] - pivot
    i = ("xyz".index(axis) + 1) % 3
    j = (i + 1) % 3
    gen = np.zeros((dim, dim))   # d/dθ of Rᵀ at θ = 0
    gen[i, j], gen[j, i] = 1.0, -1.0
    plane = np.zeros(dim)
    plane[[i, j]] = 1.0
    for mu in (1e-9, -1e-7, -2.13e-6):
        theta = math.radians(mu)
        expected = theta * (rel @ gen) - 0.5 * theta**2 * (rel * plane)
        got = evaluate(law, mesh, mu).vectors
        assert np.linalg.norm(got - expected) \
            <= 1e-14 * np.linalg.norm(expected)


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


@pytest.mark.parametrize("pivot", [
    {}, "abc", True, None, 0.0, [0.0, True, 0.0], [[0.0, 0.0, 0.0]],
    [0.0, [0.0], 0.0], [0.0, "0", 0.0], np.array([True, False, True])],
    ids=["dict", "str", "bool", "None", "scalar", "bool entry", "nested",
         "ragged", "str entry", "bool array"])
def test_rotation_pivot_must_list_numbers(pivot):
    # not cast: a bool entry would read as 1.0, a dict fail in float()
    message = re.escape(f"pivot must list numbers, got {pivot!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        rotation_law([0], (0.0, 1.0), pivot=pivot)


def test_rotation_pivot_takes_any_flat_numbers():
    for pivot in ((1, 2, 3), [1.0, 2, np.float32(3)], np.arange(1, 4),
                  tuple(np.arange(1.0, 4.0))):
        law = rotation_law([0], (0.0, 1.0), pivot=pivot)
        assert law.pivot.dtype == np.float64 and not law.pivot.flags.writeable
        np.testing.assert_array_equal(law.pivot, [1.0, 2.0, 3.0])


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
        with pytest.raises(ValueError, match=r"^entry at mu=0\.5: vectors "
                                             r"have width 2, the mesh has dim 3$"):
            evaluate(law, tiny_wing, 0.5)
        assert law._resolved is None


def test_tabulated_entry_outside_the_domain_is_refused_when_built(tiny_wing):
    ids = tiny_wing.boundary_ids
    zero = DisplacementField.zero(ids, 3)
    for mu in (-0.5, 1.5):
        with pytest.raises(ValueError, match=rf"^entry at mu={mu} outside "
                                             r"domain \[0\.0, 1\.0\]$"):
            tabulated_law(ids, (0.0, 1.0), {0.5: zero, mu: zero})
    # the bounds themselves are inside
    law = tabulated_law(ids, (0.0, 1.0), {0.0: zero, 1.0: zero})
    assert sorted(law.table) == [0.0, 1.0]


def test_tabulated_evaluate_is_a_lookup(small_tunnel, monkeypatch):
    # each entry is restricted once per (law, mesh); evaluate then gives
    # the entry's free rows bit for bit, clamped rows +0.0, and leaves the
    # restrict plan of the online query as it found it
    mesh, ids = small_tunnel, small_tunnel.boundary_ids
    mus = [-36.0, -12.5, 0.0]
    law = make_law("tabulated", mesh, ids, OUTER_FACES, mus)
    mask = np.isin(ids, np.concatenate([mesh.group(g) for g in OUTER_FACES]))
    calls, real = [], DisplacementField.restrict

    def spy(field, wanted):
        calls.append(field)
        return real(field, wanted)

    monkeypatch.setattr(DisplacementField, "restrict", spy)
    evaluate(law, mesh, mus[0])
    assert calls == [law.table[mu] for mu in mus]   # compared by identity
    expected = {}
    for mu in mus:   # each entry restricted to the free ids, per call
        expected[mu] = np.zeros((ids.size, 3))
        expected[mu][~mask] = real(law.table[mu], ids[~mask]).vectors
    other = DisplacementField(ids, np.ones((ids.size, 3)))
    real(other, ids[::2])
    plan = mesh_module._restrict_plan
    calls.clear()
    for mu in mus + mus:
        got = evaluate(law, mesh, mu)
        assert got.vectors.tobytes() == expected[mu].tobytes()
    assert calls == []
    assert mesh_module._restrict_plan is plan


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
    # the caller's ids are not the file's fault; the file's domain is
    with pytest.raises(ValueError, match="^control_ids contain duplicates$"):
        read_tabulated(path, [0, 0])
    doc["domain"] = [2.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"table\.json: the document: "
                                         r"domain \[2\.0, 0\.0\] is empty"):
        read_tabulated(path, ids)
    doc["domain"] = [0.0, 2.0]
    for mu in (None, "1.0", [1.0]):
        doc["entries"][0]["mu"] = mu
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="tabulated mu must be a finite"):
            read_tabulated(path, ids)
    # a second entry at one mu is refused, not kept in place of the first
    first = dict(doc["entries"][0], mu=0.5)
    doc["entries"] = [first, dict(first, vectors=[[0.2, 0.0, 0.0]] * 26)]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"table\.json: entries\[1\]: "
                                         r"repeats mu 0\.5$"):
        read_tabulated(path, ids)
    # an entry's width is checked against the mesh it meets, before any use
    doc["entries"][1].update(mu=1.5, vectors=[[0.2, 0.0]] * 26)
    path.write_text(json.dumps(doc))
    law = read_tabulated(path, ids)
    with pytest.raises(ValueError) as err:
        evaluate(law, tiny_wing, 0.5)
    assert str(err.value) == ("entry at mu=1.5: vectors have width 2, "
                              "the mesh has dim 3")
    # an entry outside the file's domain, and a table without entries, are
    # the file's fault too
    doc["entries"][1].update(mu=2.5)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        read_tabulated(path, ids)
    assert str(err.value) == (f"{path}: the document: entry at mu=2.5 "
                              "outside domain [0.0, 2.0]")
    doc["entries"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        read_tabulated(path, ids)
    assert str(err.value) == (f"{path}: the document: tabulated law needs a "
                              "non-empty table")


@pytest.mark.parametrize("groups", ["left", 5, ["left", 1], [None], b"left"],
                         ids=["str", "int", "int entry", "None entry", "bytes"])
def test_clamp_groups_must_list_group_names(tiny_wing, tmp_path, groups):
    # a string is one name, not a list of its characters; the caller's
    # groups are not a table file's fault
    ids = tiny_wing.boundary_ids
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "entries": [
        {"mu": 0.5, "indices": ids.tolist(), "vectors": [[0.0] * 3] * 26}]}))
    message = re.escape(f"clamp_groups must list group names, got {groups!r}")
    for build in (lambda: bend_law(ids, (0.0, 1.0), clamp_groups=groups),
                  lambda: rotation_law(ids, (0.0, 1.0), (0.0, 0.0, 0.0),
                                       clamp_groups=groups),
                  lambda: read_tabulated(path, ids, clamp_groups=groups)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_clamp_groups_take_any_iterable_of_names(tiny_wing):
    ids = tiny_wing.boundary_ids
    for groups in (["left"], ("left",), (g for g in ["left"]),
                   np.array(["left"])):
        law = bend_law(ids, (0.0, 1.0), clamp_groups=groups)
        assert law.clamp_groups == ("left",)
    assert bend_law(ids, (0.0, 1.0)).clamp_groups == ()


def test_table_entry_misfits_have_their_own_type(tiny_wing):
    # a caller tells an entry's misfit from the law's other refusals by type
    ids = tiny_wing.boundary_ids
    wide = DisplacementField(ids, np.ones((ids.size, 2)))
    short = DisplacementField(ids[1:], np.ones((ids.size - 1, 3)))
    for entry, text in ((wide, "vectors have width 2, the mesh has dim 3"),
                        (short, "ids not covered by field: [0]")):
        law = tabulated_law(ids, (0.0, 1.0), {0.5: entry})
        with pytest.raises(mk.TableEntryError) as err:
            laws._resolve(law, tiny_wing)
        assert isinstance(err.value, ValueError)
        assert str(err.value) == f"entry at mu=0.5: {text}"
    zero = DisplacementField.zero(ids, 3)
    for law in (tabulated_law(ids, (0.0, 1.0), {0.5: zero},
                              clamp_groups=("nowhere",)),
                tabulated_law([999], (0.0, 1.0), {0.5: zero})):
        with pytest.raises(ValueError) as err:
            laws._resolve(law, tiny_wing)
        assert not isinstance(err.value, mk.TableEntryError)


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
    for seed in (7.9, -1, None, "3"):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, "
                                             f"got {seed!r}"):
            sample_domain((0.0, 1.0), 3, seed)

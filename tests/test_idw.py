"""Weight formula, matrix assembly and deformation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import morphkit as mk
from morphkit import (DisplacementField, IdwConfig, IdwOperator, _kernels,
                      assemble, deform, idw, interpolate, weights_at)


def brute_weights(x, controls, p):
    # textbook form, no ratio trick; only safe away from controls
    d = np.linalg.norm(np.asarray(controls, float) - np.asarray(x, float),
                       axis=1)
    w = d ** (-float(p))
    return w / w.sum()


# ---------------------------------------------------------------------------
# point evaluation oracles

def test_weights_hand_value():
    # controls at x=0 and x=1, query at 0.25, p=4:
    # ratio (0.75/0.25)^4 = 81, so w = (81/82, 1/82)
    w = weights_at([0.25, 0.0], [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(w, [81.0 / 82.0, 1.0 / 82.0], rtol=1e-15)


def test_weights_midpoint_splits_evenly():
    w = weights_at([0.5, 0.0], [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_weights_match_textbook_form():
    rng = np.random.default_rng(3)
    controls = rng.uniform(size=(12, 3))
    x = rng.uniform(1.5, 2.0, size=3)  # well away from every control
    for p in (1, 2, 4, 7):
        w = weights_at(x, controls, IdwConfig(p=p))
        np.testing.assert_allclose(w, brute_weights(x, controls, p),
                                   rtol=1e-13)


def test_weights_on_control_is_indicator():
    controls = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = weights_at(controls[1], controls)
    np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])


def test_weights_reject_coincident_controls():
    with pytest.raises(ValueError, match="coincide"):
        weights_at([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("x, controls, match", [
    ([0.5, 0.5], np.empty((0, 2)), "^need at least one control point$"),
    ([0.5, 0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
     "^point has dim 3, controls have dim 2$"),
    # NumPy alone would read both as numbers, and the weights as [0, 1]
    (["1", 0, 0], [[0, 0, 0], [1, 0, 0]], "^point must hold numbers, got '1'$"),
    ([1, 0, 0], [[0, 0, 0], [True, 0, 0]],
     "^controls must hold numbers, got True$"),
])
def test_weights_reject_missing_or_mismatched_controls(x, controls, match):
    with pytest.raises(ValueError, match=match):
        weights_at(x, controls)


@pytest.mark.parametrize("controls", [[], [[]], np.empty((3, 0))])
def test_weights_reject_a_point_without_coordinates(controls):
    with pytest.raises(ValueError,
                       match="^point must have at least one coordinate$"):
        weights_at([], controls)


def test_weights_huge_exponent_does_not_overflow():
    # d^(-p) would overflow for p=300; the ratio form must not
    # x = 1e-8 lies far outside the tolerance of 1e-12 x the diagonal
    w = weights_at([1e-8, 0.0], [[0.0, 0.0], [1.0, 0.0]], IdwConfig(p=300))
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    assert w[0] == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IdwConfig(p=0)
    with pytest.raises(ValueError):
        IdwConfig(p=2.5)
    for p in (None, True, np.True_, "4", float("inf")):
        with pytest.raises(ValueError, match=f"got {p!r}"):
            IdwConfig(p=p)
    assert type(IdwConfig(p=4.0).p) is int and IdwConfig(p=4.0).p == 4


def test_config_holds_only_the_exponent():
    # the coincidence tolerance is the geometry's, never the caller's
    assert [f.name for f in dataclasses.fields(IdwConfig)] == ["p"]
    with pytest.raises(TypeError):
        IdwConfig(coincidence_tol=1e-3)
    assert IdwConfig().resolve_tol([[0.0, 0.0], [3.0, 4.0]]) == 5e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25),
       p=st.integers(1, 8))
def test_weights_partition_of_unity(seed, n, p):
    rng = np.random.default_rng(seed)
    controls = rng.uniform(size=(n, 3))
    x = rng.uniform(-0.5, 1.5, size=3)
    w = weights_at(x, controls, IdwConfig(p=p))
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w >= 0.0).all()


# ---------------------------------------------------------------------------
# assembly

def test_assemble_rows_match_reference(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    controls = wing.nodes[wing.boundary_ids]
    for row, tid in [(0, op.target_ids[0]), (10, op.target_ids[10])]:
        expected = weights_at(wing.nodes[tid], controls, IdwConfig())
        np.testing.assert_allclose(op.matrix[row], expected, atol=1e-14)


def test_assemble_row_sums(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    sums = op.matrix.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_assemble_target_on_control_gets_indicator(tiny_wing):
    # boundary node 0 used as a target of the full control set
    ids = np.concatenate([tiny_wing.interior_ids, [0]])
    op = assemble(tiny_wing, tiny_wing.boundary_ids, ids)
    row = op.matrix[-1]
    k = int(np.nonzero(tiny_wing.boundary_ids == 0)[0][0])
    assert row[k] == 1.0
    assert row.sum() == 1.0
    assert np.count_nonzero(row) == 1


def test_assemble_validates_ids(tiny_wing):
    with pytest.raises(ValueError, match="out of range"):
        assemble(tiny_wing, [0, 999], [13])
    with pytest.raises(ValueError, match="duplicates"):
        assemble(tiny_wing, [0, 0], [13])
    with pytest.raises(ValueError, match="at least one"):
        assemble(tiny_wing, [], [13])


def test_assemble_rejects_coincident_controls():
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [1.0, 1e-15, 0.0], [0.5, 0.5, 0.5]]
    mesh = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64),
                   [0, 1, 2, 3], [4])
    with pytest.raises(ValueError, match="coincide"):
        assemble(mesh, [0, 1, 2, 3], [4])


@pytest.mark.parametrize("build", ["direct", "with_nodes"])
def test_meshes_not_validated_still_refuse_coincident_controls(tiny_wing,
                                                               build):
    # only a mesh whose validate() passed has its node pairs swept; one
    # built directly, or by with_nodes with node 3 moved onto node 1, has
    # its controls checked by assemble and interpolate themselves
    if build == "direct":
        nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                 [1.0, 1e-15, 0.0], [0.5, 0.5, 0.5]]
        mesh = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64),
                       [0, 1, 2, 3], [4])
    else:
        nodes = tiny_wing.nodes.copy()
        nodes[3] = nodes[1]
        mesh = tiny_wing.with_nodes(nodes)
    assert tiny_wing._valid and not mesh._valid
    d = DisplacementField(mesh.boundary_ids,
                          np.ones((mesh.boundary_ids.size, 3)))
    with pytest.raises(ValueError, match="control points 1 and 3 coincide"):
        assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    with pytest.raises(ValueError, match="control points 1 and 3 coincide"):
        interpolate(mesh, d, mesh.interior_ids)


def test_validated_mesh_skips_only_its_own_sweep(wing, monkeypatch):
    checked = []
    monkeypatch.setattr(idw, "_distinct",
                        lambda controls, tol, what: checked.append(tol))
    d = DisplacementField(wing.boundary_ids,
                          np.ones((wing.boundary_ids.size, 3)))
    assemble(wing, wing.boundary_ids, wing.interior_ids)
    interpolate(wing, d, wing.interior_ids)
    assert checked == []


def test_all_coincident_points_are_refused():
    # a tolerance of 0 (a bounding box of one point) makes every point
    # coincide; the sweep still runs and names the lowest exact pair
    message = r"^control points 0 and 1 coincide within 0\.000e\+00$"
    with pytest.raises(ValueError, match=message):
        weights_at([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
    mesh = mk.Mesh(2, np.ones((4, 2)), np.empty((0, 3), dtype=np.int64),
                   [0, 1, 2], [3])
    assert mesh.coincidence_tolerance == 0.0
    with pytest.raises(ValueError, match=message):
        assemble(mesh, [0, 1, 2], [3])


def test_assemble_resolves_tolerance(wing, monkeypatch):
    # both kernels run at the mesh's own tolerance, whatever the config
    seen = []
    for name in ("assemble_weight_matrix", "apply_weights"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name,
            lambda *args, kernel=kernel: seen.append(args[-1]) or kernel(*args))
    d = DisplacementField(wing.boundary_ids,
                          np.ones((wing.boundary_ids.size, 3)))
    assemble(wing, wing.boundary_ids, wing.interior_ids, IdwConfig(p=2))
    interpolate(wing, d, wing.interior_ids, IdwConfig(p=2))
    assert seen == [wing.coincidence_tolerance] * 2
    assert all(type(tol) is float for tol in seen)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        IdwOperator(np.ones((2, 3)), [0, 1], [5, 6])


def test_assemble_hands_over_kernel_output(tiny_wing, monkeypatch):
    made = []
    kernel = idw._kernels.assemble_weight_matrix

    def capture(*args, **kwargs):
        made.append(kernel(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(idw._kernels, "assemble_weight_matrix", capture)
    op = assemble(tiny_wing, tiny_wing.boundary_ids, tiny_wing.interior_ids)
    assert np.shares_memory(op.matrix, made[0])
    assert not op.matrix.flags.writeable


def test_operator_copies_writeable_matrix():
    mat = np.full((2, 3), 1.0 / 3.0)
    op = IdwOperator(mat, [0, 1], [5, 6, 7])
    mat[:] = 0.0
    np.testing.assert_array_equal(op.matrix, 1.0 / 3.0)
    assert not op.matrix.flags.writeable


# ---------------------------------------------------------------------------
# deformation

def test_translation_reproduced_exactly(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    shift = np.array([0.3, -0.2, 0.1])
    d = DisplacementField(wing.boundary_ids,
                          np.tile(shift, (wing.boundary_ids.size, 1)))
    out = deform(op, d)
    assert np.abs(out.vectors - shift).max() <= 1e-12


def test_deform_hand_case():
    # single target midway between two controls: average of the inputs
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [2])
    op = assemble(mesh, [0, 1], [2])
    d = DisplacementField([0, 1], [[1.0, 0.0], [0.0, 1.0]])
    out = deform(op, d)
    np.testing.assert_allclose(out.vectors, [[0.5, 0.5]], atol=1e-15)


def test_deform_requires_exact_control_cover(tiny_wing):
    op = assemble(tiny_wing, tiny_wing.boundary_ids, tiny_wing.interior_ids)
    wrong = DisplacementField([0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="control_ids"):
        deform(op, wrong)


def test_deform_order_sensitive(tiny_wing):
    op = assemble(tiny_wing, [0, 1], tiny_wing.interior_ids)
    flipped = DisplacementField([1, 0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        deform(op, flipped)


# ---------------------------------------------------------------------------
# streamed morph

def random_field(ids, seed, dim=3):
    rng = np.random.default_rng(seed)
    return DisplacementField(ids, rng.normal(size=(len(ids), dim)))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
def test_interpolate_matches_dense_deform(wing, p):
    config = IdwConfig(p=p)
    d = random_field(wing.boundary_ids, p)
    dense = deform(assemble(wing, wing.boundary_ids, wing.interior_ids,
                            config), d)
    streamed = interpolate(wing, d, wing.interior_ids, config)
    np.testing.assert_array_equal(streamed.indices, dense.indices)
    np.testing.assert_allclose(streamed.vectors, dense.vectors, rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("p", range(1, 8))
def test_interpolate_wide_form_matches_dense_deform(wing, p):
    # every p from 1 to 7, with one target on a control
    config = IdwConfig(p=p)
    d = random_field(wing.boundary_ids, 20 + p)
    on_control = wing.boundary_ids[7]
    targets = np.append(wing.interior_ids, on_control)
    dense = deform(assemble(wing, wing.boundary_ids, targets, config), d)
    streamed = interpolate(wing, d, targets, config)
    np.testing.assert_allclose(streamed.vectors, dense.vectors, rtol=0,
                               atol=1e-14)
    np.testing.assert_array_equal(streamed.vectors[-1],
                                  d.restrict([on_control]).vectors[0])


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_interpolate_block_edges(wing, monkeypatch, offset):
    # kernel chunks of 7 rows; None is a single target row
    controls = wing.boundary_ids[::3]
    n = 1 if offset is None else 7 + offset
    targets = wing.interior_ids[:n]
    d = random_field(controls, 11)
    dense = deform(assemble(wing, controls, targets), d)
    monkeypatch.setattr(_kernels, "_CHUNK_BUDGET", 7 * controls.size)
    chunks = []
    chunk_routine = _kernels._ratio_weights

    def counted(chunk_targets, *args):
        chunks.append(chunk_targets.shape[0])
        chunk_routine(chunk_targets, *args)

    monkeypatch.setattr(_kernels, "_ratio_weights", counted)
    streamed = interpolate(wing, d, targets)
    assert chunks == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
    assert streamed.vectors.shape == (n, 3)
    np.testing.assert_allclose(streamed.vectors, dense.vectors, rtol=0,
                               atol=1e-14)


def test_interpolate_target_on_control_gets_control_value(tiny_wing):
    ids = np.concatenate([tiny_wing.interior_ids, [5]])
    d = random_field(tiny_wing.boundary_ids, 3)
    out = interpolate(tiny_wing, d, ids)
    np.testing.assert_array_equal(out.vectors[-1], d.restrict([5]).vectors[0])


def test_interpolate_validates_like_assemble(tiny_wing):
    nodes = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [1.0, 1e-15, 0.0], [0.5, 0.5, 0.5]]
    close = mk.Mesh(3, nodes, np.empty((0, 4), dtype=np.int64),
                    [0, 1, 2, 3], [4])
    cases = [(tiny_wing, [0, 999], [13]), (tiny_wing, [0, 1], [13, 13]),
             (close, [0, 1, 2, 3], [4])]
    for mesh, controls, targets in cases:
        with pytest.raises(ValueError) as dense:
            assemble(mesh, controls, targets)
        with pytest.raises(ValueError) as streamed:
            interpolate(mesh, random_field(controls, 0), targets)
        assert str(streamed.value) == str(dense.value)



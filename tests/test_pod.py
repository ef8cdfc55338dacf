"""Snapshot compression and the reduced online stage."""

import json

import numpy as np
import pytest

import morphkit as mk
from morphkit import (DegenerateSnapshotsError, DisplacementField,
                      IllPosedOnlineError, SnapshotSet, assemble, bend_law,
                      build_online, build_pod_model, build_snapshots,
                      compute_pod, deform, evaluate, online_solve,
                      pod_energy, pseudo_inverse, read_model, relative_error,
                      rotation_law, sample_domain, write_model)


def synthetic_snapshots(sigma, rows=6, seed=0):
    """SnapshotSet with a prescribed spectrum (rows = 3 nodes x dim 2)."""
    rng = np.random.default_rng(seed)
    sigma = np.asarray(sigma, dtype=np.float64)
    k = sigma.size
    U = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    mat = (U * sigma) @ V.T
    return SnapshotSet(mat, tuple(range(k)), [0, 1, 2], 2)


# ---------------------------------------------------------------------------
# energy rule and truncation

def test_pod_energy_hand_case():
    # spectrum (2, 1, 1): total 6, E(1) = 2/6, E(2) = 1/6, E(3) = 0
    sigma = [2.0, 1.0, 1.0]
    assert pod_energy(sigma, 1) == pytest.approx(1.0 / 3.0)
    assert pod_energy(sigma, 2) == pytest.approx(1.0 / 6.0)
    assert pod_energy(sigma, 3) == 0.0
    with pytest.raises(ValueError):
        pod_energy([0.0, 0.0], 1)


@pytest.mark.parametrize("epsilon,expected", [(0.5, 1), (0.2, 2), (0.0, 3)])
def test_truncation_count(epsilon, expected):
    snaps = synthetic_snapshots([2.0, 1.0, 1.0])
    Z, sigma, n = compute_pod(snaps, epsilon)
    assert n == expected
    assert Z.shape == (6, expected)
    np.testing.assert_allclose(sigma, [2.0, 1.0, 1.0], rtol=1e-12)


def test_basis_is_orthonormal():
    snaps = synthetic_snapshots([5.0, 3.0, 0.5], seed=2)
    Z, _, n = compute_pod(snaps, 0.0)
    np.testing.assert_allclose(Z.T @ Z, np.eye(n), atol=1e-12)


def test_rank_tolerance_drops_noise_modes():
    # third direction is numerically zero, so only two values survive
    snaps = synthetic_snapshots([1.0, 0.5, 1e-15])
    _, sigma, n = compute_pod(snaps, 0.0)
    assert sigma.size == 2
    assert n == 2


def test_rank_one_family():
    col = np.arange(1.0, 7.0)
    mat = np.outer(col, [1.0, 2.0, 3.0])
    snaps = SnapshotSet(mat, (0.1, 0.2, 0.3), [0, 1, 2], 2)
    Z, _, n = compute_pod(snaps, 1e-5)
    assert n == 1
    # basis spans the single direction
    proj = Z @ (Z.T @ mat)
    np.testing.assert_allclose(proj, mat, atol=1e-12)


def test_zero_snapshots_rejected():
    snaps = SnapshotSet(np.zeros((6, 2)), (0.0, 1.0), [0, 1, 2], 2)
    with pytest.raises(DegenerateSnapshotsError):
        compute_pod(snaps, 0.0)


def test_snapshot_set_validation():
    with pytest.raises(ValueError, match="rows"):
        SnapshotSet(np.zeros((5, 2)), (0.0, 1.0), [0, 1, 2], 2)
    with pytest.raises(ValueError, match="parameter"):
        SnapshotSet(np.zeros((6, 2)), (0.0,), [0, 1, 2], 2)


# ---------------------------------------------------------------------------
# pseudo-inverse

def penrose_residuals(A, X):
    return (np.abs(A @ X @ A - A).max(), np.abs(X @ A @ X - X).max(),
            np.abs((A @ X).T - A @ X).max(), np.abs((X @ A).T - X @ A).max())


def test_pseudo_inverse_penrose():
    rng = np.random.default_rng(1)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        A = rng.standard_normal(shape)
        X = pseudo_inverse(A)
        assert max(penrose_residuals(A, X)) < 1e-12


def test_pseudo_inverse_rank_deficient():
    A = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])  # rank one
    X = pseudo_inverse(A)
    assert max(penrose_residuals(A, X)) < 1e-12


def test_pseudo_inverse_zero_matrix():
    X = pseudo_inverse(np.zeros((3, 4)))
    np.testing.assert_array_equal(X, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# snapshot assembly

def test_build_snapshots_layout():
    # midpoint target of two controls under the 2D bend law: the column
    # for mu is (0, mu/2) since only control x=1 moves, by mu
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [2])
    op = assemble(mesh, [0, 1], [2])
    law = bend_law(np.array([0, 1]), (0.0, 1.0))
    snaps = build_snapshots(op, law, mesh, (0.5, 1.0))
    np.testing.assert_allclose(snaps.matrix,
                               [[0.0, 0.0], [0.25, 0.5]], atol=1e-15)
    assert snaps.params == (0.5, 1.0)


@pytest.mark.parametrize("n_train", [1, 3, 8])
def test_build_snapshots_matches_the_deform_loop(wing, n_train):
    # one product over the stacked control fields against one deform per
    # training parameter: BLAS may sum a small product with a few columns
    # in another order than one with many, so the last bit may move
    tunnel = mk.generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 8)
    outer = ("left", "right", "top", "bottom", "front", "rear")
    cases = [(wing, bend_law(wing.boundary_ids, (0.0, 0.02), ("left",))),
             (tunnel, rotation_law(tunnel.boundary_ids, (-36.0, 0.0),
                                   pivot=(2.5, 2.5, 2.5),
                                   clamp_groups=outer))]
    for mesh, law in cases:
        op = assemble(mesh, mesh.boundary_ids[::2], mesh.interior_ids)
        train = sample_domain(law.domain, n_train, seed=5)
        snaps = build_snapshots(op, law, mesh, train)
        loop = np.column_stack([
            deform(op, evaluate(law, mesh, mu).restrict(op.control_ids))
            .as_vector() for mu in train])
        np.testing.assert_allclose(snaps.matrix, loop, rtol=0, atol=1e-14)


def test_build_snapshots_needs_params(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 1.0))
    with pytest.raises(ValueError):
        build_snapshots(op, law, wing, ())


# ---------------------------------------------------------------------------
# online stage

def test_weighted_online_matches_full_morph(wing):
    # a one-mode basis captures the linear bend family exactly, so the
    # reduced solve must reproduce the full morph to round-off
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    train = sample_domain(law.domain, 10, seed=1)
    model = build_pod_model(op, law, wing, train, epsilon=1e-5)
    assert model.n_modes == 1
    d_c = evaluate(law, wing, 0.0173)
    online = online_solve(model, d_c)
    full = deform(op, d_c)
    assert relative_error(online, full) < 1e-12


def test_plain_online_matches_full_morph(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    train = sample_domain(law.domain, 10, seed=1)
    model = build_pod_model(op, law, wing, train, epsilon=1e-5, mode="plain")
    # plain projection: the online map is Zt (W ⊗ I)
    np.testing.assert_allclose(model.online_map,
                               model.basis.T @ np.kron(op.matrix, np.eye(3)),
                               rtol=0.0, atol=1e-14)
    d_c = evaluate(law, wing, 0.011)
    assert relative_error(online_solve(model, d_c), deform(op, d_c)) < 1e-12


def test_weighted_online_map_is_pinv_of_KZ(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = rotation_law(wing.boundary_ids, (-36.0, 0.0),
                       pivot=(0.5, 0.125, 0.0))
    model = build_pod_model(op, law, wing, sample_domain(law.domain, 8, seed=3),
                            epsilon=1e-5)
    KZ = np.kron(np.linalg.pinv(op.matrix), np.eye(3)) @ model.basis
    np.testing.assert_allclose(model.online_map, np.linalg.pinv(KZ),
                               rtol=0.0, atol=1e-10)


def test_rotation_family_needs_two_modes(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = rotation_law(wing.boundary_ids, (-36.0, 0.0),
                       pivot=(0.5, 0.125, 0.0))
    train = sample_domain(law.domain, 8, seed=3)
    model = build_pod_model(op, law, wing, train, epsilon=1e-5)
    assert model.n_modes == 2
    assert pod_energy(model.singular_values, 2) <= 1e-12
    d_c = evaluate(law, wing, -21.0)
    assert relative_error(online_solve(model, d_c), deform(op, d_c)) < 1e-10


def test_online_on_thinned_operator_reproduces_its_morph(wing):
    sel = mk.select(wing, wing.boundary_ids, 0.5, seed=2).selected
    op = assemble(wing, sel, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    train = sample_domain(law.domain, 6, seed=4)
    model = build_pod_model(op, law, wing, train, epsilon=1e-5)
    d_hat = evaluate(law, wing, 0.015).restrict(sel)
    assert relative_error(online_solve(model, d_hat),
                          deform(op, d_hat)) < 1e-10


def test_online_solve_checks_ids(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    model = build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5)
    wrong = DisplacementField([0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="control_ids"):
        online_solve(model, wrong)


def test_online_solve_rejects_nonfinite_values():
    # finite model and field, but beta = 1e300 * 1e10 overflows: the
    # bound max|basis| * sum|beta| is inf, so the outputs are scanned
    model = mk.PodModel(np.ones((1, 1)), np.ones(1), 1, 0.0, "plain",
                        np.array([[1e300]]), [2], [5], 1)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        online_solve(model, DisplacementField([2], [[1e10]]))


def test_online_solve_rejects_an_expansion_that_overflows():
    # beta = 1e10 is finite, but basis @ beta = 1e300 * 1e10 is not: the
    # bound is inf, so the outputs are scanned
    model = mk.PodModel(np.full((1, 1), 1e300), np.ones(1), 1, 0.0, "plain",
                        np.ones((1, 1)), [2], [5], 1)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        online_solve(model, DisplacementField([2], [[1e10]]))


def _spy_check_finite(monkeypatch):
    calls = []
    check = mk.mesh._check_finite

    def spy(vectors):
        calls.append(vectors.shape)
        check(vectors)

    monkeypatch.setattr(mk.mesh, "_check_finite", spy)
    return calls


def test_online_solve_scans_finite_outputs_above_the_bound(monkeypatch):
    # the bound 1e300 * (10 + 10) lies above 2**1000, but the two modes
    # cancel: the outputs are scanned, found finite and equal basis @ beta
    basis = np.array([[1e300, -1e300], [0.5, 0.25]])
    model = mk.PodModel(basis, np.ones(2), 2, 0.0, "plain",
                        np.ones((2, 1)), [2], [5, 6], 1)
    d = DisplacementField([2], [[10.0]])
    calls = _spy_check_finite(monkeypatch)
    out = online_solve(model, d)
    assert calls == [(2, 1)]
    expected = basis @ np.array([10.0, 10.0])
    assert out.vectors.ravel().tobytes() == expected.tobytes()
    np.testing.assert_array_equal(expected, [0.0, 7.5])


@pytest.mark.parametrize("kind", ["bend", "rotation"])
def test_online_query_scans_nothing(wing, monkeypatch, kind):
    # evaluate -> restrict (validating first, then from its plan) ->
    # online_solve: every producer's bound proves its output finite, so
    # no output is scanned
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = (bend_law(wing.boundary_ids, (0.0, 0.02), clamp_groups=("left",))
           if kind == "bend" else
           rotation_law(wing.boundary_ids, (-36.0, 0.0), pivot=(0.5, 0.1, 3.0)))
    model = build_pod_model(op, law, wing, np.linspace(*law.domain, 4), 1e-5)
    calls = _spy_check_finite(monkeypatch)
    for mu in np.linspace(*law.domain, 5).tolist():
        d = evaluate(law, wing, mu)
        out = online_solve(model, d.restrict(model.control_ids))
    assert calls == []
    assert np.isfinite(out.vectors).all()


def test_online_output_is_frozen(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    model = build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5)
    out = online_solve(model, evaluate(law, wing, 0.015))
    with pytest.raises(ValueError):
        out.vectors.setflags(write=True)


def test_rank_deficient_basis_rejected():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [2])
    op = assemble(mesh, [0, 1], [2])
    Z = np.array([[1.0, 1.0], [0.0, 0.0]])  # two identical directions
    with pytest.raises(IllPosedOnlineError) as err:
        build_online(Z, np.array([1.0, 1.0]), op)
    assert err.value.smallest_singular_value == pytest.approx(0.0, abs=1e-12)


def test_nearly_collinear_basis_rejected_at_build():
    # the two directions differ by 1e-14: K Z has full rank in exact
    # arithmetic but not at the rank tolerance, so no online map is built
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), [0, 1], [2])
    op = assemble(mesh, [0, 1], [2])
    Z = np.array([[1.0, 1.0], [0.0, 1e-14]])
    with pytest.raises(IllPosedOnlineError) as err:
        build_online(Z, np.array([1.0, 1.0]), op)
    assert 0.0 < err.value.smallest_singular_value < 1e-13


def test_build_online_validation(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    Z = np.ones((op.n_targets * 3, 1))
    with pytest.raises(ValueError, match="mode"):
        build_online(Z, np.array([1.0]), op, mode="fast")
    with pytest.raises(ValueError, match="multiple"):
        build_online(np.ones((op.n_targets * 3 + 1, 1)), np.array([1.0]), op)


# ---------------------------------------------------------------------------
# the two routes to K Z in build_pod_model

def _tunnel_case():
    tunnel = mk.generate_tunnel((4.0, 4.0, 4.0), (1.2, 1.2, 1.2), 6)
    outer = ("left", "right", "top", "bottom", "front", "rear")
    law = rotation_law(tunnel.boundary_ids, (-36.0, 0.0), pivot=(2.0, 2.0, 2.0),
                       clamp_groups=outer)
    return tunnel, law


def _spy_kz(monkeypatch):
    """Record the K Z that build_pod_model hands to build_online."""
    seen = []
    original = mk.pod.build_online

    def spy(*args, **kwargs):
        seen.append(kwargs.get("kz"))
        return original(*args, **kwargs)

    monkeypatch.setattr(mk.pod, "build_online", spy)
    return seen


def _lstsq_model(op, law, mesh, train, epsilon):
    """The fallback route by hand: build_online's solve on the same basis."""
    Z, sigma, _ = compute_pod(build_snapshots(op, law, mesh, train), epsilon)
    return build_online(Z, sigma, op, epsilon=epsilon, train_params=train)


def _conditioned_operator(mesh, cond, seed=0):
    """Tall hand-built operator on the wing's interior with cond(W) = cond."""
    rng = np.random.default_rng(seed)
    controls = mesh.boundary_ids[::9]
    n, m = mesh.interior_ids.size, controls.size
    U = np.linalg.qr(rng.standard_normal((n, m)))[0]
    V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    W = (U * np.geomspace(1.0, 1.0 / cond, m)) @ V.T
    return mk.IdwOperator(W, mesh.interior_ids, controls, mk.IdwConfig())


@pytest.mark.parametrize("case", ["wing", "tunnel"])
def test_snapshot_route_matches_the_solve(wing, monkeypatch, case):
    if case == "wing":
        mesh = wing
        law = rotation_law(wing.boundary_ids, (-36.0, 0.0),
                           pivot=(0.5, 0.125, 0.0))
        radius = 0.5
    else:
        mesh, law = _tunnel_case()
        radius = 1.0
    sel = mk.select(mesh, mesh.boundary_ids, radius, seed=2).selected
    op = assemble(mesh, sel, mesh.interior_ids)
    assert op.n_targets >= op.n_controls
    train = sample_domain(law.domain, 8, seed=3)
    seen = _spy_kz(monkeypatch)
    model = build_pod_model(op, law, mesh, train, epsilon=1e-5)
    assert seen[0] is not None  # the snapshot route was taken
    ref = _lstsq_model(op, law, mesh, train, 1e-5)
    np.testing.assert_array_equal(model.basis, ref.basis)
    scale = np.abs(ref.online_map).max()
    assert np.abs(model.online_map - ref.online_map).max() <= 1e-12 * scale
    for mu in (-31.0, -12.5, -2.0):
        d_hat = evaluate(law, mesh, mu).restrict(sel)
        assert relative_error(online_solve(model, d_hat),
                              deform(op, d_hat)) < 1e-12


def _wide_wing(wing, tiny_wing):
    return wing, assemble(wing, wing.boundary_ids, wing.interior_ids)


def _criterion_10_wing(wing, tiny_wing):
    # acceptance criterion 10's wing, one interior node and 26 controls:
    # here the snapshot route's map differs from the solve's by as much
    # as the map itself, while criterion 10's absolute check on the
    # online answers does not notice
    return tiny_wing, assemble(tiny_wing, tiny_wing.boundary_ids,
                               tiny_wing.interior_ids)


def _equal_columns(wing, tiny_wing):
    sel = mk.select(wing, wing.boundary_ids, 0.5, seed=2).selected
    W = np.array(assemble(wing, sel, wing.interior_ids).matrix)
    W[:, 1] = W[:, 0]
    return wing, mk.IdwOperator(W, wing.interior_ids, sel, mk.IdwConfig())


def _just_ill_conditioned(wing, tiny_wing):
    return wing, _conditioned_operator(wing, 1.05e4)


@pytest.mark.parametrize("make_case", [_wide_wing, _criterion_10_wing,
                                       _equal_columns, _just_ill_conditioned])
def test_fallback_is_the_solve_bit_for_bit(wing, tiny_wing, monkeypatch,
                                           make_case):
    mesh, op = make_case(wing, tiny_wing)
    law = rotation_law(mesh.boundary_ids, (-36.0, 0.0),
                       pivot=tuple(mesh.nodes.mean(axis=0)))
    train = sample_domain(law.domain, 8, seed=3)
    seen = _spy_kz(monkeypatch)
    model = build_pod_model(op, law, mesh, train, epsilon=1e-5)
    assert seen == [None]
    ref = _lstsq_model(op, law, mesh, train, 1e-5)
    np.testing.assert_array_equal(model.basis, ref.basis)
    np.testing.assert_array_equal(model.online_map, ref.online_map)


def test_rank_guard_threshold(wing):
    # cond(W) < 1e4 <=> lambda_min(Wt W) > 1e-8 lambda_max
    guard = mk.pod._full_column_rank
    assert guard(_conditioned_operator(wing, 0.95e4).matrix)
    assert not guard(_conditioned_operator(wing, 1.05e4).matrix)
    assert not guard(_equal_columns(wing, None)[1].matrix)
    assert not guard(_wide_wing(wing, None)[1].matrix)
    assert not guard(np.zeros((5, 3)))
    assert not guard(np.zeros((5, 0)))


def test_plain_mode_skips_the_guard(wing, monkeypatch):
    sel = mk.select(wing, wing.boundary_ids, 0.5, seed=2).selected
    op = assemble(wing, sel, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    seen = _spy_kz(monkeypatch)
    build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5, mode="plain")
    assert seen == [None]


def _tall_wing(wing, tiny_wing):
    sel = mk.select(wing, wing.boundary_ids, 0.5, seed=2).selected
    return wing, assemble(wing, sel, wing.interior_ids)


@pytest.mark.parametrize("make_case, tall",
                         [(_tall_wing, True), (_criterion_10_wing, False)])
def test_weighted_answers_match_a_brute_force_oracle(wing, tiny_wing,
                                                     make_case, tall):
    # beside acceptance criterion 10: a seeded random control field lies
    # outside the training span and gives O(1) answers, so a wrong
    # weighted map shows at a relative bound
    mesh, op = make_case(wing, tiny_wing)
    # tall W: K Z from the snapshot SVD; wide W: from the solve
    assert (op.n_targets >= op.n_controls) == tall
    law = rotation_law(mesh.boundary_ids, (-36.0, 0.0), pivot=(0.0, 0.0, 0.0))
    model = build_pod_model(op, law, mesh, sample_domain(law.domain, 8, 3),
                            epsilon=1e-10)
    KZ = np.kron(np.linalg.pinv(op.matrix), np.eye(3)) @ model.basis
    rng = np.random.default_rng(5)
    for _ in range(3):
        d = DisplacementField(op.control_ids,
                              rng.standard_normal((op.n_controls, 3)))
        beta = np.linalg.lstsq(KZ, d.as_vector(), rcond=None)[0]
        brute = model.basis @ beta
        mine = online_solve(model, d).as_vector()
        assert np.linalg.norm(brute) > 0.1
        assert (np.linalg.norm(mine - brute)
                <= 1e-10 * np.linalg.norm(brute))


@pytest.mark.parametrize("mode", ["weighted", "plain"])
def test_pod_model_is_deterministic(mode):
    mesh, law = _tunnel_case()
    sel = mk.select(mesh, mesh.boundary_ids, 1.0, seed=2).selected
    op = assemble(mesh, sel, mesh.interior_ids)
    train = sample_domain(law.domain, 8, seed=3)
    a, b = (build_pod_model(op, law, mesh, train, 1e-5, mode=mode)
            for _ in range(2))
    for name in ("basis", "singular_values", "online_map"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.n_modes == b.n_modes


def test_snapshots_keep_their_control_fields(wing):
    sel = mk.select(wing, wing.boundary_ids, 0.5, seed=2).selected
    op = assemble(wing, sel, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    train = (0.005, 0.01, 0.02)
    snaps = build_snapshots(op, law, wing, train)
    expected = np.column_stack([evaluate(law, wing, mu).restrict(sel)
                                .as_vector() for mu in train])
    np.testing.assert_array_equal(snaps.fields, expected)
    assert not snaps.fields.flags.writeable
    assert synthetic_snapshots([1.0, 0.5]).fields is None
    with pytest.raises(ValueError, match="fields"):
        SnapshotSet(np.zeros((6, 2)), (0.0, 1.0), [0, 1, 2], 2,
                    np.zeros((5, 2)))


def test_right_vectors_rebuild_the_basis():
    snaps = synthetic_snapshots([5.0, 3.0, 0.5], seed=2)
    Z, sigma, n = compute_pod(snaps, 0.01)
    Z2, sigma2, n2, Vt = compute_pod(snaps, 0.01, right_vectors=True)
    np.testing.assert_array_equal(Z2, Z)
    np.testing.assert_array_equal(sigma2, sigma)
    assert n2 == n and Vt.shape == (n, 3)
    np.testing.assert_allclose(snaps.matrix @ Vt.T / sigma[:n], Z,
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# persistence

def _small_model(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    return build_pod_model(op, law, wing, (0.005, 0.01, 0.02), epsilon=1e-5,
                           selection_params={"method": "idw",
                                             "card_C_hat": 3, "seed": 0})


def test_model_roundtrip(wing, tmp_path):
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    assert list(tmp_path.iterdir()) == [path]  # one file, no sidecar
    raw = path.read_bytes()
    assert raw[:4] == b"POD3"
    # the trailer holds only what the header and arrays do not
    n_trailer = mk.pod._HEADER.unpack_from(raw)[-1]
    assert json.loads(raw[-n_trailer:]) == {
        "epsilon": 1e-5, "train_params": [0.005, 0.01, 0.02],
        "selection_params": model.selection_params}
    back = read_model(path)
    assert back.n_modes == model.n_modes
    np.testing.assert_array_equal(back.basis, model.basis)
    np.testing.assert_array_equal(back.singular_values,
                                  model.singular_values)
    np.testing.assert_array_equal(back.online_map, model.online_map)
    np.testing.assert_array_equal(back.control_ids, model.control_ids)
    np.testing.assert_array_equal(back.target_ids, model.target_ids)
    assert back.mode == model.mode
    assert back.epsilon == model.epsilon
    assert back.train_params == model.train_params
    assert back.selection_params == model.selection_params

    d_c = DisplacementField(model.control_ids,
                            np.tile([0.0, 1e-3, 0.0],
                                    (model.control_ids.size, 1)))
    np.testing.assert_array_equal(online_solve(back, d_c).vectors,
                                  online_solve(model, d_c).vectors)


def _random_model(n_modes, n_targets=40, n_controls=6, dim=3, seed=0):
    """Hand-built model: orthonormal basis of n_modes columns, random map."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n_targets * dim, n_modes)))[0]
    online_map = rng.standard_normal((n_modes, n_controls * dim))
    return mk.PodModel(basis, np.linspace(2.0, 1.0, n_modes), n_modes, 0.0,
                       "weighted", online_map, np.arange(n_controls),
                       np.arange(100, 100 + n_targets), dim)


@pytest.mark.parametrize("n_modes", [2, 5])
def test_model_writes_the_column_major_basis_row_major(n_modes, tmp_path):
    model = _random_model(n_modes)
    assert model.basis.flags.f_contiguous
    path = tmp_path / "model.bin"
    write_model(model, path)
    start = mk.pod._HEADER.size
    block = path.read_bytes()[start:start + model.basis.nbytes]
    assert block == np.ascontiguousarray(model.basis).tobytes()
    back = read_model(path)
    assert back.basis.flags.f_contiguous
    np.testing.assert_array_equal(back.basis, model.basis)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_online_solve_is_the_expansion_of_the_online_map(n_modes):
    model = _random_model(n_modes, seed=n_modes)
    rng = np.random.default_rng(10 + n_modes)
    d = DisplacementField(model.control_ids,
                          rng.standard_normal((model.control_ids.size, 3)))
    expected = np.ascontiguousarray(model.basis) @ (model.online_map
                                                    @ d.as_vector())
    got = online_solve(model, d).as_vector()
    assert (np.linalg.norm(got - expected)
            <= 1e-14 * np.linalg.norm(expected))


def test_read_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WHAT" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not POD3"):
        read_model(path)


def test_read_model_rejects_pod1(wing, tmp_path):
    # and POD2, whose metadata lived in a JSON sidecar
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    for magic in (b"POD1", b"POD2"):
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(ValueError,
                           match="POD1 and POD2.*re-run pod-offline") as err:
            read_model(path)
        assert str(path) in str(err.value)
        assert repr(magic) in str(err.value)


def test_read_model_rejects_truncation(wing, tmp_path):
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    raw = path.read_bytes()
    n_trailer = mk.pod._HEADER.unpack_from(raw)[-1]
    # into the id block, then into the trailer only
    for cut in (n_trailer + 16, 1):
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="truncated") as err:
            read_model(path)
        assert str(path) in str(err.value)


def _with_trailer(path, trailer):
    """Replace the JSON trailer of the model file at ``path``."""
    raw = path.read_bytes()
    header = list(mk.pod._HEADER.unpack_from(raw))
    body = raw[mk.pod._HEADER.size:len(raw) - header[-1]]
    header[-1] = len(trailer)
    path.write_bytes(mk.pod._HEADER.pack(*header) + body + trailer)


@pytest.mark.parametrize("trailer", [
    b"{not json",
    b"\xff\xfe",
    b"[]",
    b'{"train_params": [0.01], "selection_params": null}',
    b'{"epsilon": 1e-5, "selection_params": null}',
    b'{"epsilon": 1e-5, "train_params": [0.01]}',
    b'{"epsilon": "1e-5", "train_params": [], "selection_params": null}',
    b'{"epsilon": NaN, "train_params": [], "selection_params": null}',
    b'{"epsilon": true, "train_params": [], "selection_params": null}',
    b'{"epsilon": 0.0, "train_params": [0.01, null], "selection_params": {}}',
    b'{"epsilon": 0.0, "train_params": [Infinity], "selection_params": {}}',
    b'{"epsilon": 0.0, "train_params": 3, "selection_params": {}}',
    b'{"epsilon": 0.0, "train_params": [], "selection_params": "esidw"}',
])
def test_read_model_rejects_a_bad_trailer(wing, tmp_path, trailer):
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    _with_trailer(path, trailer)
    with pytest.raises(ValueError, match="bad model file") as err:
        read_model(path)
    assert str(path) in str(err.value)



def _patched_model(wing, tmp_path, offset_of, value):
    """Write the small model, overwrite one 8-byte entry, read it back."""
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    raw = bytearray(path.read_bytes())
    rows, n_modes = model.basis.shape
    at = mk.pod._HEADER.size + 8 * offset_of(model, rows, n_modes)
    raw[at:at + 8] = value
    path.write_bytes(bytes(raw))
    return read_model(path)


def test_read_model_rejects_repeated_target_id(wing, tmp_path):
    def second_target(model, rows, n_modes):
        return (rows * n_modes + model.singular_values.size
                + model.online_map.size + 1)
    first = _small_model(wing).target_ids[0]
    with pytest.raises(ValueError, match="target_ids contain duplicates"):
        _patched_model(wing, tmp_path, second_target,
                       np.array(first, dtype="<i8").tobytes())


def test_read_model_rejects_nan_in_online_map(wing, tmp_path):
    def map_entry(model, rows, n_modes):
        return rows * n_modes + model.singular_values.size + 3
    with pytest.raises(ValueError, match="online_map contains non-finite"):
        _patched_model(wing, tmp_path, map_entry,
                       np.array(np.nan, dtype="<f8").tobytes())


def test_model_rejects_repeated_control_id():
    with pytest.raises(ValueError, match="control_ids contain duplicates"):
        mk.PodModel(np.ones((1, 1)), np.ones(1), 1, 0.0, "plain",
                    np.ones((1, 2)), [2, 2], [5], 1)

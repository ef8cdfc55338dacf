"""Snapshot compression and the reduced online stage."""

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import morphkit as mk
from morphkit import (DegenerateSnapshotsError, DisplacementField,
                      IllPosedOnlineError, assemble, bend_law,
                      build_online, build_pod_model, build_snapshots,
                      compute_pod, deform, evaluate, online_solve,
                      pod_energy, pseudo_inverse, read_model, relative_error,
                      rotation_law, sample_domain, write_model)


def synthetic_snapshots(sigma, rows=6, seed=0):
    """Snapshot matrix with a prescribed spectrum (rows = 3 nodes x dim 2)."""
    rng = np.random.default_rng(seed)
    sigma = np.asarray(sigma, dtype=np.float64)
    k = sigma.size
    U = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (U * sigma) @ V.T


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


@pytest.mark.parametrize("n", [-1, True, 1.5])
def test_pod_energy_rejects_a_bad_mode_count(n):
    # -1 sliced off the last mode's share (0.0714 of [3, 2, 1]), True read
    # as 1 and 1.5 failed as a slicing TypeError
    with pytest.raises(ValueError, match=r"^n must be an integer >= 0"):
        pod_energy([3.0, 2.0, 1.0], n)


@pytest.mark.parametrize("epsilon,expected", [(0.5, 1), (0.2, 2), (0.0, 3)])
def test_truncation_count(epsilon, expected):
    S = synthetic_snapshots([2.0, 1.0, 1.0])
    Z, sigma, n, _ = compute_pod(S, epsilon)
    assert n == expected
    assert Z.shape == (6, expected)
    np.testing.assert_allclose(sigma, [2.0, 1.0, 1.0], rtol=1e-12)


def test_energy_cut_keeps_the_count_whose_energy_equals_epsilon():
    # E(1) of the spectrum (2, 1) is 1/5: epsilon equal to it keeps N = 1
    S = np.diag([2.0, 1.0])
    _, sigma, _, _ = compute_pod(S, 0.0)
    Z, _, n, _ = compute_pod(S, pod_energy(sigma, 1))
    assert n == 1 and Z.shape == (2, 1)


def test_rank_cut_keeps_a_value_at_the_tolerance():
    # sigma_2 = RANK_TOL * sigma_1 exactly: kept, like every value above it
    _, sigma, n, _ = compute_pod(np.diag([1.0, mk.pod.RANK_TOL]), 0.0)
    assert sigma.tolist() == [1.0, 1e-12] and n == 2


def test_compute_pod_refuses_a_matrix_that_is_not_2d():
    for S in (np.ones(6), np.ones((3, 2, 2))):
        with pytest.raises(ValueError, match="2-D"):
            compute_pod(S, 0.0)


def test_basis_is_orthonormal():
    S = synthetic_snapshots([5.0, 3.0, 0.5], seed=2)
    Z, _, n, _ = compute_pod(S, 0.0)
    np.testing.assert_allclose(Z.T @ Z, np.eye(n), atol=1e-12)


def test_rank_tolerance_drops_noise_modes():
    # third direction is numerically zero, so only two values survive
    S = synthetic_snapshots([1.0, 0.5, 1e-15])
    _, sigma, n, _ = compute_pod(S, 0.0)
    assert sigma.size == 2
    assert n == 2


def test_rank_one_family():
    col = np.arange(1.0, 7.0)
    mat = np.outer(col, [1.0, 2.0, 3.0])
    Z, _, n, _ = compute_pod(mat, 1e-5)
    assert n == 1
    # basis spans the single direction
    proj = Z @ (Z.T @ mat)
    np.testing.assert_allclose(proj, mat, atol=1e-12)


def test_zero_snapshots_rejected():
    with pytest.raises(DegenerateSnapshotsError):
        compute_pod(np.zeros((6, 2)), 0.0)


@pytest.mark.parametrize("epsilon", [-1e-9, np.nan, np.inf, "1e-5", None])
def test_compute_pod_refuses_an_epsilon_that_is_not_a_number_above_zero(
        epsilon):
    with pytest.raises(ValueError, match=re.escape(
            f"epsilon must be a finite number >= 0, got {epsilon!r}")):
        compute_pod(np.eye(3), epsilon)


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


def test_pseudo_inverse_keeps_a_value_at_the_tolerance():
    # s_2 = RANK_TOL * s_1 exactly is inverted, like every value above it,
    # so X A is the identity; dropping it would leave diag(1, 0)
    A = np.diag([1.0, mk.pod.RANK_TOL])
    X = pseudo_inverse(A)
    np.testing.assert_allclose(X @ A, np.eye(2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(X[1, 1], 1.0 / mk.pod.RANK_TOL, rtol=1e-15)


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
    S, _ = build_snapshots(op, law, mesh, (0.5, 1.0))
    np.testing.assert_allclose(S, [[0.0, 0.0], [0.25, 0.5]], atol=1e-15)


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
        S, _ = build_snapshots(op, law, mesh, train)
        loop = np.column_stack([
            deform(op, evaluate(law, mesh, mu).restrict(op.control_ids))
            .as_vector() for mu in train])
        np.testing.assert_allclose(S, loop, rtol=0, atol=1e-14)


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


@pytest.mark.parametrize("mu", [-1e-9, -2.1326070651639384e-06, -1e-4, -20.0])
def test_online_rotation_reproduces_its_morph_near_zero(mu):
    # criterion 7's scenario on a coarser tunnel: the clamped rotation's
    # field lies in the two-mode span at every angle, also as mu -> 0,
    # where a rounding of about eps·|x − pivot| would leave it
    mesh = mk.generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 8)
    faces = ("left", "right", "top", "bottom", "front", "rear")
    law = rotation_law(mesh.boundary_ids, (-36.0, 0.0), pivot=(2.5, 2.5, 2.5),
                       clamp_groups=faces)
    regions = tuple([mk.RegionParams("obstacle", 0.3)]
                    + [mk.RegionParams(g, 1.0) for g in faces])
    res = mk.select_multi(mesh, mk.SelectionParams(regions, seed=7))
    esidw = mk.enrich(res.selected, mesh, ("obstacle_edges",))
    op = assemble(mesh, esidw, mesh.interior_ids)
    model = build_pod_model(op, law, mesh, sample_domain(law.domain, 8, seed=3),
                            epsilon=1e-5)
    d_hat = evaluate(law, mesh, mu).restrict(esidw)
    assert relative_error(online_solve(model, d_hat),
                          deform(op, d_hat)) <= 1e-13


def test_online_solve_checks_ids(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    model = build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5)
    wrong = DisplacementField([0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="control_ids"):
        online_solve(model, wrong)
    flat = DisplacementField(model.control_ids,
                             np.zeros((model.control_ids.size, 2)))
    with pytest.raises(ValueError, match="^field dim 2 != model dim 3$"):
        online_solve(model, flat)


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


def test_field_bounds_cover_their_entries(wing, lattice11, monkeypatch):
    # DisplacementField._built scans no output whose bound is below 2**1000,
    # so every bound a producer computes must cover its entries; a bound of
    # 0 marks rows copied from finite arrays
    seen = []
    built = DisplacementField._built

    def spy(cls, indices, vectors, bound):
        seen.append((vectors, bound))
        return built(indices, vectors, bound)

    def check(make, computed):
        seen.clear()
        make()
        assert seen
        for vectors, bound in seen:
            if computed:
                assert bound >= np.abs(vectors).max() > 0.0
            else:
                assert bound == 0.0 and np.isfinite(vectors).all()

    bend = bend_law(wing.boundary_ids, (-0.02, 0.02), clamp_groups=("left",))
    rotations = [(wing, rotation_law(wing.boundary_ids, (-180.0, 180.0),
                                     pivot=(0.5, 0.1, 3.0), axis=axis))
                 for axis in "xyz"]
    rotations.append((lattice11, rotation_law(
        lattice11.boundary_ids, (-180.0, 180.0), pivot=(5.0, 5.0))))
    table = mk.tabulated_law(wing.boundary_ids, (0.0, 1.0),
                             {0.5: evaluate(bend, wing, 0.02)})
    op = assemble(wing, wing.boundary_ids[::3], wing.interior_ids)
    model = build_pod_model(op, bend, wing, np.linspace(-0.02, 0.02, 4), 1e-5)
    d = evaluate(bend, wing, 0.013)
    halves = (d.restrict(wing.boundary_ids[:20]),
              d.restrict(wing.boundary_ids[20:]))
    queries = [evaluate(bend, wing, mu).restrict(op.control_ids)
               for mu in (-0.02, 0.013)]
    monkeypatch.setattr(DisplacementField, "_built", classmethod(spy))

    for mu in (-0.02, 0.013):
        check(lambda: evaluate(bend, wing, mu), True)
    for mesh, law in rotations:
        for mu in (180.0, -180.0, 90.0, -37.5):
            check(lambda: evaluate(law, mesh, mu), True)
    check(lambda: evaluate(table, wing, 0.5), False)
    check(lambda: d.restrict(op.control_ids), False)
    check(lambda: mk.merge_fields(*halves), False)
    for d_c in queries:
        check(lambda: online_solve(model, d_c), True)


def test_online_output_is_frozen(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    model = build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5)
    out = online_solve(model, evaluate(law, wing, 0.015))
    with pytest.raises(ValueError):
        out.vectors.setflags(write=True)


def test_ids_frozen_where_made_are_kept_by_identity(wing):
    # enrich and select_random hand out read-only ids that own their data,
    # so the operator, a restriction and the model keep the caller's object
    params = mk.SelectionParams([("left", 0.3), ("top", 0.6)], seed=1)
    picked = mk.select_multi(wing, params).selected
    random_ids = mk.select_random(wing.boundary_ids, 12, 3)
    for ids in (mk.enrich(picked, wing, ["left_edge"]), random_ids):
        assert ids.dtype == np.int64 and ids.flags.owndata
        with pytest.raises(ValueError):
            ids[0] = ids[1]
        op = assemble(wing, ids, wing.interior_ids)
        law = bend_law(wing.boundary_ids, (0.0, 0.02), ("left",))
        d_hat = evaluate(law, wing, 0.01).restrict(ids)
        model = build_pod_model(op, law, wing, (0.01, 0.02), epsilon=1e-5)
        assert op.control_ids is ids
        assert d_hat.indices is ids
        assert evaluate(law, wing, 0.015).restrict(ids).indices is ids
        assert model.control_ids is ids
        # deform and online_solve take the ids by identity, and an equal
        # copy still passes by value
        copy = DisplacementField(ids.copy(), d_hat.vectors)
        np.testing.assert_array_equal(deform(op, copy).vectors,
                                      deform(op, d_hat).vectors)
        np.testing.assert_array_equal(online_solve(model, copy).vectors,
                                      online_solve(model, d_hat).vectors)


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


@pytest.mark.parametrize("s_min, accepted", [(5e-12, True), (5e-13, False)])
def test_online_rank_cut_sits_at_the_tolerance(s_min, accepted):
    # a handed-in K Z with singular values (1, s_min) against the cut
    # RANK_TOL * s_1 = 1e-12, a factor 5 on either side of it
    op = mk.IdwOperator(np.full((3, 2), 0.5), [0, 1, 2], [3, 4])
    Z, kz = np.eye(3)[:, :2], np.diag([1.0, s_min])
    if accepted:
        model = build_online(Z, np.array([1.0, 0.5]), op, kz=kz)
        np.testing.assert_allclose(model.online_map, np.diag([1.0, 1 / s_min]),
                                   rtol=1e-15)
    else:
        with pytest.raises(IllPosedOnlineError):
            build_online(Z, np.array([1.0, 0.5]), op, kz=kz)


def test_build_online_validation(wing):
    op = assemble(wing, wing.boundary_ids, wing.interior_ids)
    Z = np.ones((op.n_targets * 3, 1))
    with pytest.raises(ValueError, match="mode"):
        build_online(Z, np.array([1.0]), op, mode="fast")
    with pytest.raises(ValueError, match="multiple"):
        build_online(np.ones((op.n_targets * 3 + 1, 1)), np.array([1.0]), op)


def test_build_pod_model_checks_its_mode_before_the_snapshots(wing,
                                                              monkeypatch):
    def no_snapshots(*args):
        raise AssertionError("the snapshots were built")

    op = assemble(wing, wing.boundary_ids[::4], wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    monkeypatch.setattr(mk.pod, "build_snapshots", no_snapshots)
    with pytest.raises(ValueError, match="mode must be one of"):
        build_pod_model(op, law, wing, (0.01, 0.02), 1e-5, mode="wieghted")


def test_build_pod_model_checks_its_epsilon_before_the_snapshots(wing,
                                                                 monkeypatch):
    def no_snapshots(*args):
        raise AssertionError("the snapshots were built")

    op = assemble(wing, wing.boundary_ids[::4], wing.interior_ids)
    law = bend_law(wing.boundary_ids, (0.0, 0.02))
    monkeypatch.setattr(mk.pod, "build_snapshots", no_snapshots)
    with pytest.raises(ValueError,
                       match="^epsilon must be a finite number >= 0, got -1$"):
        build_pod_model(op, law, wing, (0.01, 0.02), -1)


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
    S, _ = build_snapshots(op, law, mesh, train)
    Z, sigma, _, _ = compute_pod(S, epsilon)
    return build_online(Z, sigma, op, epsilon=epsilon, train_params=train)


def _conditioned_operator(mesh, cond, seed=0):
    """Tall hand-built operator on the wing's interior with cond(W) = cond."""
    rng = np.random.default_rng(seed)
    controls = mesh.boundary_ids[::9]
    n, m = mesh.interior_ids.size, controls.size
    U = np.linalg.qr(rng.standard_normal((n, m)))[0]
    V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    W = (U * np.geomspace(1.0, 1.0 / cond, m)) @ V.T
    return mk.IdwOperator(W, mesh.interior_ids, controls)


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
    return wing, mk.IdwOperator(W, wing.interior_ids, sel)


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


def test_rank_guard_certifies_only_above_its_threshold():
    # Wt W = diag(1, 1e-8) exactly, so lambda_min = GRAM_TOL * lambda_max:
    # not certified; one ulp more in the small column is
    guard = mk.pod._full_column_rank
    at = np.array([[1.0, 0.0], [0.0, 1e-4], [0.0, 0.0]])
    assert np.linalg.eigvalsh(at.T @ at).tolist() == [mk.pod.GRAM_TOL, 1.0]
    assert not guard(at)
    above = at.copy()
    above[1, 1] = np.nextafter(1e-4, 1.0)
    assert guard(above)


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
    S, F = build_snapshots(op, law, wing, train)
    expected = np.column_stack([evaluate(law, wing, mu).restrict(sel)
                                .as_vector() for mu in train])
    np.testing.assert_array_equal(F, expected)
    assert not F.flags.writeable


def test_right_vectors_rebuild_the_basis():
    S = synthetic_snapshots([5.0, 3.0, 0.5], seed=2)
    Z, sigma, n, Vt = compute_pod(S, 0.01)
    assert Vt.shape == (n, 3)
    np.testing.assert_allclose(S @ Vt.T / sigma[:n], Z, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# persistence

# the members of a model file, as np.load names them
MEMBERS = ("basis", "singular_values", "online_map", "target_ids",
           "control_ids", "meta")

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
    # meta holds only what the arrays do not
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(MEMBERS)
        assert json.loads(npz["meta"].item()) == {
            "mode": "weighted", "dim": 3, "epsilon": 1e-5,
            "train_params": [0.005, 0.01, 0.02],
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


def test_numpy_reads_the_model_file(wing, tmp_path):
    # the file is a plain .npz archive: NumPy alone gives back every array
    model = _small_model(wing)
    path = tmp_path / "pod_model.bin"
    write_model(model, path)
    with np.load(path, allow_pickle=False) as npz:
        for name in MEMBERS[:-1]:
            held = getattr(model, name)
            assert npz[name].dtype == held.dtype
            assert npz[name].tobytes() == np.ascontiguousarray(held).tobytes()


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
    assert np.ascontiguousarray(model.basis).tobytes() in path.read_bytes()
    with np.load(path, allow_pickle=False) as npz:
        assert npz["basis"].flags.c_contiguous
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
    with pytest.raises(ValueError, match="starts b'WHAT', not a .npz archive"):
        read_model(path)


def test_read_model_rejects_pod1(wing, tmp_path):
    # and the POD2 and POD3 binary dumps, the earlier versions' files
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    for magic in (b"POD1", b"POD2", b"POD3"):
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(ValueError,
                           match="POD1 to POD3.*re-run pod-offline") as err:
            read_model(path)
        assert str(path) in str(err.value)
        assert repr(magic) in str(err.value)


def test_read_model_refuses_a_missing_file_with_oserror(tmp_path):
    with pytest.raises(OSError):
        read_model(tmp_path / "absent.bin")


def test_read_model_rejects_truncation(wing, tmp_path):
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    raw = path.read_bytes()
    # into the basis, into the zip directory, the last byte, below the
    # 4-byte zip magic, and nothing at all
    for size in (300, len(raw) - 200, len(raw) - 1, 3, 0):
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated|not a .npz") as err:
            read_model(path)
        assert str(path) in str(err.value)


def test_read_model_reports_a_short_header_as_truncated(wing, tmp_path):
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    path.write_bytes(path.read_bytes()[:20])  # into the first member's header
    with pytest.raises(ValueError, match=(
            rf"^{re.escape(str(path))}: bad model file, truncated or "
            r"damaged: File is not a zip file$")):
        read_model(path)


def test_read_model_rejects_a_flipped_byte(wing, tmp_path):
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    raw = bytearray(path.read_bytes())
    basis = np.ascontiguousarray(model.basis).tobytes()
    at = raw.find(basis) + len(basis) // 3
    raw[at] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=(
            rf"^{re.escape(str(path))}: bad model file, truncated or "
            r"damaged: Bad CRC-32 for file 'basis.npy'$")):
        read_model(path)


def _with_members(path, **members):
    """Rewrite the model archive at ``path`` with ``members`` replaced or
    added, or dropped where given None. A bytes value is stored as the
    member's raw .npy content, anything else through np.save."""
    with np.load(path, allow_pickle=False) as npz:
        held = {name: npz[name] for name in npz.files}
    held.update(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in held.items():
            if value is None:
                continue
            if not isinstance(value, bytes):
                buf = io.BytesIO()
                np.save(buf, np.asarray(value), allow_pickle=True)
                value = buf.getvalue()
            archive.writestr(name + ".npy", value)


def test_read_model_rejects_an_unknown_mode_flag(wing, tmp_path):
    # the mode is meta's string now, no longer a header flag
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    meta = {"mode": "wieghted", "dim": 3, "epsilon": 0.0,
            "train_params": [], "selection_params": None}
    _with_members(path, meta=json.dumps(meta))
    with pytest.raises(ValueError, match=(
            rf"^{re.escape(str(path))}: bad model file: ValueError\(\"mode "
            r"must be one of \('weighted', 'plain'\)\"\)$")):
        read_model(path)


def _as_meta(trailer):
    """The meta member for one of the old trailer's defects: a JSON object
    gains the mode and dim the trailer did not hold; anything else is
    stored as it stands, bytes that are not UTF-8 as a bytes array."""
    try:
        doc = json.loads(trailer)
    except ValueError:
        return np.array(trailer) if trailer[:1] == b"\xff" else trailer.decode()
    if not isinstance(doc, dict):
        return trailer.decode()
    return json.dumps({"mode": "weighted", "dim": 3, **doc})


# the defects of the old JSON trailer, each now one of the meta member
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
    _with_members(path, meta=_as_meta(trailer))
    with pytest.raises(ValueError, match="bad model file") as err:
        read_model(path)
    assert str(path) in str(err.value)


GOOD_META = {"mode": "weighted", "dim": 3, "epsilon": 0.0,
             "train_params": [], "selection_params": None}


@pytest.mark.parametrize("meta, words", [
    ({**GOOD_META, "mode": None}, "mode must be one of"),
    ({k: v for k, v in GOOD_META.items() if k != "mode"}, "KeyError('mode')"),
    ({k: v for k, v in GOOD_META.items() if k != "dim"}, "KeyError('dim')"),
    ({**GOOD_META, "dim": 3.5}, "dim must be an integer >= 1, got 3.5"),
    ({**GOOD_META, "dim": 0}, "dim must be an integer >= 1, got 0"),
    ({**GOOD_META, "dim": True}, "dim must be an integer >= 1, got True"),
    ({**GOOD_META, "dim": 1}, "basis shape inconsistent"),
])
def test_read_model_rejects_bad_mode_and_dim(wing, tmp_path, meta, words):
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    _with_members(path, meta=json.dumps(meta))
    with pytest.raises(ValueError, match="bad model file") as err:
        read_model(path)
    assert str(path) in str(err.value) and words in str(err.value)


def _one_mode_model(n_modes=1, epsilon=0.0):
    return mk.PodModel(np.ones((1, 1)), np.ones(1), n_modes, epsilon, "plain",
                       np.array([[1.0]]), [2], [5], 1)


def test_pod_model_checks_its_scalars_as_the_offline_stage_does(
        wing, tmp_path):
    # a one-column basis: True and 1.0 match its shape, as 1 does
    model = _one_mode_model(n_modes=1.0)
    assert type(model.n_modes) is int and model.n_modes == 1
    for n_modes in (True, 1.5, "1", None):
        with pytest.raises(ValueError, match=re.escape(
                f"n_modes must be an integer >= 1, got {n_modes!r}")):
            _one_mode_model(n_modes=n_modes)
    # compute_pod keeps at least one mode; a model of none would morph the
    # interior by zero
    with pytest.raises(ValueError,
                       match=r"^n_modes must be an integer >= 1, got 0$"):
        mk.PodModel(np.ones((1, 0)), np.ones(1), 0, 0.0, "plain",
                    np.ones((0, 1)), [2], [5], 1)
    with pytest.raises(ValueError,
                       match=r"^epsilon must be a finite number >= 0, got -1\.0$"):
        _one_mode_model(epsilon=-1.0)
    # compute_pod and build_pod_model refuse it, and so does a model file
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    _with_members(path, meta=json.dumps({**GOOD_META, "epsilon": -1}))
    with pytest.raises(ValueError, match="bad model file") as err:
        read_model(path)
    assert "epsilon must be a finite number >= 0, got -1" in str(err.value)


@pytest.mark.parametrize("member, value, words", [
    ("basis", None, "There is no item named 'basis.npy'"),
    ("meta", None, "There is no item named 'meta.npy'"),
    ("online_map", np.array([None, 1.0], dtype=object),
     "Object arrays cannot be loaded when allow_pickle=False"),
    ("meta", np.array([{"mode": "plain"}], dtype=object),
     "Object arrays cannot be loaded when allow_pickle=False"),
    ("basis", b"not an array", "the magic string is not correct"),
    ("basis", np.ones(3), "IndexError"),
    ("meta", np.array(1.5), "the JSON object must be str"),
    ("singular_values", np.array([1.0, np.nan]),
     "singular_values contains non-finite entries"),
    ("singular_values", np.ones((1, 1)),
     "singular_values must be one-dimensional"),
])
def test_read_model_rejects_a_bad_member(wing, tmp_path, member, value, words):
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    _with_members(path, **{member: value})
    with pytest.raises(ValueError, match="bad model file") as err:
        read_model(path)
    assert str(path) in str(err.value) and words in str(err.value)


@pytest.mark.parametrize("rows", [2**40, 2**20])
def test_read_model_refuses_an_oversize_header(wing, tmp_path, rows):
    # the header claims rows x 2 floats the file does not hold: refused
    # before they are allocated, which 2**40 rows could not be and 2**20
    # rows (16 MiB) would be
    path = tmp_path / "model.bin"
    write_model(_small_model(wing), path)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": "<f8", "fortran_order": False, "shape": (rows, 2)})
    _with_members(path, basis=buf.getvalue() + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(str(path))}: bad model file: ValueError\(\"member "
                rf"'basis' claims float64 of shape \({rows}, 2\), more than "
                rf"the file's {path.stat().st_size} bytes\"\)$")):
            read_model(path)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_read_model_refuses_a_member_of_another_npy_version(wing, tmp_path):
    path = tmp_path / "model.bin"
    model = _small_model(wing)
    write_model(model, path)
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(model.basis),
                              version=(2, 0))
    _with_members(path, basis=buf.getvalue())
    with pytest.raises(ValueError) as err:
        read_model(path)
    assert str(err.value) == (
        f"{path}: bad model file: ValueError(\"member 'basis' is not a "
        "version 1.0 .npy array\")")


def test_read_model_rejects_repeated_target_id(wing, tmp_path):
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    ids = model.target_ids.copy()
    ids[1] = ids[0]
    _with_members(path, target_ids=ids)
    with pytest.raises(ValueError, match="target_ids contain duplicates"):
        read_model(path)


def test_read_model_rejects_nan_in_online_map(wing, tmp_path):
    model = _small_model(wing)
    path = tmp_path / "model.bin"
    write_model(model, path)
    online_map = model.online_map.copy()
    online_map.flat[3] = np.nan
    _with_members(path, online_map=online_map)
    with pytest.raises(ValueError, match="online_map contains non-finite"):
        read_model(path)


def test_model_arrays_start_on_64_bytes(wing, tmp_path):
    model = _small_model(wing)
    write_model(model, tmp_path / "model.bin")
    for held in (model, read_model(tmp_path / "model.bin")):
        for arr in (held.basis, held.singular_values, held.online_map):
            assert arr.ctypes.data % 64 == 0 and not arr.flags.writeable
        assert held.basis.flags.f_contiguous


@pytest.mark.parametrize("change, match", [
    ({"mode": "wieghted"}, r"^mode must be one of \('weighted', 'plain'\)$"),
    ({"basis": np.ones((2, 1))},
     "^basis shape inconsistent with targets and n_modes$"),
    ({"online_map": np.ones((1, 2))},
     r"^online_map must be N x \(n_controls \* dim\)$"),
])
def test_model_refuses_inconsistent_parts(change, match):
    parts = dict(basis=np.ones((1, 1)), singular_values=np.ones(1),
                 n_modes=1, epsilon=0.0, mode="plain",
                 online_map=np.ones((1, 1)), control_ids=[2],
                 target_ids=[5], dim=1)
    mk.PodModel(**parts)
    with pytest.raises(ValueError, match=match):
        mk.PodModel(**{**parts, **change})


def test_model_rejects_repeated_control_id():
    with pytest.raises(ValueError, match="control_ids contain duplicates"):
        mk.PodModel(np.ones((1, 1)), np.ones(1), 1, 0.0, "plain",
                    np.ones((1, 2)), [2, 2], [5], 1)


# ---------------------------------------------------------------------------
# library use, as the README shows it

def test_readme_library_use_runs():
    # the block ends by printing the largest deviation of the reduced
    # morph from the direct one
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = re.search(r"^## Library use\n+```python\n(.*?)^```",
                     readme.read_text(), re.M | re.S).group(1)
    src = os.path.dirname(os.path.dirname(mk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert float(out.split()[-1]) <= 1e-10

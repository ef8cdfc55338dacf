"""Acceptance gate: ten machine-checked claims, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Every tolerance is stated inline next to its assert.
"""

from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import morphkit as mk
from morphkit import (DisplacementField, Mesh, RegionParams, SelectionParams,
                      apply_deformation, assemble, bend_law, build_pod_model,
                      compute_pod, deform, enrich, evaluate,
                      generate_box_wing, generate_tunnel, merge_fields,
                      mesh_quality, online_solve, pod_energy, pseudo_inverse,
                      relative_error, rotation_law, sample_domain, select,
                      select_multi, select_random, time_mean, weights_at)
from conftest import make_lattice2d


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cloud_mesh(rng, n, dim, n_controls):
    """Element-free point cloud split into controls (boundary) and targets."""
    nodes = rng.uniform(-1.0, 1.0, size=(n, dim))
    ids = rng.permutation(n)
    ctl = np.sort(ids[:n_controls])
    tgt = np.sort(ids[n_controls:])
    return Mesh(dim, nodes, np.empty((0, dim + 1), dtype=np.int64), ctl, tgt)


# the large wing every calibrated criterion below shares
def big_wing():
    return generate_box_wing(8, 4, 25, (1.0, 0.25, 6.3))


def wing_regions(r_lr):
    # tight radius on the clamp/tip faces, 10x coarser on the long sides
    return tuple([RegionParams("left", r_lr), RegionParams("right", r_lr)]
                 + [RegionParams(g, 10.0 * r_lr)
                    for g in ("top", "bottom", "front", "rear")])


EDGE_GROUPS = ("left_edge", "right_edge", "horizontal_edges")


def test_01_partition_of_unity():
    start = perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(20):
        dim = 3 if i % 2 == 0 else 2
        n = int(rng.integers(50, 2001))
        n_ctl = int(rng.integers(5, min(n // 2, 400) + 1))
        mesh = cloud_mesh(rng, n, dim, n_ctl)
        op = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
        worst = max(worst, float(np.abs(op.matrix.sum(axis=1) - 1.0).max()))
        if i % 2:  # thinned control set on half the meshes
            sel = select(mesh, mesh.boundary_ids, 0.4, seed=i).selected
            op = assemble(mesh, sel, mesh.interior_ids)
            worst = max(worst,
                        float(np.abs(op.matrix.sum(axis=1) - 1.0).max()))
        del op
    elapsed = perf_counter() - start
    verdict("criterion 1 (partition of unity)",
            worst <= 1e-12 and elapsed < 10.0,
            f"worst row-sum deviation {worst:.2e} over 20 meshes "
            f"in {elapsed:.1f}s")


def test_02_translation_and_indicator():
    mesh = generate_box_wing(6, 3, 12, (1.0, 0.25, 4.0))
    op = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    shift = np.array([0.3, -0.2, 0.1])
    d = DisplacementField(mesh.boundary_ids,
                          np.tile(shift, (mesh.boundary_ids.size, 1)))
    out = deform(op, d)
    trans_dev = float(np.abs(out.vectors - shift).max())

    controls = mesh.nodes[mesh.boundary_ids]
    ind_dev = 0.0
    for k in range(0, mesh.boundary_ids.size, 23):
        w = weights_at(controls[k], controls)
        e = np.zeros(len(controls))
        e[k] = 1.0
        ind_dev = max(ind_dev, float(np.abs(w - e).max()))
    verdict("criterion 2 (translation exactness)",
            trans_dev <= 1e-12 and ind_dev <= 1e-12,
            f"translation deviation {trans_dev:.2e}, "
            f"indicator deviation {ind_dev:.2e}")


def test_03_selection_invariants():
    meshes = {
        "lattice": make_lattice2d(10, 10, (10.0, 10.0)),
        "wing": generate_box_wing(3, 2, 6, (1.0, 0.25, 2.0)),
        "tunnel": generate_tunnel((4.0, 4.0, 4.0), (1.2, 1.2, 1.2), 6),
    }
    runs, worst_sep, worst_cover = 0, np.inf, 0.0
    for name, mesh in meshes.items():
        cands = mesh.boundary_ids
        pts = mesh.nodes[cands]
        h = float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())
        for factor in (0.5, 2.0, 5.0, 20.0):
            radius = factor * h
            for seed in range(5):
                res = select(mesh, cands, radius, seed=seed)
                sel_pts = mesh.nodes[res.selected]
                if len(sel_pts) > 1:
                    d = cdist(sel_pts, sel_pts)
                    np.fill_diagonal(d, np.inf)
                    assert d.min() >= radius - 1e-12, (name, factor, seed)
                    worst_sep = min(worst_sep, d.min() / radius)
                cover = cdist(pts, sel_pts).min(axis=1).max()
                assert cover <= radius + 1e-12, (name, factor, seed)
                worst_cover = max(worst_cover, cover / radius)
                if factor < 1.0:  # R below the spacing keeps everything
                    assert np.array_equal(res.selected, cands), name
                runs += 1
    verdict("criterion 3 (selection invariants)",
            runs >= 50,
            f"{runs} seeded runs, min separation {worst_sep:.2f}R, "
            f"max covering {worst_cover:.2f}R, R<h keeps all candidates")


def test_04_thinning_convergence():
    mesh = big_wing()
    n_cand = mesh.boundary_ids.size
    law = bend_law(mesh.boundary_ids, (0.0, 0.02), clamp_groups=("left",))
    op_full = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    d_b = evaluate(law, mesh, 0.01)
    d_ref = deform(op_full, d_b)

    def thin_error(ids):
        op = assemble(mesh, ids, mesh.interior_ids)
        return relative_error(deform(op, d_b.restrict(ids)), d_ref)

    # all-points limit: every region radius drops below its spacing
    res = select_multi(mesh, SelectionParams(wing_regions(0.005), seed=7))
    err_limit = thin_error(res.selected)
    covers_all = res.cardinality == n_cand

    # mid-range radius
    res = select_multi(mesh, SelectionParams(wing_regions(0.063), seed=7))
    retention = res.cardinality / n_cand
    err_sidw = thin_error(res.selected)
    esidw = enrich(res.selected, mesh, EDGE_GROUPS)
    err_esidw = thin_error(esidw)

    verdict("criterion 4 (thinning convergence)",
            covers_all and err_limit <= 1e-12
            and retention <= 0.25 and err_sidw <= 5e-2
            and err_esidw <= err_sidw,
            f"all-points err {err_limit:.1e}; mid-range keeps "
            f"{retention:.1%} with sidw err {err_sidw:.4f}, "
            f"esidw err {err_esidw:.4f}")


def test_05_mode_counts():
    start = perf_counter()
    mesh = generate_box_wing(6, 3, 12, (1.0, 0.25, 4.0))
    op = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)

    bend = bend_law(mesh.boundary_ids, (0.0, 0.02))
    model_b = build_pod_model(op, bend, mesh,
                              sample_domain(bend.domain, 20, seed=11),
                              epsilon=1e-5)

    rot = rotation_law(mesh.boundary_ids, (-36.0, 0.0),
                       pivot=(0.5, 0.125, 0.0))
    model_r = build_pod_model(op, rot, mesh,
                              sample_domain(rot.domain, 50, seed=11),
                              epsilon=1e-5)
    tail = pod_energy(model_r.singular_values, 2)
    elapsed = perf_counter() - start
    verdict("criterion 5 (mode counts)",
            model_b.n_modes == 1 and model_r.n_modes == 2
            and tail <= 1e-12 and elapsed < 30.0,
            f"bend N={model_b.n_modes}, rotation N={model_r.n_modes} "
            f"with E(2)={tail:.1e}, in {elapsed:.1f}s")


def test_06_online_accuracy():
    mesh = generate_box_wing(6, 3, 12, (1.0, 0.25, 4.0))
    law = bend_law(mesh.boundary_ids, (0.0, 0.02), clamp_groups=("left",))
    op_full = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    train = sample_domain(law.domain, 20, seed=5)
    mu_stars = np.random.default_rng(2026).uniform(0.0, 0.02, size=20)

    # full-control model against the full morph
    model_full = build_pod_model(op_full, law, mesh, train, epsilon=1e-5)
    worst_idw = 0.0
    refs = {}
    for mu in mu_stars:
        d_b = evaluate(law, mesh, mu)
        refs[mu] = deform(op_full, d_b)
        err = relative_error(online_solve(model_full, d_b), refs[mu])
        worst_idw = max(worst_idw, err)

    # thinned-and-enriched model: its online error must track the plain
    # thinned morph error, since the selection dominates
    res = select_multi(mesh, SelectionParams(wing_regions(0.07), seed=7))
    esidw = enrich(res.selected, mesh, EDGE_GROUPS)
    op_e = assemble(mesh, esidw, mesh.interior_ids)
    model_e = build_pod_model(op_e, law, mesh, train, epsilon=1e-5)
    worst_drift = 0.0
    err_pairs = []
    for mu in mu_stars:
        d_hat = evaluate(law, mesh, mu).restrict(esidw)
        err_plain = relative_error(deform(op_e, d_hat), refs[mu])
        err_pod = relative_error(online_solve(model_e, d_hat), refs[mu])
        worst_drift = max(worst_drift,
                          abs(err_pod - err_plain) / err_plain)
        err_pairs.append((err_plain, err_pod))
    verdict("criterion 6 (online accuracy)",
            worst_idw <= 1e-8 and worst_drift <= 0.10,
            f"pod-idw err {worst_idw:.1e} over 20 draws; pod-esidw err "
            f"{err_pairs[0][1]:.4f} vs plain {err_pairs[0][0]:.4f} "
            f"(relative drift {worst_drift:.1e})")


def test_07_online_speedup():
    mesh = generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 22)
    assert mesh.interior_ids.size >= 10_000
    law = rotation_law(mesh.boundary_ids, (-36.0, 0.0),
                       pivot=(2.5, 2.5, 2.5),
                       clamp_groups=("left", "right", "top", "bottom",
                                     "front", "rear"))
    d_b = evaluate(law, mesh, -5.0)

    op_full = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    t_full = time_mean(lambda: deform(op_full, d_b), repeat=100)
    d_ref = deform(op_full, d_b)
    del op_full

    regions = tuple([RegionParams("obstacle", 0.3)]
                    + [RegionParams(g, 1.0)
                       for g in ("left", "right", "top", "bottom",
                                 "front", "rear")])
    res = select_multi(mesh, SelectionParams(regions, seed=7))
    esidw = enrich(res.selected, mesh, ("obstacle_edges",))
    op = assemble(mesh, esidw, mesh.interior_ids)
    model = build_pod_model(op, law, mesh,
                            sample_domain(law.domain, 8, seed=3),
                            epsilon=1e-5)
    d_hat = d_b.restrict(esidw)
    t_online = time_mean(lambda: online_solve(model, d_hat), repeat=100)

    speedup = t_full / t_online
    # the speedup is only half the trade-off: the thinned operator's answer
    # against the full morph's is printed beside it, not gated
    err = relative_error(deform(op, d_hat), d_ref)
    verdict("criterion 7 (online speedup)",
            t_online <= t_full / 10.0,
            f"{mesh.interior_ids.size} interior nodes: full deform "
            f"{t_full * 1e3:.1f}ms vs online {t_online * 1e6:.0f}us "
            f"({speedup:.0f}x) at relative error {err:.4f} against the "
            f"full morph")


def test_08_random_baseline():
    mesh = big_wing()
    law = bend_law(mesh.boundary_ids, (0.0, 0.02), clamp_groups=("left",))
    op_full = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    d_b = evaluate(law, mesh, 0.01)
    d_ref = deform(op_full, d_b)

    def thin_error(ids):
        op = assemble(mesh, ids, mesh.interior_ids)
        return relative_error(deform(op, d_b.restrict(ids)), d_ref)

    sel = select(mesh, mesh.boundary_ids, 0.8, seed=7).selected
    err_sel = thin_error(sel)
    errors = [thin_error(select_random(mesh.boundary_ids, sel.size, 42 + i))
              for i in range(100)]
    stats = mk.random_baseline_stats(errors)
    z = (err_sel - stats.mean) / stats.std
    verdict("criterion 8 (random baseline)",
            stats.delta_min <= 0.0 <= stats.delta_max and abs(z) <= 3.0,
            f"card {sel.size}: selected err {err_sel:.4f} sits {z:+.2f} "
            f"std from the mean {stats.mean:.4f} "
            f"(delta_min {stats.delta_min:+.2f}, "
            f"delta_max {stats.delta_max:+.2f})")


def test_09_quality_stability():
    mesh = generate_tunnel((4.0, 4.0, 4.0), (1.2, 1.2, 1.2), 10)
    outer = ("left", "right", "top", "bottom", "front", "rear")
    law = rotation_law(mesh.boundary_ids, (-36.0, 0.0), pivot=(2.0, 2.0, 2.0),
                       clamp_groups=outer)
    d_b = evaluate(law, mesh, -5.0)
    op_full = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    full_q, _ = mesh_quality(apply_deformation(
        mesh, merge_fields(d_b, deform(op_full, d_b))))

    regions = tuple([RegionParams("obstacle", 0.19)]
                    + [RegionParams(g, 0.6) for g in outer])
    res = select_multi(mesh, SelectionParams(regions, seed=7))
    esidw = enrich(res.selected, mesh, ("obstacle_edges",))
    op = assemble(mesh, esidw, mesh.interior_ids)
    d_hat = d_b.restrict(esidw)
    thin_q, _ = mesh_quality(apply_deformation(
        mesh, merge_fields(d_b, deform(op, d_hat))))

    deviation = abs(thin_q - full_q) / full_q
    verdict("criterion 9 (quality stability)",
            deviation <= 0.05,
            f"max Q {full_q:.3f} full vs {thin_q:.3f} thinned "
            f"({deviation:.1%} apart) at mu=-5deg")


def test_10_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0

    # assembled rows against the textbook formula
    for dim in (2, 3):
        for p in (2, 4):
            mesh = cloud_mesh(rng, 40, dim, 24)
            op = assemble(mesh, mesh.boundary_ids, mesh.interior_ids,
                          mk.IdwConfig(p=p))
            ctl = mesh.nodes[mesh.boundary_ids]
            for row, tid in enumerate(op.target_ids):
                d = np.linalg.norm(ctl - mesh.nodes[tid], axis=1)
                w = d ** (-float(p))
                worst = max(worst,
                            float(np.abs(op.matrix[row] - w / w.sum()).max()))

    # energy truncation against a brute scan
    for eps in (0.5, 0.1, 1e-3, 1e-7, 0.0):
        sigma = np.array([3.0, 2.0, 1.0, 1e-3])
        U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        _, kept, n, _ = compute_pod((U * sigma) @ V.T, eps)
        sq = kept**2
        brute = next(m for m in range(1, kept.size + 1)
                     if sq[m:].sum() / sq.sum() <= eps)
        assert n == brute, (eps, n, brute)

    # Penrose conditions
    for shape in [(7, 4), (4, 7), (5, 5)]:
        A = rng.standard_normal(shape)
        if shape == (5, 5):
            A[:, -1] = A[:, 0]  # force a rank drop
        X = pseudo_inverse(A)
        worst = max(worst, float(np.abs(A @ X @ A - A).max()),
                    float(np.abs(X @ A @ X - X).max()),
                    float(np.abs((A @ X).T - A @ X).max()),
                    float(np.abs((X @ A).T - X @ A).max()))

    # reduced solve against an independent least-squares build
    mesh = generate_box_wing(2, 2, 2, (1.0, 1.0, 1.0))  # 27 nodes
    op = assemble(mesh, mesh.boundary_ids, mesh.interior_ids)
    for law in (bend_law(mesh.boundary_ids, (0.0, 0.5)),
                rotation_law(mesh.boundary_ids, (0.0, 30.0),
                             pivot=(0.5, 0.5, 0.5))):
        model = build_pod_model(op, law, mesh,
                                sample_domain(law.domain, 6, seed=1),
                                epsilon=1e-10)
        mu = 0.7 * law.domain[1]
        d_hat = evaluate(law, mesh, mu)
        mine = online_solve(model, d_hat).as_vector()
        KZ = np.kron(np.linalg.pinv(op.matrix), np.eye(3)) @ model.basis
        beta = np.linalg.lstsq(KZ, d_hat.as_vector(), rcond=None)[0]
        worst = max(worst,
                    float(np.abs(mine - model.basis @ beta).max()))

    verdict("criterion 10 (oracle equivalence)",
            worst <= 1e-10,
            f"largest deviation from brute-force computations {worst:.1e}")

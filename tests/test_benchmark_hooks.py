"""What the benchmark in ``perfbench/`` takes from the library: the
functions its tracer wraps, the config its tunnel scenario writes and
the calls its worker and workloads make outside the tracer.

A renamed function or argument, or a refused config key, then fails
here, not only in the benchmark's own smoke run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import numpy as np

from morphkit import cli, generate_tunnel

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def tunnel_config():
    scenario = object.__new__(load("workloads").TunnelScenario)
    scenario.smoke = True
    return scenario.config()


def test_every_traced_function_is_the_owners_own(tracing):
    # the tracer reads owner.__dict__, so an inherited or renamed
    # attribute would stop it at start-up
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_tunnel_config_passes_the_table_and_reads_raw(tunnel_config):
    checked = cli.check_config(tunnel_config)
    assert checked["law"]["axis"] == "z"
    # the benchmark hands its raw config to the selection helpers
    params = cli.selection_params(tunnel_config, None)
    assert params == cli.selection_params(checked, None)
    assert [r.radius for r in params.regions] == [0.3] + [1.0] * 6
    mesh = generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 8)
    np.testing.assert_array_equal(
        cli.run_selection(mesh, tunnel_config, None)[0],
        cli.run_selection(mesh, checked, None)[0])


def test_every_untraced_call_the_benchmark_makes(tunnel_config, tmp_path):
    # perfbench/worker.py and perfbench/workloads.py call these directly,
    # outside the tracer, with these arguments; each is made once here on
    # the smoke tunnel, and once on the smoke wing where study-wing differs
    import morphkit
    from morphkit import _kernels, idw, laws, mesh, metrics, pod, selection

    assert isinstance(morphkit.__version__, str)
    assert morphkit.backend_name() == _kernels.backend_name()
    assert morphkit.compiled_available() == _kernels.compiled_available()

    spec = tunnel_config["mesh"]
    m = mesh.generate_tunnel(tuple(spec["outer"]), tuple(spec["inner"]),
                             spec["resolution"])
    spec = tunnel_config["law"]
    law = laws.rotation_law(m.boundary_ids, tuple(spec["domain"]),
                            pivot=tuple(spec["pivot"]),
                            clamp_groups=tuple(spec["clamp_groups"]))
    tol = idw.IdwConfig().resolve_tol(m.nodes)
    targets, boundary = m.nodes[m.interior_ids], m.nodes[m.boundary_ids]
    w = _kernels.assemble_weight_matrix(targets, boundary, 4, tol,
                                        backend="numpy")
    assert w.shape == (m.interior_ids.size, m.boundary_ids.size)

    params = cli.selection_params(tunnel_config, None)
    result = selection.select_multi(m, params)
    ids = selection.enrich(result.selected, m, ("obstacle_edges",))
    np.testing.assert_array_equal(
        ids, cli.run_selection(m, tunnel_config, None)[0])
    op = idw.assemble(m, ids, m.interior_ids)
    assert op.n_controls == ids.size and op.matrix.nbytes > 0
    train = laws.sample_domain(law.domain, 8, 3)
    model = pod.build_pod_model(op, law, m, train, 1e-5)
    assert model.n_modes >= 1
    mu = float(np.mean(law.domain))
    d_b = laws.evaluate(law, m, mu)
    d_hat = d_b.restrict(ids)
    out = pod.online_solve(model, d_hat)
    assert metrics.relative_error(out, idw.deform(op, d_hat)) <= 1e-10
    full = idw.deform(idw.assemble(m, m.boundary_ids, m.interior_ids[:64]),
                      d_b)
    assert metrics.relative_error(
        mesh.DisplacementField(m.interior_ids[:64], full.vectors), full) == 0

    # the study-wing loop: a bend law, R-sweep points and random draws
    wing = mesh.generate_box_wing(4, 2, 8, (1.0, 0.25, 2.0))
    bend = laws.bend_law(wing.boundary_ids, (0.0, 0.02),
                         clamp_groups=("left",))
    regions = [("left", 0.05), ("right", 0.05)] + [
        (g, 0.5) for g in ("top", "bottom", "front", "rear")]
    picked = selection.select_multi(
        wing, selection.SelectionParams(regions, seed=5))
    thin = selection.enrich(picked.selected, wing,
                            ("left_edge", "right_edge", "horizontal_edges"))
    drawn = selection.select_random(wing.boundary_ids, 20, 5)
    d_w = laws.evaluate(bend, wing, 0.01)
    ref = idw.deform(idw.assemble(wing, wing.boundary_ids,
                                  wing.interior_ids), d_w)
    for control in (thin, drawn):
        d = idw.deform(idw.assemble(wing, control, wing.interior_ids),
                       d_w.restrict(control))
        assert 0 < metrics.relative_error(d, ref) < 1

    # the cold commands, with the arguments cli-tunnel passes them
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tunnel_config))
    common = ["--config", str(cfg), "--repeat", "1"]
    pod_dir = str(tmp_path / "pod")
    for argv in (["morph", *common, "--out", str(tmp_path / "morph"),
                  "--mu", repr(mu)],
                 ["pod-offline", *common, "--out", pod_dir],
                 ["pod-online", *common, "--out", pod_dir, "--mu", repr(mu),
                  "--reference", "none"]):
        assert cli.main(argv) == 0
    for path in (tmp_path / "morph" / "deformed.json",
                 tmp_path / "pod" / "deformed.json"):
        assert mesh.read_mesh(path).node_count == m.node_count
    with open(tmp_path / "morph" / "report.json") as fh:
        assert np.isfinite(json.load(fh)[0]["rel_error"])

"""End-to-end runs of every subcommand against tiny generated meshes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import morphkit as mk
from morphkit import cli, idw, read_mesh, read_selection
from morphkit.cli import main
from morphkit.metrics import CSV_COLUMNS

FACES = ("left", "right", "top", "bottom", "front", "rear")


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "mesh": {"generator": "box_wing", "nx": 3, "ny": 2, "nz": 6,
                 "lengths": [1.0, 0.25, 2.0]},
        "law": {"kind": "bend", "domain": [0.0, 0.02],
                "clamp_groups": ["left"]},
        "selection": {"radius": 0.3, "a": 0.8, "b": 1.3, "seed": 1,
                      "regions": [{"group": g} for g in FACES]},
        "mu": 0.01,
        "repeat": 2,
        "pod": {"n_train": 5, "epsilon": 1e-5, "seed": 0},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def cli_mesh():
    return mk.generate_box_wing(3, 2, 6, (1.0, 0.25, 2.0))


# ---------------------------------------------------------------------------

def test_mesh_gen(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["mesh-gen", "--config", str(cfg), "--out", str(out),
                 "--vtk"]) == 0
    mesh = read_mesh(out / "mesh.json")
    assert mesh == cli_mesh()
    assert (out / "mesh.vtk").exists()
    assert "84 nodes" in capsys.readouterr().out


def test_select_sidw(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["select", "--config", str(cfg), "--out", str(out)]) == 0
    ids, echo = read_selection(out / "selection.json")
    mesh = cli_mesh()
    assert np.isin(ids, mesh.boundary_ids).all()
    assert 0 < ids.size < mesh.boundary_ids.size
    assert echo["seed"] == 1
    assert "sidw" in capsys.readouterr().out


def test_select_enrichment_makes_esidw(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, name="plain.json")
    rich = write_cfg(tmp_path, name="rich.json",
                     enrichment=["left_edge", "right_edge"])
    assert main(["select", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["select", "--config", str(rich), "--out", str(out_b)]) == 0
    plain_ids, _ = read_selection(out_a / "selection.json")
    rich_ids, _ = read_selection(out_b / "selection.json")
    assert "esidw" in capsys.readouterr().out
    assert np.isin(plain_ids, rich_ids).all()
    mesh = cli_mesh()
    assert np.isin(mesh.group("left_edge"), rich_ids).all()
    # the enriched ids, with the walk's own trace and pick order
    np.testing.assert_array_equal(
        rich_ids, mk.enrich(plain_ids, mesh, ["left_edge", "right_edge"]))
    docs = [json.loads((o / "selection.json").read_text())
            for o in (out_a, out_b)]
    assert docs[1]["trace"] == docs[0]["trace"]
    runs = [cli.run_selection(mesh, cli.load_config(c), None)
            for c in (cfg, rich)]
    assert runs[1][1] == "esidw"
    np.testing.assert_array_equal(runs[1][3].selected, rich_ids)
    assert runs[1][3].order == runs[0][3].order


def test_morph_writes_report_and_mesh(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["morph", "--config", str(cfg), "--out", str(out),
                 "--vtk"]) == 0
    rows = read_rows(out / "report.csv")
    assert [r["method"] for r in rows] == ["sidw", "idw"]
    assert 0.0 < float(rows[0]["rel_error"]) < 1.0
    assert float(rows[1]["rel_error"]) == 0.0
    assert int(rows[0]["card_C_hat"]) < int(rows[1]["card_C_hat"])
    deformed = read_mesh(out / "deformed.json")
    assert not np.array_equal(deformed.nodes, cli_mesh().nodes)
    assert (out / "deformed.vtk").exists()
    assert (out / "report.json").exists()


def test_morph_header_is_stable(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    main(["morph", "--config", str(cfg), "--out", str(out)])
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_morph_without_selection_is_exact(tmp_path):
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    assert main(["morph", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "report.csv")
    assert rows[0]["method"] == "idw"
    assert rows[0]["rel_error"] == "0.0"  # compared against itself


def test_mu_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, selection=None)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["morph", "--config", str(cfg), "--out", str(out1)])
    main(["morph", "--config", str(cfg), "--out", str(out2),
          "--mu", "0.02"])
    a = read_mesh(out1 / "deformed.json")
    b = read_mesh(out2 / "deformed.json")
    assert not np.array_equal(a.nodes, b.nodes)


def test_pod_offline_then_online(tmp_path):
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert (out / "pod_model.bin").exists()
    assert (out / "pod_model.bin.json").exists()
    offline = read_rows(out / "offline_report.csv")
    assert offline[0]["method"] == "pod-idw"
    assert int(offline[0]["N_modes"]) == 1  # the bend family is rank one

    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--mu", "0.013"]) == 0
    rows = read_rows(out / "online_report.csv")
    assert rows[0]["method"] == "pod-idw"
    assert float(rows[0]["rel_error"]) < 1e-8
    assert rows[1]["method"] == "idw"
    assert read_mesh(out / "deformed.json").node_count == 84


def test_pod_online_explicit_model_path(tmp_path):
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    main(["pod-offline", "--config", str(cfg), "--out", str(out)])
    moved = tmp_path / "stash.bin"
    moved.write_bytes((out / "pod_model.bin").read_bytes())
    (out / "pod_model.bin.json").rename(tmp_path / "stash.bin.json")
    (out / "pod_model.bin").unlink()
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--model", str(moved), "--mu", "0.01"]) == 0


def test_pod_offline_with_selection_names_method(tmp_path):
    cfg = write_cfg(tmp_path, enrichment=["left_edge"])
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg),
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "pod_model.bin.json").read_text())
    assert sidecar["selection_params"]["method"] == "esidw"
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--mu", "0.01"]) == 0
    rows = read_rows(out / "online_report.csv")
    assert rows[0]["method"] == "pod-esidw"


def test_sweep_mu(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "mu", "--values", "0.005,0.01,0.02"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 3
    assert all(r["method"] == "sidw" for r in rows)


def test_sweep_R_scales_radius(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "R", "--values", "0.25,0.5"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [float(r["R"]) for r in rows] == [0.25, 0.5]
    # a larger influence radius keeps fewer control points
    assert int(rows[1]["card_C_hat"]) < int(rows[0]["card_C_hat"])


def test_sweep_R_needs_base_radius(tmp_path, capsys):
    cfg = write_cfg(tmp_path, selection={"regions": [
        {"group": "left", "radius": 0.2}]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "R", "--values", "0.1"]) == 1
    assert "radius" in capsys.readouterr().err


def test_sweep_a_couples_b(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "a", "--values", "0.5", "--couple-b"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert float(rows[0]["a"]) == 0.5
    assert float(rows[0]["b"]) == 2.0


@pytest.mark.parametrize("axis", ["R", "a", "b"])
def test_sweep_needs_selection(tmp_path, capsys, axis):
    # without a selection section there is nothing for the value to set
    cfg = write_cfg(tmp_path, selection=None)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--axis", axis, "--values", "0.5,0.6"]) == 1
    assert f"{axis} sweep needs a 'selection' section" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_couple_b_needs_axis_a(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--axis", "b", "--values", "1.5", "--couple-b"]) == 1
    assert "--couple-b goes only with --axis a" in capsys.readouterr().err


def sweep_selection(radius, right_radius):
    # radius factors 0.5, 0.75 and 1 and an absolute 1.5 * base, so the
    # mean region radius, the R a row reports, is 5.75/6 of the base
    # radius; with a base of 0.5 and swept radii 0.25 and 1.0 every
    # product and sum is exact
    regions = [{"group": g} for g in FACES]
    regions[0]["radius_factor"] = 0.5
    regions[1] = {"group": FACES[1], "radius": right_radius}
    regions[2]["radius_factor"] = 0.75
    return {"radius": radius, "a": 0.8, "b": 1.3, "seed": 1,
            "regions": regions}


@pytest.mark.parametrize("axis, values, hand", [
    ("R", (0.25, 1.0),
     lambda v: {"selection": sweep_selection(v, 0.75 * (v / 0.5))}),
    ("a", (0.5, 0.6),
     lambda v: {"selection": dict(sweep_selection(0.5, 0.75), a=v, b=1.0 / v)}),
    ("b", (1.5, 2.0),
     lambda v: {"selection": dict(sweep_selection(0.5, 0.75), b=v)}),
])
def test_sweep_rows_equal_single_morphs(tmp_path, axis, values, hand):
    cfg = write_cfg(tmp_path, selection=sweep_selection(0.5, 0.75))
    extra = ["--couple-b"] if axis == "a" else []
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--axis", axis, "--values", ",".join(map(str, values)),
                 *extra]) == 0
    rows = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert len(rows) == len(values)
    for j, (value, row) in enumerate(zip(values, rows)):
        edited = write_cfg(tmp_path, name=f"hand{j}.json", **hand(value))
        out = tmp_path / f"m{j}"
        assert main(["morph", "--config", str(edited), "--out", str(out)]) == 0
        single = json.loads((out / "report.json").read_text())[0]
        untimed = {k: v for k, v in row.items() if not k.startswith("t_")}
        assert untimed == {k: v for k, v in single.items()
                           if not k.startswith("t_")}
        if axis == "R":  # the mean radius of the regions used
            assert untimed["R"] == value * 5.75 / 6
        else:
            assert untimed[axis] == value


@pytest.mark.parametrize("axis, values, calls", [
    ("R", "0.25,0.5", 1), ("a", "0.5,0.6", 1), ("b", "1.5,2.0", 1),
    ("mu", "0.005,0.01", 2)])
def test_sweep_computes_one_reference_per_mu(tmp_path, monkeypatch, axis,
                                             values, calls):
    cfg = write_cfg(tmp_path)
    seen = []
    streamed = idw.interpolate

    def counted(*args, **kwargs):
        seen.append(args)
        return streamed(*args, **kwargs)

    monkeypatch.setattr(idw, "interpolate", counted)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--axis", axis, "--values", values]) == 0
    assert len(seen) == calls
    rows = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert len(rows) == 2
    assert all(0.0 < r["rel_error"] < 1.0 for r in rows)


def test_random_baseline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, baseline_seed=42)
    out = tmp_path / "out"
    assert main(["random-baseline", "--config", str(cfg),
                 "--out", str(out), "--draws", "8"]) == 0
    doc = json.loads((out / "random_baseline_stats.json").read_text())
    assert doc["draws"] == 8
    assert doc["master_seed"] == 42
    assert doc["delta_min"] <= 0.0 <= doc["delta_max"]
    rows = read_rows(out / "random_baseline.csv")
    assert len(rows) == 9  # the selection row plus one per draw
    assert rows[0]["method"] == "sidw"
    assert all(r["method"] == "random" for r in rows[1:])
    assert doc["cardinality"] == int(rows[0]["card_C_hat"])


def test_random_baseline_needs_selection(tmp_path, capsys):
    cfg = write_cfg(tmp_path, selection=None)
    assert main(["random-baseline", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "selection" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["morph"], ["pod-online", "--reference", "idw"],
    ["random-baseline", "--draws", "2"]])
def test_full_reference_is_streamed(tmp_path, monkeypatch, command):
    # the reference morph must not build the dense full-boundary operator
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    if command[0] == "pod-online":
        assert main(["pod-offline", "--config", str(cfg),
                     "--out", str(out)]) == 0
    full = cli_mesh().boundary_ids.size
    dense = idw.assemble

    def thinned_only(mesh, control_ids, target_ids, config=idw.IdwConfig()):
        assert np.size(control_ids) < full, "full operator assembled"
        return dense(mesh, control_ids, target_ids, config)

    monkeypatch.setattr(idw, "assemble", thinned_only)
    assert main([command[0], "--config", str(cfg), "--out", str(out),
                 *command[1:]]) == 0
    name = {"morph": "report.json", "pod-online": "online_report.json",
            "random-baseline": "random_baseline.csv"}[command[0]]
    assert (out / name).exists()
    if command[0] != "random-baseline":
        rows = json.loads((out / name).read_text())
        assert rows[1]["method"] == "idw"
        assert rows[1]["t_assembly_s"] is None
        assert rows[1]["t_deform_s"] > 0.0
        assert np.isfinite([rows[1]["max_Q"], rows[1]["mean_Q"]]).all()


def test_select_rejects_a_seed_point_naming_no_region(tmp_path, capsys):
    cfg = write_cfg(tmp_path, selection={
        "radius": 0.3, "regions": [{"group": "left"}],
        "seed_points": {"lefft": 3}})
    out = tmp_path / "out"
    assert main(["select", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'lefft'" in capsys.readouterr().err
    assert not (out / "selection.json").exists()


@pytest.mark.parametrize("command, overrides, message", [
    (["mesh-gen"], {"mesh": {"path": "missing.json"}}, "missing.json"),
    (["select"], {"selection": {"radius": 0.3, "regions": [{"group": "left"}],
                                "seed_points": {"lefft": 3}}}, "'lefft'"),
    (["morph"], {"law": {"kind": "twist", "domain": [0.0, 0.02]}}, "twist"),
])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_command_leaves_no_directory_it_made(
        tmp_path, capsys, command, overrides, message, existing):
    cfg = write_cfg(tmp_path, **overrides)
    out = tmp_path / "made" / "out"
    if existing:
        out.mkdir(parents=True)
    assert main([command[0], "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert out.exists() == existing
    assert (tmp_path / "made").exists() == existing
    if existing:
        assert not any(out.iterdir())


def test_mesh_gen_reads_no_selection_section(tmp_path):
    cfg = write_cfg(tmp_path, selection={"regions": [], "seed_points": {"x": 1}})
    assert main(["mesh-gen", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, cfg_repeat, message", [
    (["random-baseline", "--draws", "1"], 2, "at least two error samples"),
    (["morph", "--repeat", "0"], 2, "repeat must be at least 1"),
    (["pod-online", "--repeat", "-1"], 2, "repeat must be at least 1"),
    (["morph"], 0, "repeat must be at least 1"),
])
def test_bad_counts_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                         command, cfg_repeat, message):
    def no_mesh(cfg):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_mesh", no_mesh)
    cfg = write_cfg(tmp_path, repeat=cfg_repeat)
    out = tmp_path / "out"
    assert main([command[0], "--config", str(cfg), "--out", str(out),
                 *command[1:]]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# seed plumbing

def expected_selection(seed):
    mesh = cli_mesh()
    params = mk.SelectionParams(
        tuple(mk.RegionParams(g, 0.3) for g in FACES),
        a=0.8, b=1.3, seed=seed)
    return mk.select_multi(mesh, params).selected


def run_select(tmp_path, out, extra=()):
    cfg = tmp_path / "cfg.json"
    assert main(["select", "--config", str(cfg), "--out", str(out),
                 *extra]) == 0
    return read_selection(out / "selection.json")[0]


def test_seed_precedence(tmp_path, monkeypatch):
    write_cfg(tmp_path)  # config seed is 1
    ids = run_select(tmp_path, tmp_path / "o1")
    np.testing.assert_array_equal(ids, expected_selection(1))

    monkeypatch.setenv("MORPHKIT_SEED", "2")
    ids = run_select(tmp_path, tmp_path / "o2")
    np.testing.assert_array_equal(ids, expected_selection(2))

    ids = run_select(tmp_path, tmp_path / "o3", extra=("--seed", "3"))
    np.testing.assert_array_equal(ids, expected_selection(3))


# ---------------------------------------------------------------------------
# failure modes

def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_config(tmp_path, capsys):
    assert main(["morph", "--config", str(tmp_path / "nope.json"),
                 "--mu", "0.01"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_generator(tmp_path, capsys):
    cfg = write_cfg(tmp_path, mesh={"generator": "sphere"})
    assert main(["mesh-gen", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "generator" in capsys.readouterr().err


def test_morph_without_mu(tmp_path, capsys):
    cfg = write_cfg(tmp_path, mu=None)
    assert main(["morph", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "--mu" in capsys.readouterr().err


def test_pod_online_without_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["pod-online", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--mu", "0.01"]) == 1
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # the package runs on NumPy alone; SciPy is only a test oracle
    code = ("import sys, morphkit.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(mk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_library_loads_no_numpy_ma():
    # np.unique imports numpy.ma, ~16 ms of every cold command; the id
    # checks and unions sort instead
    code = """if True:
        import sys
        import morphkit as mk
        mesh = mk.generate_box_wing(4, 2, 8, (1.0, 0.25, 3.0)).validate()
        params = mk.SelectionParams([("left", 0.1), ("top", 0.3)], seed=1)
        res = mk.select_multi(mesh, params)
        mk.enrich(res.selected, mesh, ["left_edge", "horizontal_edges"])
        mk.merge_fields(mk.DisplacementField.zero([5, 3], 3),
                        mk.DisplacementField.zero([1, 4], 3))
        print("numpy.ma" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(mk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

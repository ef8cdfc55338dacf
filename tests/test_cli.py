"""End-to-end runs of every subcommand against tiny generated meshes."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morphkit as mk
from morphkit import (cli, idw, pod, read_mesh, read_selection, selection,
                      write_mesh)
from morphkit.cli import main
from morphkit.metrics import CSV_COLUMNS

FACES = ("left", "right", "top", "bottom", "front", "rear")

# an override that writes a JSON null (None drops the key)
NULL = object()


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
        elif value is NULL:
            cfg[key] = None
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
    tunnel = write_cfg(tmp_path, name="tunnel.json", mesh={
        "generator": "tunnel", "outer": [4, 4, 4], "inner": [1.2, 1.2, 1.2],
        "resolution": 6})
    assert main(["mesh-gen", "--config", str(tunnel),
                 "--out", str(tmp_path / "tunnel")]) == 0
    text = (tmp_path / "tunnel" / "mesh.json").read_text()
    assert text == json.dumps(json.loads(text)) + "\n"
    assert read_mesh(tmp_path / "tunnel" / "mesh.json") == mk.generate_tunnel(
        (4.0, 4.0, 4.0), (1.2, 1.2, 1.2), 6)


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
    runs = [cli.run_selection(mesh, cli.check_config(cli.load_config(c)),
                              None)
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
    text = (out / "deformed.json").read_text()
    assert text == json.dumps(json.loads(text)) + "\n"
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


def test_morph_rotation_is_the_library_path(tmp_path):
    # the config's axis and pivot reach the law; the deformed mesh is
    # evaluate -> select_multi -> assemble -> deform, bit for bit
    cfg = write_cfg(tmp_path, law={
        "kind": "rotation", "domain": [-30.0, 0.0], "axis": "x",
        "pivot": [0.5, 0.125, 1.0], "clamp_groups": ["left"]})
    out = tmp_path / "out"
    assert main(["morph", "--config", str(cfg), "--out", str(out),
                 "--mu", "-12.5"]) == 0
    mesh = cli_mesh()
    law = mk.rotation_law(mesh.boundary_ids, (-30.0, 0.0),
                          pivot=(0.5, 0.125, 1.0), axis="x",
                          clamp_groups=("left",))
    d_b = mk.evaluate(law, mesh, -12.5)
    params = mk.SelectionParams(tuple(mk.RegionParams(g, 0.3) for g in FACES),
                                a=0.8, b=1.3, seed=1)
    ids = mk.select_multi(mesh, params).selected
    op = idw.assemble(mesh, ids, mesh.interior_ids, idw.IdwConfig(p=4))
    d_i = idw.deform(op, d_b.restrict(ids))
    expected = mk.apply_deformation(mesh, mk.merge_fields(d_b, d_i))
    got = read_mesh(out / "deformed.json")
    assert got.nodes.tobytes() == expected.nodes.tobytes()
    assert np.any(got.nodes[:, 0] == mesh.nodes[:, 0])   # x stays put
    assert not np.array_equal(got.nodes, mesh.nodes)


def test_morph_tabulated_bend_fields_is_the_bend_morph(tmp_path):
    # a file of unclamped bend fields under the config's clamp is the
    # clamped bend law; the file's domain applies, as the config has none
    mesh = cli_mesh()
    bend = mk.bend_law(mesh.boundary_ids, (0.0, 0.02))
    entries = []
    for mu in (0.0, 0.01, 0.02):
        d = mk.evaluate(bend, mesh, mu)
        entries.append({"mu": mu, "indices": d.indices.tolist(),
                        "vectors": d.vectors.tolist()})
    table = tmp_path / "bend_table.json"
    table.write_text(json.dumps({"domain": [0.0, 0.02], "entries": entries}))
    tab = write_cfg(tmp_path, name="tab.json", law={
        "kind": "tabulated", "path": str(table), "clamp_groups": ["left"]})
    for cfg, out in ((write_cfg(tmp_path), "bend"), (tab, "tab")):
        assert main(["morph", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "tab" / "deformed.json").read_bytes() \
        == (tmp_path / "bend" / "deformed.json").read_bytes()


def test_pod_offline_then_online(tmp_path, monkeypatch):
    seen = []
    build_online = pod.build_online

    def spy(*args, **kwargs):
        seen.append(kwargs.get("kz"))
        return build_online(*args, **kwargs)

    monkeypatch.setattr(pod, "build_online", spy)

    # all 74 boundary nodes drive 10 interior ones: W is wide, so the
    # weighted map comes from a solve
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert seen == [None]
    with np.load(out / "pod_model.bin", allow_pickle=False) as npz:
        assert "basis" in npz.files  # a .npz archive under its own name
    assert not (out / "pod_model.bin.json").exists()
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

    # 8 controls over 54 interior nodes: W is tall, so the weighted map
    # comes from the snapshot SVD's K Z instead
    tall = write_cfg(
        tmp_path, name="tall.json",
        mesh={"generator": "box_wing", "nx": 4, "ny": 3, "nz": 10,
              "lengths": [1.0, 0.5, 2.0]},
        selection={"radius": 0.6, "seed": 1,
                   "regions": [{"group": "left"}, {"group": "top"}]},
        pod={"n_train": 6, "seed": 2})
    out = tmp_path / "tall"
    assert main(["pod-offline", "--config", str(tall), "--out", str(out)]) == 0
    assert len(seen) == 2 and seen[1] is not None
    model = mk.read_model(out / "pod_model.bin")
    assert model.mode == "weighted"
    assert np.isfinite(model.online_map).all()
    assert model.target_ids.size >= model.control_ids.size
    assert main(["pod-online", "--config", str(tall), "--out", str(out),
                 "--reference", "none"]) == 0
    row = json.loads((out / "online_report.json").read_text())[0]
    assert row["N_modes"] == 1 and np.isfinite(row["mean_Q"])
    # the model read back answers as the thinned morph it reduces
    conf = cli.check_config(cli.load_config(tall))
    mesh = cli.build_mesh(conf)
    law = cli.build_law(conf, mesh)
    op = idw.assemble(mesh, model.control_ids, model.target_ids,
                      cli._idw_config(conf))
    for mu in (0.004, 0.017):
        d = mk.evaluate(law, mesh, mu).restrict(model.control_ids)
        assert mk.relative_error(mk.online_solve(model, d),
                                 mk.deform(op, d)) <= 1e-10


def test_pod_online_explicit_model_path(tmp_path):
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    main(["pod-offline", "--config", str(cfg), "--out", str(out)])
    moved = tmp_path / "stash.bin"
    (out / "pod_model.bin").rename(moved)
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--model", str(moved), "--mu", "0.01"]) == 0
    assert read_rows(out / "online_report.csv")[0]["method"] == "pod-idw"


def test_pod_offline_with_selection_names_method(tmp_path):
    cfg = write_cfg(tmp_path, enrichment=["left_edge"])
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg),
                 "--out", str(out)]) == 0
    model = mk.read_model(out / "pod_model.bin")
    assert model.selection_params == {"method": "esidw"}
    assert model.epsilon == 1e-5
    assert model.train_params == tuple(mk.sample_domain((0.0, 0.02), 5, 0))
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--mu", "0.01"]) == 0
    rows = read_rows(out / "online_report.csv")
    assert rows[0]["method"] == "pod-esidw"
    # a copy of the one file keeps its method
    copy = tmp_path / "copy" / "model.bin"
    copy.parent.mkdir()
    copy.write_bytes((out / "pod_model.bin").read_bytes())
    other = tmp_path / "other"
    assert main(["pod-online", "--config", str(cfg), "--out", str(other),
                 "--mu", "0.01", "--model", str(copy)]) == 0
    assert read_rows(other / "online_report.csv")[0]["method"] == "pod-esidw"


@pytest.mark.parametrize("damage, message", [
    (lambda raw: b"POD1" + raw[4:], "re-run pod-offline"),
    (lambda raw: b"POD2" + raw[4:], "re-run pod-offline"),
    (lambda raw: raw[:-1], "truncated"),
    # the archive stays whole, but has no meta member
    (lambda raw: raw.replace(b"meta.npy", b"mate.npy"), "bad model file"),
])
def test_pod_online_refuses_a_bad_model(tmp_path, capsys, damage, message):
    cfg = write_cfg(tmp_path, selection=None)
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 0
    model = out / "pod_model.bin"
    model.write_bytes(damage(model.read_bytes()))
    capsys.readouterr()
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--mu", "0.01"]) == 1
    err = capsys.readouterr().err
    assert str(model) in err and message in err


def test_pod_offline_trains_a_tabulated_law_on_its_entries(tmp_path, capsys):
    # uniform draws would hit no entry; the table's own mu values, in
    # ascending order, are the training set, whatever pod.n_train says
    mesh = cli_mesh()
    bend = mk.bend_law(mesh.boundary_ids, (0.0, 0.02))
    entries = []
    for mu in (1.0, 0.0, 0.5):
        d = mk.evaluate(bend, mesh, 0.02 * mu)
        entries.append({"mu": mu, "indices": d.indices.tolist(),
                        "vectors": d.vectors.tolist()})
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"domain": [0.0, 1.0], "entries": entries}))
    cfg = write_cfg(tmp_path, law={"kind": "tabulated", "path": str(table),
                                   "clamp_groups": ["left"]})
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 0
    assert "from 3 snapshots" in capsys.readouterr().out
    assert mk.read_model(out / "pod_model.bin").train_params == (0.0, 0.5, 1.0)
    assert main(["pod-online", "--config", str(cfg), "--out", str(out),
                 "--mu", "0.5"]) == 0
    assert main(["morph", "--config", str(cfg), "--out", str(tmp_path / "m"),
                 "--mu", "0.5"]) == 0
    online = float(read_rows(out / "online_report.csv")[0]["rel_error"])
    thinned = float(read_rows(tmp_path / "m" / "report.csv")[0]["rel_error"])
    assert 0.0 < thinned and abs(online - thinned) <= 1e-9 * thinned


def test_pod_online_refuses_a_model_of_another_mesh(tmp_path, monkeypatch,
                                                    capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 0
    longer = write_cfg(tmp_path, name="longer.json", mesh={
        "generator": "box_wing", "nx": 3, "ny": 2, "nz": 7,
        "lengths": [1.0, 0.25, 2.0]})
    evaluated = counted(monkeypatch, mk.laws, "evaluate")
    capsys.readouterr()
    assert main(["pod-online", "--config", str(longer), "--out", str(out),
                 "--mu", "0.01"]) == 1
    model = mk.read_model(out / "pod_model.bin")
    mesh = mk.generate_box_wing(3, 2, 7, (1.0, 0.25, 2.0))
    assert capsys.readouterr().err == (
        f"error: {out / 'pod_model.bin'}: built on another mesh: its "
        f"{model.target_ids.size} target and {model.control_ids.size} control "
        f"ids are not among the {mesh.interior_ids.size} interior and "
        f"{mesh.boundary_ids.size} boundary ids of the config's mesh\n")
    assert not evaluated
    assert not (out / "online_report.csv").exists()


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


def test_sweep_a_couples_b(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", "a", "--values", "0.5", "--couple-b"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert float(rows[0]["a"]) == 0.5
    assert float(rows[0]["b"]) == 2.0


def test_sweep_values_may_start_negative(tmp_path):
    # argparse takes "-0.01,-0.005" for an option unless it is glued on
    cfg = write_cfg(tmp_path, repeat=1, law={
        "kind": "bend", "domain": [-0.02, 0.0], "clamp_groups": ["left"]})
    tables = []
    for j, values in enumerate([["--values", "-0.01,-0.005"],
                                ["--values=-0.01,-0.005"]]):
        out = tmp_path / f"s{j}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "mu", *values]) == 0
        tables.append([{k: v for k, v in r.items() if not k.startswith("t_")}
                       for r in read_rows(out / "sweep.csv")])
    assert len(tables[0]) == 2 and tables[1] == tables[0]
    assert main(["morph", "--config", str(cfg), "--out", str(tmp_path / "m"),
                 "--mu", "-0.01"]) == 0
    single = read_rows(tmp_path / "m" / "report.csv")[0]
    assert {k: v for k, v in single.items()
            if not k.startswith("t_")} == tables[0][0]
    with pytest.raises(SystemExit):  # a trailing --values is still refused
        main(["sweep", "--config", str(cfg), "--axis", "mu", "--values"])


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


def own_radii(scale):
    # every region sets its own radius and the section no base radius, so
    # R scales them by the value over their mean, 0.375; scales of 0.5 and
    # 2 keep every product and sum exact
    return {"a": 0.8, "b": 1.3, "seed": 1,
            "regions": [{"group": g, "radius": (0.25, 0.5)[i % 2] * scale}
                        for i, g in enumerate(FACES)]}


# the R values swept over own_radii(1.0)
OWN_R = (0.1875, 0.75)


@pytest.mark.parametrize("axis, values, hand", [
    ("R", (0.25, 1.0),
     lambda v: {"selection": sweep_selection(v, 0.75 * (v / 0.5))}),
    ("a", (0.5, 0.6),
     lambda v: {"selection": dict(sweep_selection(0.5, 0.75), a=v, b=1.0 / v)}),
    ("b", (1.5, 2.0),
     lambda v: {"selection": dict(sweep_selection(0.5, 0.75), b=v)}),
    ("R", OWN_R, lambda v: {"selection": own_radii(v / 0.375)}),
])
def test_sweep_rows_equal_single_morphs(tmp_path, axis, values, hand):
    base = own_radii(1.0) if values == OWN_R else sweep_selection(0.5, 0.75)
    cfg = write_cfg(tmp_path, selection=base)
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
            assert untimed["R"] == value * (5.75 / 6 if "radius" in base
                                            else 1.0)
        else:
            assert untimed[axis] == value


def counted(monkeypatch, module, name):
    """The list of calls to ``module.name`` the test makes from now on."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("axis, values, calls", [
    ("R", "0.25,0.5", 1), ("a", "0.5,0.6", 1), ("b", "1.5,2.0", 1),
    ("mu", "0.005,0.01", 2),
    # a command in place of the axis: one selection each, and morph's one
    # reference
    ("morph", None, 1), ("pod-offline", None, 0)])
def test_sweep_computes_one_reference_per_mu(tmp_path, monkeypatch, axis,
                                             values, calls):
    cfg = write_cfg(tmp_path)
    seen = counted(monkeypatch, idw, "interpolate")
    selected = counted(monkeypatch, selection, "select_multi")
    assembled = counted(monkeypatch, idw, "assemble")
    command = ["sweep", "--axis", axis, "--values", values] if values else [axis]
    assert main([command[0], "--config", str(cfg), "--out", str(tmp_path / "s"),
                 *command[1:]]) == 0
    assert len(seen) == calls
    # one selection and operator along mu, one per value along R, a and b
    per_value = values is not None and axis != "mu"
    assert len(selected) == len(assembled) == (2 if per_value else 1)
    if values:
        rows = json.loads((tmp_path / "s" / "sweep.json").read_text())
        assert len(rows) == 2
        assert all(0.0 < r["rel_error"] < 1.0 for r in rows)


@pytest.mark.parametrize("axis, values, words", [
    ("mu", "0.01,0.5", "mu=0.5 outside domain [0.0, 0.02]"),
    ("a", "0.5,1.5", "a must lie in (0, 1), got 1.5"),
    ("b", "1.5,0.5", "b must "),
    ("R", "0.3,-0.3", "radius must "),
    ("mu", "0.1,x", "--values: 'x' is not a finite number"),
    ("R", "0.3, nan", "--values: 'nan' is not a finite number"),
])
def test_sweep_checks_every_value_before_its_first_row(
        tmp_path, monkeypatch, capsys, axis, values, words):
    cfg = write_cfg(tmp_path)
    calls = [counted(monkeypatch, module, name) for module, name in (
        (selection, "select_multi"), (idw, "assemble"), (idw, "interpolate"))]
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--axis", axis, "--values", values]) == 1
    assert words in capsys.readouterr().err
    assert calls == [[], [], []]
    assert not out.exists()


def test_sweep_mu_refuses_a_value_the_table_lacks(tmp_path, monkeypatch,
                                                  capsys):
    mesh = cli_mesh()
    d = mk.evaluate(mk.bend_law(mesh.boundary_ids, (0.0, 0.02)), mesh, 0.01)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"domain": [0.0, 1.0], "entries": [
        {"mu": mu, "indices": d.indices.tolist(),
         "vectors": (mu * d.vectors).tolist()} for mu in (0.0, 1.0)]}))
    cfg = write_cfg(tmp_path, law={"kind": "tabulated", "path": str(table)})
    selected = counted(monkeypatch, selection, "select_multi")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--axis", "mu", "--values", "1.0,0.5"]) == 1
    assert "no entry for mu=0.5" in capsys.readouterr().err
    assert not selected


@pytest.mark.parametrize("command", ["morph", "pod-offline"])
def test_a_table_missing_free_control_ids_fails_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    # the entry at the config's mu covers every control id, the one at
    # mu 1.0 only the first half of them
    mesh = cli_mesh()
    d = mk.evaluate(mk.bend_law(mesh.boundary_ids, (0.0, 0.02)), mesh, 0.01)
    half = d.indices.size // 2
    table = tmp_path / "half.json"
    table.write_text(json.dumps({"domain": [0.0, 1.0], "entries": [
        {"mu": 0.01, "indices": d.indices.tolist(),
         "vectors": d.vectors.tolist()},
        {"mu": 1.0, "indices": d.indices[:half].tolist(),
         "vectors": d.vectors[:half].tolist()}]}))
    cfg = write_cfg(tmp_path, law={"kind": "tabulated", "path": str(table)})
    selected = counted(monkeypatch, selection, "select_multi")
    assembled = counted(monkeypatch, idw, "assemble")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    missing = d.indices[half:half + 5].tolist()
    assert capsys.readouterr().err == (
        f"error: {table}: entry at mu=1.0: ids not covered by field: "
        f"{missing}\n")
    assert selected == assembled == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["morph", "pod-offline"])
def test_a_table_entry_outside_its_domain_fails_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    # morph runs at an entry inside the domain, pod-offline would train on
    # every entry; both refuse the file before the selection
    mesh = cli_mesh()
    d = mk.evaluate(mk.bend_law(mesh.boundary_ids, (0.0, 0.02)), mesh, 0.01)
    table = tmp_path / "outside.json"
    table.write_text(json.dumps({"domain": [0.0, 1.0], "entries": [
        {"mu": mu, "indices": d.indices.tolist(),
         "vectors": (mu * d.vectors).tolist()} for mu in (0.0, 0.5, 1.5)]}))
    cfg = write_cfg(tmp_path, law={"kind": "tabulated", "path": str(table)},
                    mu=0.5)
    selected = counted(monkeypatch, selection, "select_multi")
    assembled = counted(monkeypatch, idw, "assemble")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {table}: the document: entry at mu=1.5 outside domain "
        "[0.0, 1.0]\n")
    assert selected == assembled == []
    assert not out.exists()


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


def test_random_baseline_needs_selection(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, selection=None)
    assembled = counted(monkeypatch, idw, "assemble")
    assert main(["random-baseline", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "selection" in capsys.readouterr().err
    assert not assembled  # not even the dense full operator


@pytest.mark.parametrize("law, mu, message", [
    (None, "0.03", "mu=0.03 outside domain [0.0, 0.02]"),
    # every face clamped, so its one entry covers the free control ids
    ({"kind": "tabulated", "path": "table.json", "clamp_groups": FACES},
     "0.25", "tabulated law has no entry for mu=0.25")])
def test_random_baseline_refuses_a_bad_mu_before_any_work(
        tmp_path, monkeypatch, capsys, law, mu, message):
    monkeypatch.chdir(tmp_path)
    Path("table.json").write_text(json.dumps(TABLES["table"]))
    cfg = write_cfg(tmp_path, **({} if law is None else {"law": law}))
    selected = counted(monkeypatch, selection, "select_multi")
    assembled = counted(monkeypatch, idw, "assemble")
    out = tmp_path / "out"
    assert main(["random-baseline", "--config", str(cfg), "--out", str(out),
                 "--mu", mu]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert selected == assembled == []
    assert not out.exists()


def test_random_baseline_refuses_a_selection_of_every_boundary_node(
        tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, selection={
        "radius": 0.001, "seed": 1, "regions": [{"group": g} for g in FACES]})
    assembled = counted(monkeypatch, idw, "assemble")
    interpolated = counted(monkeypatch, idw, "interpolate")
    assert main(["random-baseline", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--draws", "5"]) == 1
    k = cli_mesh().boundary_ids.size
    assert capsys.readouterr().err == (
        f"error: the selection keeps all {k} boundary nodes, so every random "
        "draw would be that same set\n")
    assert len(assembled) == 1 and not interpolated


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


# a tabulated law's file, and files that break it one way each
ENTRY = {"mu": 0.5, "indices": [0], "vectors": [[0.0, 0.0, 0.0]]}
TABLES = {
    "table": {"domain": [0.0, 1.0], "entries": [ENTRY]},
    "t_array": [ENTRY],
    "t_entry": {"domain": [0.0, 1.0], "entries": [ENTRY, 3]},
    "t_no_domain": {"entries": [ENTRY]},
    "t_no_entries": {"domain": [0.0, 1.0]},
    **{f"t_no_{key}": {"domain": [0.0, 1.0], "entries": [
        {k: v for k, v in ENTRY.items() if k != key}]}
       for key in ("mu", "indices", "vectors")},
    "t_repeat": {"domain": [0.0, 1.0], "entries": [ENTRY, ENTRY]},
    "t_width": {"domain": [0.0, 1.0], "entries": [
        ENTRY, {"mu": 0.75, "indices": [0], "vectors": [[0.0, 0.0]]}]},
    "t_2d": {"domain": [0.0, 1.0], "entries": [
        {"mu": 0.5, "indices": [0], "vectors": [[0.0, 0.0]]}]},
    "t_domain": {"domain": [0, 1, 2], "entries": [ENTRY]},
    "t_string": {"domain": [0.0, 1.0], "entries": [
        {"mu": 0.5, "indices": [0], "vectors": [["0.1", "0", "0"]]}]},
}
WING = {"generator": "box_wing", "nx": 3, "ny": 2, "nz": 6,
        "lengths": [1.0, 0.25, 2.0]}
TUNNEL = {"generator": "tunnel", "outer": [4, 4, 4], "inner": [1.2, 1.2, 1.2],
          "resolution": 4}
LEFT = {"radius": 0.3, "regions": [{"group": "left"}]}


@pytest.mark.parametrize("command, overrides, message", [
    (["mesh-gen"], {"mesh": {"path": "missing.json"}}, "missing.json"),
    (["select"], {"selection": {"radius": 0.3, "regions": [{"group": "left"}],
                                "seed_points": {"lefft": 3}}}, "'lefft'"),
    (["morph"], {"law": {"kind": "twist", "domain": [0.0, 0.02]}}, "twist"),
    (["mesh-gen"], {"mesh": {"path": "bad_mesh.json"}}, "integers"),
    (["morph"], {"idw": {"p": 2.5}}, "p must be an integer >= 1, got 2.5"),
    (["morph"], {"idw": {"p": None}}, "p must be an integer >= 1, got None"),
    (["morph"], {"idw": {"p": True}}, "p must be an integer >= 1, got True"),
    (["morph"], {"idw": {"p": "4"}}, "p must be an integer >= 1, got '4'"),
    (["mesh-gen"], {"mesh": {"generator": "box_wing", "nx": 4.5, "ny": 2,
                             "nz": 6, "lengths": [1.0, 0.25, 2.0]}},
     "nx must be an integer >= 1, got 4.5"),
    (["mesh-gen"], {"mesh": {"generator": "tunnel", "outer": [4, 4, 4],
                             "inner": [1.2, 1.2, 1.2], "resolution": 4.5}},
     "resolution must be an integer >= 1, got 4.5"),
    (["morph"], {"mu": NULL}, "'mu' must be a finite number, got None"),
    (["morph"], {"mu": "0.01"}, "'mu' must be a finite number, got '0.01'"),
    (["pod-offline"], {"pod": {"n_train": None}},
     "'pod.n_train' must be an integer, got None"),
    (["pod-offline"], {"pod": {"n_train": 4.5}},
     "'pod.n_train' must be an integer, got 4.5"),
    (["pod-offline"], {"pod": {"n_train": 5, "epsilon": "1e-5"}},
     "'pod.epsilon' must be a finite number, got '1e-5'"),
    (["select"], {"selection": {"radius": 0.3, "a": None,
                                "regions": [{"group": "left"}]}},
     "'selection.a' must be a finite number, got None"),
    (["select"], {"selection": {"radius": 0.3, "seed": 7.9,
                                "regions": [{"group": "left"}]}},
     "'selection.seed' must be an integer >= 0, got 7.9"),
    (["select"], {"selection": {"radius": "0.3",
                                "regions": [{"group": "left"}]}},
     "'selection.radius' must be a finite number, got '0.3'"),
    (["select"], {"selection": {"radius": 0.3, "regions": [
        {"group": "left"}, {"group": "top", "radius_factor": True}]}},
     "'selection.regions[1].radius_factor' must be a finite number, got True"),
    (["morph"], {"law": {"kind": "bend", "domain": [None, 0.02]}},
     "domain bound must be a finite number, got None"),
    (["pod-offline"], {"pod": {"n_train": 5, "seed": -1}},
     "'pod.seed' must be an integer >= 0, got -1"),
    # config sections that are not JSON objects (or arrays)
    (["mesh-gen"], {"mesh": "path/to/m.json"},
     "error: 'mesh' must be a JSON object, got 'path/to/m.json'"),
    (["morph"], {"law": "bend"}, "error: 'law' must be a JSON object, got 'bend'"),
    (["morph"], {"law": {"kind": "bend", "domain": [0.0, 0.02],
                         "clamp_groups": "left"}},
     "error: 'law.clamp_groups' must be a JSON array, got 'left'"),
    (["morph"], {"idw": 4}, "error: 'idw' must be a JSON object, got 4"),
    (["pod-offline"], {"pod": [1]}, "error: 'pod' must be a JSON object, got [1]"),
    (["select"], {"selection": "left"},
     "error: 'selection' must be a JSON object, got 'left'"),
    (["select"], {"selection": {"radius": 0.3, "regions": {"group": "left"}}},
     "error: 'selection.regions' must be a JSON array, got {'group': 'left'}"),
    (["select"], {"selection": {"radius": 0.3, "regions": ["left"]}},
     "error: 'selection.regions[0]' must be a JSON object, got 'left'"),
    (["select"], {"selection": {"radius": 0.3, "regions": [{"group": "left"}],
                                "seed_points": [3]}},
     "error: 'selection.seed_points' must be a JSON object, got [3]"),
    (["morph"], {"enrichment": "obstacle_edges"},
     "error: 'enrichment' must be a JSON array, got 'obstacle_edges'"),
    (["morph"], {"enrichment": ["left", 5]},
     "error: 'enrichment' must list group names, got ['left', 5]"),
    # region entries that name no group
    (["select"], {"selection": {"radius": 0.3, "regions": [{"radius": 0.3}]}},
     "error: 'selection.regions[0].group' must name a node group, got None"),
    (["select"], {"selection": {"radius": 0.3,
                                "regions": [{"group": "left"}, None]}},
     "error: 'selection.regions[1].group' must name a node group, got None"),
    (["morph"], {"selection": {"regions": [{"group": None}]}},
     "error: 'selection.regions[0].group' must name a node group, got None"),
    (["select"], {"selection": {"radius": 0.3, "regions": [{"group": 3}]}},
     "error: 'selection.regions[0].group' must name a node group, got 3"),
    (["morph"], {"law": {"kind": "bend", "domain": 5}},
     "error: 'law.domain' must be a JSON array, got 5"),
    # a tabulated law's domain is its file's, and a file that is not one
    (["morph"], {"law": {"kind": "tabulated", "path": "table.json",
                         "domain": [5, 6]}},
     "error: 'law.domain' [5, 6] differs from the domain [0.0, 1.0] "
     "of table.json"),
    *[(["morph"], {"law": {"kind": "tabulated", "path": f"{name}.json"}},
       f"error: {name}.json: {message}")
      for name, message in [
          ("t_array", "top-level value must be an object"),
          ("t_entry", "entries[1]: 'int' object is not subscriptable"),
          ("t_no_domain", "missing key 'domain'"),
          ("t_no_entries", "missing key 'entries'"),
          ("t_no_mu", "entries[0] has no 'mu'"),
          ("t_no_indices", "entries[0] has no 'indices'"),
          ("t_no_vectors", "entries[0] has no 'vectors'")]],
    (["morph"], {"law": {"kind": "tabulated", "path": "t_repeat.json"}},
     "error: t_repeat.json: entries[1]: repeats mu 0.5"),
    # a key the config table does not list, one at each depth
    (["mesh-gen"], {"repeet": 2},
     "error: 'repeet' is not a config key; did you mean 'repeat'?"),
    (["mesh-gen"], {"mesh": dict(WING, nxx=3)},
     "error: 'mesh.nxx' is not a config key; did you mean 'mesh.nx'?"),
    (["morph"], {"law": {"kind": "bend", "domain": [0.0, 0.02],
                         "clamp_group": ["left"]}},
     "error: 'law.clamp_group' is not a config key; "
     "did you mean 'law.clamp_groups'?"),
    (["select"], {"selection": dict(LEFT, stratgy="centroid_nearest")},
     "error: 'selection.stratgy' is not a config key; "
     "did you mean 'selection.strategy'?"),
    (["select"], {"selection": {"radius": 0.3, "regions": [
        {"group": "left", "radius_factr": 2.0}]}},
     "error: 'selection.regions[0].radius_factr' is not a config key; "
     "did you mean 'selection.regions[0].radius_factor'?"),
    (["pod-offline"], {"pod": {"n_trian": 4}},
     "error: 'pod.n_trian' is not a config key; did you mean 'pod.n_train'?"),
    (["morph"], {"idw": {"P": 2}},
     "error: 'idw.P' is not a config key; did you mean 'idw.p'?"),
    # a key the chosen generator or law kind needs
    (["mesh-gen"], {"mesh": {k: v for k, v in WING.items() if k != "nx"}},
     "error: 'mesh.nx' is required by a box_wing mesh"),
    (["mesh-gen"],
     {"mesh": {k: v for k, v in TUNNEL.items() if k != "resolution"}},
     "error: 'mesh.resolution' is required by a tunnel mesh"),
    (["morph"], {"law": {"domain": [0.0, 0.02]}},
     "error: 'law.kind' must be one of ['bend', 'rotation', 'tabulated'], "
     "got None"),
    (["morph"], {"law": {"kind": "bend", "clamp_groups": ["left"]}},
     "error: 'law.domain' is required by a bend law"),
    (["morph"], {"law": {"kind": "rotation", "domain": [-30.0, 0.0]}},
     "error: 'law.pivot' is required by a rotation law"),
    (["morph"], {"law": {"kind": "tabulated", "domain": [0.0, 1.0]}},
     "error: 'law.path' is required by a tabulated law"),
    # a key the chosen generator, law kind or region does not read
    (["morph"], {"law": {"kind": "bend", "domain": [0.0, 0.02], "axis": "x"}},
     "error: 'law.axis' is not read by a bend law"),
    (["morph"], {"law": {"kind": "bend", "domain": [0.0, 0.02],
                         "pivot": [0.0, 0.0, 0.0]}},
     "error: 'law.pivot' is not read by a bend law"),
    (["morph"], {"law": {"kind": "tabulated", "path": "table.json",
                         "pivot": [0.0, 0.0, 0.0]}},
     "error: 'law.pivot' is not read by a tabulated law"),
    (["morph"], {"law": {"kind": "rotation", "domain": [-30.0, 0.0],
                         "pivot": [0.0, 0.0, 0.0], "path": "table.json"}},
     "error: 'law.path' is not read by a rotation law"),
    (["select"], {"selection": {"regions": [
        {"group": "left", "radius": 0.5, "radius_factor": 3.0}]}},
     "error: 'selection.regions[0].radius_factor' is not read beside "
     "'selection.regions[0].radius'"),
    (["mesh-gen"], {"mesh": dict(WING, resolution=4)},
     "error: 'mesh.resolution' is not read by a box_wing mesh"),
    (["mesh-gen"], {"mesh": dict(TUNNEL, nx=3)},
     "error: 'mesh.nx' is not read by a tunnel mesh"),
    (["mesh-gen"], {"mesh": {"path": "bad_mesh.json", "generator": "tunnel"}},
     "error: 'mesh.generator' is not read beside 'mesh.path'"),
    (["mesh-gen"], {"mesh": {"path": "bad_mesh.json", "nx": 3}},
     "error: 'mesh.nx' is not read beside 'mesh.path'"),
    # a projection that is not one of pod.MODES
    (["pod-offline"], {"pod": {"n_train": 5, "projection": "wieghted"}},
     "error: 'pod.projection' must be one of ['weighted', 'plain'], "
     "got 'wieghted'"),
    # a = 0 is refused before b = 1/a is formed
    (["sweep", "--axis", "a", "--values", "0", "--couple-b"], {},
     "error: a must lie in (0, 1), got 0.0\n"),
    # a KeyError's message, without the quotes its str() adds
    # (every face clamped, so its one entry covers the free control ids)
    (["morph"], {"law": {"kind": "tabulated", "path": "table.json",
                         "clamp_groups": FACES}, "mu": 0.25},
     "error: tabulated law has no entry for mu=0.25\n"),
    # sections and values a command needs but the config leaves empty
    (["mesh-gen"], {"mesh": {}}, "error: config has no 'mesh' section\n"),
    (["morph"], {"law": None}, "error: config has no 'law' section\n"),
    (["select"], {"selection": None},
     "error: config has no 'selection' section\n"),
    (["select"], {"selection": {"radius": 0.3, "regions": []}},
     "error: selection section lists no regions\n"),
    (["select"], {"selection": {"regions": [{"group": "left"}]}},
     "error: region 'left' has no radius and the selection section sets no "
     "base 'radius'\n"),
    (["sweep", "--axis", "mu", "--values", ","], {},
     "error: --values is empty\n"),
    # a tabulated law's vectors: one width, the mesh's dim
    (["morph"], {"law": {"kind": "tabulated", "path": "t_width.json"}},
     "error: t_width.json: entry at mu=0.75: vectors have width 2, the mesh "
     "has dim 3\n"),
    (["morph"], {"law": {"kind": "tabulated", "path": "t_2d.json"}},
     "error: t_2d.json: entry at mu=0.5: vectors have width 2, the mesh "
     "has dim 3\n"),
    # domains that are not a pair, and extents that are not numbers
    *[(["morph"], {"law": {"kind": "bend", "domain": domain}},
       f"error: domain must be [lo, hi], got {domain}\n")
      for domain in ([0, 1, 2], [0], [])],
    (["morph"], {"law": {"kind": "tabulated", "path": "t_domain.json"}},
     "error: t_domain.json: the document: domain must be [lo, hi], got "
     "[0, 1, 2]\n"),
    (["mesh-gen"], {"mesh": dict(WING, lengths="abc")},
     "error: lengths must be three positive extents, got 'abc'\n"),
    (["mesh-gen"], {"mesh": dict(TUNNEL, outer="x")},
     "error: outer must be three positive extents, got 'x'\n"),
    # a clamp group the mesh lacks is the config's fault, not the table's
    (["morph"], {"law": {"kind": "tabulated", "path": "table.json",
                         "clamp_groups": ["lefft"]}},
     "error: unknown group 'lefft'; have ["),
    # a rotation pivot that is not a flat list of numbers
    *[(["morph"], {"law": {"kind": "rotation", "domain": [-30.0, 0.0],
                           "pivot": pivot}},
       f"error: pivot must list numbers, got {pivot!r}\n")
      for pivot in ({}, "abc", True)],
    # extents and table vectors are numbers, not bools or numeric strings
    (["mesh-gen"], {"mesh": dict(WING, lengths=[True, 0.25, 2])},
     "error: lengths must be three positive extents, got [True, 0.25, 2]\n"),
    (["morph"], {"law": {"kind": "tabulated", "path": "t_string.json"}},
     "error: t_string.json: entries[0]: vectors must hold numbers, got "
     "'0.1'\n"),
])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_command_leaves_no_directory_it_made(
        tmp_path, monkeypatch, capsys, command, overrides, message, existing):
    # bad_mesh.json is the CLI mesh with the element id 0.4
    monkeypatch.chdir(tmp_path)
    write_mesh(cli_mesh(), "bad_mesh.json")
    doc = json.loads((tmp_path / "bad_mesh.json").read_text())
    doc["elements"][0][1] = 0.4
    (tmp_path / "bad_mesh.json").write_text(json.dumps(doc))
    for name, table in TABLES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table))
    cfg = write_cfg(tmp_path, **overrides)
    out = tmp_path / "made" / "out"
    if existing:
        out.mkdir(parents=True)
    assert main([command[0], "--config", str(cfg), "--out", str(out),
                 *command[1:]]) == 1
    assert message in capsys.readouterr().err
    assert out.exists() == existing
    assert (tmp_path / "made").exists() == existing
    if existing:
        assert not any(out.iterdir())


def readme_config_section():
    """README's text from "A complete config:" to "Typical flow:"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text[text.index("A complete config:"):text.index("Typical flow:")]


def table_keys(table, where=""):
    """Every key of a config table, as its dotted path."""
    for key, spec in table.items():
        yield where + key
        if isinstance(spec, dict):
            yield from table_keys(spec, f"{where}{key}.")
        elif isinstance(spec, list):
            yield from table_keys(spec[0], f"{where}{key}[i].")


def test_readme_config_passes_the_table_and_names_every_key():
    section = readme_config_section()
    block = section[section.index("```json") + 7:section.index("```\n\n")]
    cfg = cli.check_config(json.loads(block))
    assert cfg["selection"]["regions"][2]["radius_factor"] == 2.0
    assert cfg["selection"]["regions"][0]["radius_factor"] == 1.0
    missing = [key for key in table_keys(cli.CONFIG)
               if f"`{key}`" not in section]
    assert missing == []
    # and every key a bullet of the list starts with is one of the table's
    listed = set(re.findall(r"^- `([^`]+)`", section, re.M))
    assert listed <= set(table_keys(cli.CONFIG))


def test_checked_config_fills_only_the_clis_defaults():
    cfg = cli.check_config({"mesh": {"path": "m.json"}})
    assert cfg == {"out": ".", "repeat": 100, "baseline_seed": 0,
                   "mesh": {"path": "m.json"}, "law": {}, "selection": {},
                   "enrichment": [],
                   "pod": {"n_train": 50, "seed": 0, "epsilon": 1e-5,
                           "projection": "weighted"},
                   "idw": {}}
    # a given selection gets its seed and each region its factor; the
    # library's defaults (a, b, strategy, p, axis) are not written here
    cfg = cli.check_config({"selection": {"regions": [{"group": "left"}]},
                            "law": {"kind": "rotation", "domain": [0, 1],
                                    "pivot": [0, 0, 0]}})
    assert cfg["selection"] == {"seed": 0, "regions": [
        {"group": "left", "radius_factor": 1.0}]}
    assert cfg["law"] == {"kind": "rotation", "domain": [0, 1],
                          "pivot": [0, 0, 0], "clamp_groups": []}


def test_bad_projection_fails_before_any_assembly(tmp_path, monkeypatch,
                                                  capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the offline stage started")

    monkeypatch.setattr(idw, "assemble", no_work)
    monkeypatch.setattr(pod, "build_snapshots", no_work)
    cfg = write_cfg(tmp_path, pod={"projection": "wieghted"})
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'pod.projection' must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_projection_is_read_from_the_config_only(tmp_path, capsys):
    cfg = write_cfg(tmp_path, pod={"n_train": 5, "projection": "plain"})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit:
        main(["pod-offline", "--config", str(cfg), "--out", str(out),
              "--projection", "weighted"])
    assert exit.value.code == 2
    assert ("unrecognized arguments: --projection weighted"
            in capsys.readouterr().err)
    assert not out.exists()
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 0
    assert "(plain projection)" in capsys.readouterr().out
    assert mk.read_model(out / "pod_model.bin").mode == "plain"
    assert main(["pod-online", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "online_report.json").read_text())
    assert rows[0]["method"] == "pod-sidw"
    assert 0.0 < rows[0]["rel_error"] < 1.0


def test_tabulated_law_of_another_width_fails_before_any_assembly(
        tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the offline stage started")

    monkeypatch.setattr(idw, "assemble", no_work)
    monkeypatch.setattr(pod, "build_snapshots", no_work)
    monkeypatch.chdir(tmp_path)
    Path("t_2d.json").write_text(json.dumps(TABLES["t_2d"]))
    cfg = write_cfg(tmp_path, law={"kind": "tabulated", "path": "t_2d.json"})
    out = tmp_path / "out"
    assert main(["pod-offline", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: t_2d.json: entry at mu=0.5: "
                                       "vectors have width 2, the mesh has "
                                       "dim 3\n")
    assert not out.exists()


def test_mesh_gen_reads_no_selection_section(tmp_path):
    cfg = write_cfg(tmp_path, selection={"regions": [], "seed_points": {"x": 1}})
    assert main(["mesh-gen", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, cfg_repeat, message", [
    (["random-baseline", "--draws", "1"], 2, "at least two error samples"),
    (["morph", "--repeat", "0"], 2, "repeat must be at least 1"),
    (["pod-online", "--repeat", "-1"], 2, "repeat must be at least 1"),
    (["morph"], 0, "repeat must be at least 1"),
    (["morph"], NULL, "'repeat' must be an integer, got None"),
    (["morph"], 2.5, "'repeat' must be an integer, got 2.5"),
    (["morph"], True, "'repeat' must be an integer, got True"),
    # a dict holds config overrides in place of the repeat count
    (["pod-offline"], {"pod": {"n_train": 0}},
     "error: 'pod.n_train' must be an integer >= 1, got 0\n"),
    (["pod-offline"], {"pod": {"epsilon": -1}},
     "error: 'pod.epsilon' must be a finite number >= 0, got -1\n"),
])
def test_bad_counts_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                         command, cfg_repeat, message):
    def no_mesh(cfg):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_mesh", no_mesh)
    cfg = write_cfg(tmp_path, **(cfg_repeat if isinstance(cfg_repeat, dict)
                                 else {"repeat": cfg_repeat}))
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

    ids = run_select(tmp_path, tmp_path / "o2", extra=("--seed", "3"))
    np.testing.assert_array_equal(ids, expected_selection(3))


@pytest.mark.parametrize("env", ["2", "7.9"])
def test_the_environment_sets_no_seed(tmp_path, monkeypatch, env):
    # a run depends on its config and its command line alone
    monkeypatch.setenv("MORPHKIT_SEED", env)
    write_cfg(tmp_path)  # config seed is 1
    np.testing.assert_array_equal(run_select(tmp_path, tmp_path / "out"),
                                  expected_selection(1))


def test_a_bad_seed_flag_is_refused(tmp_path, capsys):
    # a bad config seed is a case of
    # test_failed_command_leaves_no_directory_it_made
    assert main(["select", "--config", str(write_cfg(tmp_path)),
                 "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_equal_seeds_give_byte_identical_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, enrichment=["left_edge"],
                    pod={"n_train": 6, "epsilon": 1e-5, "seed": 2})
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        for command, sub, extra in (("select", "select", ()),
                                    ("morph", "morph", ()),
                                    ("pod-offline", "pod", ()),
                                    ("pod-online", "pod", ("--mu", "0.013"))):
            assert main([command, "--config", str(cfg),
                         "--out", str(out / sub), *extra]) == 0
        runs.append(out)
    a, b = runs
    for name in ("select/selection.json", "morph/deformed.json",
                 "pod/pod_model.bin", "pod/deformed.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for name in ("morph/report.json", "pod/offline_report.json",
                 "pod/online_report.json"):
        rows_a, rows_b = (json.loads((run / name).read_text())
                          for run in runs)
        assert len(rows_a) == len(rows_b) > 0
        for row_a, row_b in zip(rows_a, rows_b):
            assert ({k: v for k, v in row_a.items() if not k.startswith("t_")}
                    == {k: v for k, v in row_b.items()
                        if not k.startswith("t_")}), name


# ---------------------------------------------------------------------------
# failure modes

def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("text, words", [
    ('{"mesh": {"path": "m.json"},\n "repeat": }',
     "invalid JSON: Expecting value (line 2, column 12)"),
    ('[{"mesh": {"path": "m.json"}}]', "top-level value must be an object"),
    ('{"mu": 0.01, "mu": 0.5}', "key 'mu' is given twice"),
    ('{"selection": {"regions": [{"group": "left", "group": "top"}]}}',
     "key 'group' is given twice"),
])
def test_a_config_file_that_is_not_one_object_exits_1(tmp_path, capsys, text,
                                                      words):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["morph", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {words}\n"
    assert not out.exists()


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
    # the package runs on NumPy alone; SciPy is only a test oracle. difflib
    # is imported only to name the key closest to an unknown one
    code = ("import sys, morphkit.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'difflib') or m.startswith('scipy.')))")
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

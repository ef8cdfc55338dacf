"""Command-line interface.

Seven subcommands cover the workflow: ``mesh-gen`` materializes a
synthetic mesh, ``select`` thins the boundary into control points,
``morph`` deforms a mesh once, ``pod-offline`` / ``pod-online`` build and
evaluate the reduced model, ``sweep`` scans one parameter axis into a CSV
table, and ``random-baseline`` compares the geometric selection against
same-cardinality random draws.

Everything is driven by one JSON config file; a few flags override it
(--mu, --seed, --out, --repeat, --reference, --projection). The
MORPHKIT_SEED environment variable overrides the config seeds and is in
turn overridden by --seed. Exit code 0 means all outputs were written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import idw, laws, metrics, pod, selection
from .mesh import (apply_deformation, generate_box_wing, generate_tunnel,
                   merge_fields, mesh_quality, read_mesh, write_mesh)
from .metrics import ComparisonReport

DEFAULT_REPEAT = 100


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def build_mesh(cfg):
    spec = cfg.get("mesh")
    if not spec:
        raise ValueError("config has no 'mesh' section")
    if "path" in spec:
        return read_mesh(spec["path"])
    gen = spec.get("generator")
    if gen == "box_wing":
        return generate_box_wing(spec["nx"], spec["ny"], spec["nz"],
                                 spec["lengths"])
    if gen == "tunnel":
        return generate_tunnel(spec["outer"], spec["inner"], spec["resolution"])
    raise ValueError(f"unknown mesh generator {gen!r}")


def build_law(cfg, mesh):
    spec = cfg.get("law")
    if not spec:
        raise ValueError("config has no 'law' section")
    kind = spec.get("kind")
    domain = tuple(spec["domain"])
    clamp = tuple(spec.get("clamp_groups", ()))
    control_ids = mesh.boundary_ids  # laws act on the full control set
    if kind == "bend":
        return laws.bend_law(control_ids, domain, clamp)
    if kind == "rotation":
        return laws.rotation_law(control_ids, domain, spec["pivot"],
                                 axis=spec.get("axis", "z"), clamp_groups=clamp)
    if kind == "tabulated":
        return laws.read_tabulated(spec["path"], control_ids, clamp)
    raise ValueError(f"unknown law kind {kind!r}")


def _resolve_seed(cfg_value, args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MORPHKIT_SEED")
    if env is not None:
        return int(env)
    return cfg_value


def selection_params(cfg, args):
    """SelectionParams from the config's 'selection' section, or None.

    Region entries carry an absolute "radius" or a "radius_factor"
    applied to the section-level "radius".
    """
    sel = cfg.get("selection")
    if not sel:
        return None
    base = sel.get("radius")
    regions = []
    for entry in sel.get("regions", ()):
        if "radius" in entry:
            radius = float(entry["radius"])
        elif base is not None:
            radius = float(entry.get("radius_factor", 1.0)) * float(base)
        else:
            raise ValueError(
                f"region {entry.get('group')!r} has no radius and the "
                "selection section sets no base 'radius'")
        regions.append(selection.RegionParams(entry["group"], radius))
    if not regions:
        raise ValueError("selection section lists no regions")
    return selection.SelectionParams(
        regions=tuple(regions),
        a=float(sel.get("a", 0.8)),
        b=float(sel.get("b", 1.3)),
        strategy=sel.get("strategy", "random"),
        seed=int(_resolve_seed(sel.get("seed", 0), args)),
        seed_points=sel.get("seed_points", {}),
    )


def run_selection(mesh, cfg, args, params=None):
    """(control ids, method name, params or None, SelectionResult or None);
    ``params`` default to the config's, and none means every boundary node
    is a control point. With enrichment the result holds the enriched ids."""
    if params is None:
        params = selection_params(cfg, args)
    if params is None:
        return mesh.boundary_ids, "idw", None, None
    result = selection.select_multi(mesh, params)
    enrichment = cfg.get("enrichment", ())
    if enrichment:
        result = replace(result, selected=selection.enrich(
            result.selected, mesh, enrichment))
    return result.selected, "esidw" if enrichment else "sidw", params, result


def _setup(args):
    """(config, output directory, made if missing, mesh) of a subcommand."""
    cfg = load_config(args.config)
    _repeat(cfg, args)  # a bad repeat count fails before anything is built
    out = Path(getattr(args, "out", None) or cfg.get("out", "."))
    # deepest first; main removes them again if the command fails
    args.made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, build_mesh(cfg)


def _idw_config(cfg):
    return idw.IdwConfig(p=int(cfg.get("idw", {}).get("p", 4)))


def _repeat(cfg, args):
    repeat = (int(cfg.get("repeat", DEFAULT_REPEAT)) if args.repeat is None
              else args.repeat)
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    return repeat


def _mu(cfg, args):
    if getattr(args, "mu", None) is not None:
        return args.mu
    if "mu" in cfg:
        return float(cfg["mu"])
    raise ValueError("no parameter value: pass --mu or set 'mu' in the config")


def _selection_fields(params):
    """The report fields R (mean region radius), a and b of ``params``."""
    if params is None:
        return {}
    return {"R": float(np.mean([r.radius for r in params.regions])),
            "a": params.a, "b": params.b}


def _quality(mesh, d_boundary, d_interior):
    """The deformed mesh and its report fields max_Q, mean_Q and
    normalized_quality (mean_Q over the largest boundary displacement)."""
    deformed = apply_deformation(mesh, merge_fields(d_boundary, d_interior))
    max_q, mean_q = mesh_quality(deformed)
    tip = d_boundary.max_magnitude()
    return deformed, {"max_Q": max_q, "mean_Q": mean_q,
                      "normalized_quality": (mean_q / tip) if tip > 0 else None}


def _reference(mesh, d_boundary, config):
    """(interior field, report row) of the full IDW morph, streamed. It
    builds no operator, so the row has no assembly time, and ``repeat`` does
    not apply to its one timed pass."""
    start = time.perf_counter()
    d_ref = idw.interpolate(mesh, d_boundary, mesh.interior_ids, config)
    t_deform = time.perf_counter() - start
    return d_ref, ComparisonReport(
        method="idw", card_C_hat=int(mesh.boundary_ids.size), rel_error=0.0,
        **_quality(mesh, d_boundary, d_ref)[1], t_deform_s=t_deform)


def _write_reports(reports, out, stem):
    metrics.write_reports_csv(reports, out / f"{stem}.csv")
    metrics.write_reports_json(reports, out / f"{stem}.json")


def morph_once(mesh, cfg, args, d_boundary, reference=None, params=None):
    """Select, assemble and morph the boundary field ``d_boundary``;
    returns (deformed mesh, report row). ``params`` replaces the config's
    selection (sweeps). The row's ``rel_error`` is measured against
    ``reference``, the full IDW morph's interior field, when one is given."""
    repeat = _repeat(cfg, args)
    control_ids, method, params, _ = run_selection(mesh, cfg, args, params)

    start = time.perf_counter()
    op = idw.assemble(mesh, control_ids, mesh.interior_ids, _idw_config(cfg))
    t_assembly = time.perf_counter() - start

    d_hat = d_boundary.restrict(control_ids)
    d_interior = idw.deform(op, d_hat)
    t_deform = metrics.time_mean(lambda: idw.deform(op, d_hat), repeat=repeat)

    deformed, quality = _quality(mesh, d_boundary, d_interior)
    row = ComparisonReport(
        method=method, **_selection_fields(params),
        card_C_hat=int(control_ids.size), **quality,
        t_assembly_s=t_assembly, t_deform_s=t_deform)
    if reference is not None:
        row.rel_error = (0.0 if np.array_equal(control_ids, mesh.boundary_ids)
                         else metrics.relative_error(d_interior, reference))
    return deformed, row


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh_gen(args):
    _, out, mesh = _setup(args)
    write_mesh(mesh, out / "mesh.json")
    if args.vtk:
        write_mesh(mesh, out / "mesh.vtk", format="vtk-legacy-ascii")
    print(f"mesh: {mesh.node_count} nodes, {mesh.element_count} elements, "
          f"{mesh.boundary_ids.size} boundary / {mesh.interior_ids.size} interior")
    return 0


def cmd_select(args):
    cfg, out, mesh = _setup(args)
    selected, method, params, result = run_selection(mesh, cfg, args)
    if params is None:
        raise ValueError("config has no 'selection' section")
    selection.write_selection(result, params, out / "selection.json")
    print(f"selected {selected.size} of {mesh.boundary_ids.size} boundary nodes "
          f"({method})")
    return 0


def cmd_morph(args):
    cfg, out, mesh = _setup(args)
    d_boundary = laws.evaluate(build_law(cfg, mesh), mesh, _mu(cfg, args))
    d_ref, ref_row = (_reference(mesh, d_boundary, _idw_config(cfg))
                      if args.reference == "idw" else (None, None))
    deformed, row = morph_once(mesh, cfg, args, d_boundary, d_ref)
    write_mesh(deformed, out / "deformed.json")
    if args.vtk:
        write_mesh(deformed, out / "deformed.vtk", format="vtk-legacy-ascii")
    _write_reports([r for r in (row, ref_row) if r is not None], out, "report")
    err = "n/a" if row.rel_error is None else f"{row.rel_error:.3e}"
    print(f"{row.method}: card={row.card_C_hat} rel_error={err} "
          f"max_Q={row.max_Q:.4f}")
    return 0


def cmd_pod_offline(args):
    cfg, out, mesh = _setup(args)
    pod_cfg = cfg.get("pod", {})
    law = build_law(cfg, mesh)
    control_ids, method, params, _ = run_selection(mesh, cfg, args)
    start = time.perf_counter()
    op = idw.assemble(mesh, control_ids, mesh.interior_ids, _idw_config(cfg))
    t_assembly = time.perf_counter() - start

    n_train = int(pod_cfg.get("n_train", 50))
    pod_seed = int(_resolve_seed(pod_cfg.get("seed", 0), args))
    mode = args.projection or pod_cfg.get("projection", "weighted")
    train = laws.sample_domain(law.domain, n_train, pod_seed)
    start = time.perf_counter()
    model = pod.build_pod_model(
        op, law, mesh, train, float(pod_cfg.get("epsilon", 1e-5)), mode=mode,
        selection_params={"method": method, "card_C_hat": int(control_ids.size),
                          "seed": pod_seed})
    t_offline = time.perf_counter() - start

    pod.write_model(model, out / "pod_model.bin")
    report = ComparisonReport(
        method=f"pod-{method}", **_selection_fields(params),
        card_C_hat=int(control_ids.size), N_modes=model.n_modes,
        t_assembly_s=t_assembly, t_offline_s=t_offline)
    _write_reports([report], out, "offline_report")
    print(f"pod-{method}: {model.n_modes} mode(s) from {n_train} snapshots "
          f"({mode} projection)")
    return 0


def cmd_pod_online(args):
    cfg, out, mesh = _setup(args)
    mu = _mu(cfg, args)
    repeat = _repeat(cfg, args)
    model = pod.read_model(args.model or (out / "pod_model.bin"))
    law = build_law(cfg, mesh)

    d_boundary = laws.evaluate(law, mesh, mu)
    d_hat = d_boundary.restrict(model.control_ids)
    d_interior = pod.online_solve(model, d_hat)
    t_online = metrics.time_mean(lambda: pod.online_solve(model, d_hat),
                                 repeat=repeat)

    deformed, quality = _quality(mesh, d_boundary, d_interior)
    write_mesh(deformed, out / "deformed.json")
    method = "pod"
    if model.selection_params and "method" in model.selection_params:
        method = f"pod-{model.selection_params['method']}"
    row = ComparisonReport(
        method=method, card_C_hat=int(model.control_ids.size),
        N_modes=model.n_modes, **quality, t_online_s=t_online)
    reports = [row]

    if args.reference == "idw":
        d_ref, ref_row = _reference(mesh, d_boundary, _idw_config(cfg))
        row.rel_error = metrics.relative_error(d_interior, d_ref)
        reports.append(ref_row)
    _write_reports(reports, out, "online_report")
    err = "n/a" if row.rel_error is None else f"{row.rel_error:.3e}"
    print(f"{method}: N={model.n_modes} rel_error={err} t_online={t_online:.3e}s")
    return 0


def cmd_sweep(args):
    cfg, out, mesh = _setup(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    if args.couple_b and args.axis != "a":
        raise ValueError("--couple-b goes only with --axis a")
    base = selection_params(cfg, args)
    if args.axis != "mu" and base is None:
        raise ValueError(f"{args.axis} sweep needs a 'selection' section")
    radius = cfg.get("selection", {}).get("radius")
    if args.axis == "R" and not radius:
        raise ValueError("R sweep needs a base 'radius' in the selection section")
    law, config = build_law(cfg, mesh), _idw_config(cfg)

    def fields(mu):  # the boundary field and, if asked for, the reference
        d_boundary = laws.evaluate(law, mesh, mu)
        d_ref = (idw.interpolate(mesh, d_boundary, mesh.interior_ids, config)
                 if args.reference == "idw" else None)
        return d_boundary, d_ref

    if args.axis != "mu":  # mu is fixed along R, a and b
        fixed = fields(_mu(cfg, args))
    reports = []
    for value in values:
        params = base
        if args.axis == "R":
            scale = value / float(radius)
            params = replace(base, regions=tuple(
                selection.RegionParams(r.group, r.radius * scale)
                for r in base.regions))
        elif args.axis == "a":
            params = replace(base, a=value,
                             b=(1.0 / value) if args.couple_b else base.b)
        elif args.axis == "b":
            params = replace(base, b=value)
        d_boundary, d_ref = fields(value) if args.axis == "mu" else fixed
        reports.append(morph_once(mesh, cfg, args, d_boundary, d_ref, params)[1])
    _write_reports(reports, out, "sweep")
    print(f"sweep over {args.axis}: {len(reports)} rows -> {out / 'sweep.csv'}")
    return 0


def cmd_random_baseline(args):
    if args.draws < 2:
        raise ValueError("need at least two error samples")
    cfg, out, mesh = _setup(args)
    mu = _mu(cfg, args)
    config = _idw_config(cfg)
    law = build_law(cfg, mesh)

    control_ids, method, params, _ = run_selection(mesh, cfg, args)
    if method == "idw":
        raise ValueError("random-baseline needs a 'selection' section to "
                         "compare against")
    k = int(control_ids.size)

    d_boundary = laws.evaluate(law, mesh, mu)
    d_ref = idw.interpolate(mesh, d_boundary, mesh.interior_ids, config)

    def morph_error(ids):
        op = idw.assemble(mesh, ids, mesh.interior_ids, config)
        d_int = idw.deform(op, d_boundary.restrict(ids))
        return metrics.relative_error(d_int, d_ref)

    err_selected = morph_error(control_ids)
    master = int(_resolve_seed(cfg.get("baseline_seed", 0), args))
    reports = [ComparisonReport(method=method, **_selection_fields(params),
                                card_C_hat=k, rel_error=err_selected)]
    errors = []
    for i in range(args.draws):
        ids = selection.select_random(mesh.boundary_ids, k, master + i)
        errors.append(morph_error(ids))
        reports.append(ComparisonReport(method="random", card_C_hat=k,
                                        rel_error=errors[-1]))
    stats = selection.random_baseline_stats(errors)
    doc = {"draws": args.draws, "master_seed": master, "cardinality": k,
           "mean": stats.mean, "std": stats.std,
           "delta_min": stats.delta_min, "delta_max": stats.delta_max,
           "selected_method": method, "selected_error": err_selected}
    metrics.write_reports_csv(reports, out / "random_baseline.csv")
    with open(out / "random_baseline_stats.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{method} error {err_selected:.4e} vs {args.draws} random draws: "
          f"mean {stats.mean:.4e} std {stats.std:.4e} "
          f"delta_min {stats.delta_min:+.2f} delta_max {stats.delta_max:+.2f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphkit",
        description="Mesh morphing with thinned control points and a "
                    "reduced online stage.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=False, reference=False, projection=False, model=False,
               vtk=False):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (default: config 'out')")
        p.add_argument("--seed", type=int,
                       help="override selection/POD seeds (beats MORPHKIT_SEED)")
        p.add_argument("--repeat", type=int,
                       help="timing repeat count (default: config or "
                            f"{DEFAULT_REPEAT})")
        if mu:
            p.add_argument("--mu", type=float,
                           help="parameter value (default: config 'mu')")
        if reference:
            p.add_argument("--reference", choices=("idw", "none"),
                           default="idw",
                           help="compare against the full-operator morph")
        if projection:
            p.add_argument("--projection", choices=("weighted", "plain"),
                           help="online projection (default: config or weighted)")
        if model:
            p.add_argument("--model", help="POD artifact path "
                                           "(default: <out>/pod_model.bin)")
        if vtk:
            p.add_argument("--vtk", action="store_true",
                           help="also write legacy ASCII VTK")

    p = sub.add_parser("mesh-gen", help="generate and write the config's mesh")
    common(p, vtk=True)
    p.set_defaults(fn=cmd_mesh_gen)

    p = sub.add_parser("select", help="thin the boundary into control points")
    common(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("morph", help="deform the mesh at one parameter value")
    common(p, mu=True, reference=True, vtk=True)
    p.set_defaults(fn=cmd_morph)

    p = sub.add_parser("pod-offline", help="train the reduced model")
    common(p, projection=True)
    p.set_defaults(fn=cmd_pod_offline)

    p = sub.add_parser("pod-online", help="evaluate the reduced model")
    common(p, mu=True, reference=True, model=True)
    p.set_defaults(fn=cmd_pod_online)

    p = sub.add_parser("sweep", help="scan R, a, b or mu into a CSV table")
    common(p, mu=True, reference=True)
    p.add_argument("--axis", choices=("R", "a", "b", "mu"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated values for the chosen axis")
    p.add_argument("--couple-b", action="store_true",
                   help="with --axis a, set b = 1/a per value")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("random-baseline",
                       help="compare selection against random draws")
    common(p, mu=True)
    p.add_argument("--draws", type=int, default=100,
                   help="number of random draws (default 100)")
    p.set_defaults(fn=cmd_random_baseline)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        for made in getattr(args, "made", ()):  # deepest first
            with contextlib.suppress(OSError):  # rmdir keeps what holds files
                made.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

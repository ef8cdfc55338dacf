"""Command-line interface.

Seven subcommands cover the workflow: ``mesh-gen`` materializes a
synthetic mesh, ``select`` thins the boundary into control points,
``morph`` deforms a mesh once, ``pod-offline`` / ``pod-online`` build and
evaluate the reduced model, ``sweep`` scans one parameter axis into a CSV
table, and ``random-baseline`` compares the geometric selection against
same-cardinality random draws.

A run depends on one JSON config file and on the few flags that override
it (--mu, --seed, --out, --repeat, --reference), on nothing else. Exit
code 0 means all outputs were written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import re
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import errors, idw, laws, metrics, pod, selection
from .mesh import (_read_json, _scalar, _write_artifact, apply_deformation,
                   generate_box_wing, generate_tunnel, merge_fields,
                   mesh_quality, read_mesh, write_mesh)
from .metrics import ComparisonReport

# Every key the commands read, at every depth: a dict is a section, a
# one-dict list an array of sections, and a key holds its kind (see _value)
# or (kind, default). An absent key reads as its default, checked as a given
# value is (None as a JSON null), or without one stays absent. A default a
# library constructor has (SelectionParams' a, b and strategy, IdwConfig's
# p, a rotation's axis) stays there only. README describes every key.
CONFIG = {
    "out": ("string", "."), "repeat": ("integer", 100), "mu": "number",
    "baseline_seed": ("seed", 0),
    "mesh": {"path": "string", "generator": "string", **dict.fromkeys(
        ("nx", "ny", "nz", "lengths", "outer", "inner", "resolution"), "any")},
    "law": {"kind": "string", "domain": "array", "pivot": "any",
            "clamp_groups": ("array", None), "axis": "string",
            "path": "string"},
    "selection": {"radius": "number", "a": "number", "b": "number",
                  "strategy": "string", "seed": ("seed", 0),
                  "regions": [{"group": ("group", None), "radius": "number",
                               "radius_factor": ("number", 1.0)}],
                  "seed_points": "object"},
    "enrichment": ("groups", None),
    "pod": {"n_train": ("count", 50), "seed": ("seed", 0),
            "epsilon": ("tolerance", 1e-5),
            "projection": (pod.MODES, "weighted")},
    "idw": {"p": "any"},
}
# Sections that read as {}, without their defaults, when absent, null or
# {}: no selection means every boundary node is a control point.
_OPTIONAL = ("law", "selection")
# Per section: the key whose value names its kind, and per kind the keys
# it needs and the ones it may also take. A kind named after a key (a mesh
# file's 'path', a region's own 'radius') is the one that key's presence
# picks. A given key that its kind neither needs nor takes is not read.
_NEEDS = {
    "mesh.": ("generator", {
        "path": ((), ("path",)),
        "box_wing": (("generator", "nx", "ny", "nz", "lengths"), ()),
        "tunnel": (("generator", "outer", "inner", "resolution"), ())}),
    "law.": ("kind", {
        "bend": (("kind", "domain"), ("clamp_groups",)),
        "rotation": (("kind", "domain", "pivot"), ("clamp_groups", "axis")),
        "tabulated": (("kind", "path"), ("clamp_groups", "domain"))}),
    "selection.regions[i].": (None, {"radius": ((), ("group", "radius"))}),
}


def load_config(path):
    """The config file ``path`` as read, before check_config."""
    return _read_json(path)


def check_config(section, table=CONFIG, where=""):
    """The config ``section`` (at ``where``, e.g. 'pod.') checked against
    its ``table``, as the new dict the commands read: a key the table does
    not list, a value of the wrong kind, and a key the section's kind
    (its generator, law kind or region radius; see _NEEDS) needs but lacks
    or does not read raise ValueError naming the key."""
    for key in section:
        if key not in table:
            import difflib  # here only: a cold command does not load it
            near = difflib.get_close_matches(key, table, n=1, cutoff=0)[0]
            raise ValueError(f"{where + key!r} is not a config key; did you "
                             f"mean {where + near!r}?")
    out = {}
    for key, spec in table.items():
        what = where + key
        if isinstance(spec, dict):
            given = _value("object", section.get(key), what)
            out[key] = (check_config(given, spec, what + ".")
                        if given or key not in _OPTIONAL else {})
        elif isinstance(spec, list):
            out[key] = [check_config(_value("object", entry, f"{what}[{i}]"),
                                     spec[0], f"{what}[{i}].") for i, entry
                        in enumerate(_value("array", section.get(key), what))]
        elif key in section or isinstance(spec, tuple):
            kind, default = (spec, None) if isinstance(spec, str) else spec
            out[key] = _value(kind, section.get(key, default), what)
    selector, kinds = _NEEDS.get(re.sub(r"\[\d+\]", "[i]", where), (None, {}))
    kind = next((name for name in kinds if name in section), out.get(selector))
    if kind not in kinds:
        if selector and out:
            raise ValueError(f"{where + selector!r} must be one of "
                             f"{sorted(set(kinds) - set(table))}, got {kind!r}")
        return out
    needs, takes = kinds[kind]
    by = (f"beside {where + kind!r}" if kind in section
          else f"by a {kind} {where[:-1]}")
    for key in needs:
        if key not in out:
            raise ValueError(f"{where + key!r} is required {by}")
    for key in section:
        if key not in needs + takes:
            raise ValueError(f"{where + key!r} is not read {by}")
    return out


# per numeric kind, through mesh._scalar: whether it is an integer, and its
# least value. A seed's every refusal names its bound; a count's and a
# tolerance's only that of a number below it
_NUMBERS = {"number": (False, None), "integer": (True, None),
            "seed": (True, 0), "count": (True, 1), "tolerance": (False, 0)}
# the type each other kind of value takes, and the words of its error
_TYPES = {"object": (dict, "be a JSON object"),
          "array": (list, "be a JSON array"),
          "groups": (list, "be a JSON array"),
          "string": (str, "be a string"), "group": (str, "name a node group")}


def _value(kind, value, path):
    """``value`` of the key at ``path`` checked as ``kind``: "number",
    "integer", "seed" (an integer >= 0), "count" (an integer >= 1) and
    "tolerance" (a number >= 0) through mesh._scalar; an
    "object", "array" or "groups" (an array of group names) reads null as
    empty; a tuple of strings holds the choices; "any" is handed on, to
    the generator, law or IdwConfig that checks it."""
    what = repr(path)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{what} must be one of {list(kind)}, got {value!r}")
        return value
    if kind in _NUMBERS:
        integral, least = _NUMBERS[kind]
        if kind != "seed":
            _scalar(value, what, integral)
        return _scalar(value, what, integral, least)
    if kind == "any":
        return value
    cls, rule = _TYPES[kind]
    value = cls() if value is None and cls in (dict, list) else value
    if not isinstance(value, cls):
        raise ValueError(f"{what} must {rule}, got {value!r}")
    if kind == "groups" and not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must list group names, got {value!r}")
    return value


def _given(spec, *keys):
    """The entries of ``spec`` at ``keys`` it holds."""
    return {key: spec[key] for key in keys if key in spec}


def build_mesh(cfg):
    spec = cfg["mesh"]
    if not spec:
        raise ValueError("config has no 'mesh' section")
    if "path" in spec:
        return read_mesh(spec["path"])
    if spec["generator"] == "box_wing":
        return generate_box_wing(spec["nx"], spec["ny"], spec["nz"],
                                 spec["lengths"])
    return generate_tunnel(spec["outer"], spec["inner"], spec["resolution"])


def build_law(cfg, mesh):
    spec = cfg["law"]
    if not spec:
        raise ValueError("config has no 'law' section")
    clamp = tuple(spec["clamp_groups"])
    control_ids = mesh.boundary_ids  # laws act on the full control set
    if spec["kind"] == "tabulated":  # the file's domain; law.domain may only repeat it
        law = laws.read_tabulated(spec["path"], control_ids, clamp)
        if spec.get("domain", list(law.domain)) != list(law.domain):
            raise ValueError(f"'law.domain' {spec['domain']!r} differs from "
                             f"the domain {list(law.domain)} of {spec['path']}")
        try:  # every entry against the mesh, before any selection or assembly
            laws._resolve(law, mesh)
        except errors.TableEntryError as exc:  # it names its mu, not the file
            raise ValueError(f"{spec['path']}: {exc}") from None
        return law
    if spec["kind"] == "bend":
        return laws.bend_law(control_ids, spec["domain"], clamp)
    return laws.rotation_law(control_ids, spec["domain"], spec["pivot"],
                             clamp_groups=clamp, **_given(spec, "axis"))


def _seed(value, args):
    """--seed, else ``value``, the config's seed: an integer >= 0, its
    errors naming where it came from."""
    seed = getattr(args, "seed", None)
    return value if seed is None else _scalar(seed, "--seed", True, 0)


def selection_params(cfg, args):
    """SelectionParams from the config's 'selection' section, or None.
    Region entries carry an absolute "radius" or a "radius_factor"
    applied to the section-level "radius"."""
    sel = cfg["selection"]
    if not sel:
        return None
    base = sel.get("radius")
    regions = []
    for entry in sel["regions"]:
        if "radius" in entry:
            radius = entry["radius"]
        elif base is not None:
            radius = entry["radius_factor"] * base
        else:
            raise ValueError(
                f"region {entry['group']!r} has no radius and the "
                "selection section sets no base 'radius'")
        regions.append(selection.RegionParams(entry["group"], radius))
    if not regions:
        raise ValueError("selection section lists no regions")
    return selection.SelectionParams(
        regions=tuple(regions), seed=_seed(sel["seed"], args),
        **_given(sel, "a", "b", "strategy", "seed_points"))


def run_selection(mesh, cfg, args, params=None):
    """(control ids, method name, params or None, SelectionResult or None);
    ``params`` default to the config's, and none means every boundary node
    is a control point. With enrichment the result holds the enriched ids."""
    if params is None:
        params = selection_params(cfg, args)
    if params is None:
        return mesh.boundary_ids, "idw", None, None
    result = selection.select_multi(mesh, params)
    enrichment = cfg["enrichment"]
    if enrichment:
        result = replace(result, selected=selection.enrich(
            result.selected, mesh, enrichment))
    return result.selected, "esidw" if enrichment else "sidw", params, result


def _setup(args):
    """(config, output directory, made if missing, mesh) of a subcommand."""
    cfg = check_config(load_config(args.config))
    if args.repeat is None:  # the count the commands time with
        args.repeat = cfg["repeat"]
    if args.repeat < 1:  # fails before anything is built
        raise ValueError("repeat must be at least 1")
    out = Path(getattr(args, "out", None) or cfg["out"])
    # deepest first; main removes them again if the command fails
    args.made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, build_mesh(cfg)


def _idw_config(cfg):
    return idw.IdwConfig(**cfg["idw"])


def _mu(cfg, args):
    mu = cfg.get("mu") if getattr(args, "mu", None) is None else args.mu
    if mu is None:
        raise ValueError("no parameter value: pass --mu or set 'mu' in the config")
    return mu


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


def _thinned(mesh, cfg, args, params=None):
    """(operator, method name, report fields, assembly seconds) of the
    selection ``params``, else the config's: the one timed assemble of its
    control points onto the interior nodes. The fields are R (mean region
    radius), a and b, or none without a selection."""
    control_ids, method, params, _ = run_selection(mesh, cfg, args, params)
    start = time.perf_counter()
    op = idw.assemble(mesh, control_ids, mesh.interior_ids, _idw_config(cfg))
    t_assembly = time.perf_counter() - start
    fields = {} if params is None else {
        "R": float(np.mean([r.radius for r in params.regions])),
        "a": params.a, "b": params.b}
    return op, method, fields, t_assembly


def morph_once(mesh, thinned, d_boundary, reference=None, repeat=1):
    """Morph the boundary field ``d_boundary`` through ``thinned``, a
    _thinned result, timing ``repeat`` deforms; returns (deformed mesh,
    report row). The row's ``rel_error`` is measured against
    ``reference``, the full IDW morph's interior field, when one is given."""
    op, method, fields, t_assembly = thinned
    d_hat = d_boundary.restrict(op.control_ids)
    d_interior = idw.deform(op, d_hat)
    t_deform = metrics.time_mean(lambda: idw.deform(op, d_hat), repeat=repeat)

    deformed, quality = _quality(mesh, d_boundary, d_interior)
    row = ComparisonReport(
        method=method, **fields, card_C_hat=int(op.control_ids.size),
        **quality, t_assembly_s=t_assembly, t_deform_s=t_deform)
    if reference is not None:
        row.rel_error = (0.0 if np.array_equal(op.control_ids, mesh.boundary_ids)
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
    deformed, row = morph_once(mesh, _thinned(mesh, cfg, args), d_boundary,
                               d_ref, args.repeat)
    # a law can collapse two nodes, which read_mesh would refuse
    write_mesh(deformed.validate(), out / "deformed.json")
    if args.vtk:
        write_mesh(deformed, out / "deformed.vtk", format="vtk-legacy-ascii")
    _write_reports([r for r in (row, ref_row) if r is not None], out, "report")
    err = "n/a" if row.rel_error is None else f"{row.rel_error:.3e}"
    print(f"{row.method}: card={row.card_C_hat} rel_error={err} "
          f"max_Q={row.max_Q:.4f}")
    return 0


def cmd_pod_offline(args):
    cfg, out, mesh = _setup(args)
    pod_cfg = cfg["pod"]
    mode = pod_cfg["projection"]
    law = build_law(cfg, mesh)
    if law.kind == "tabulated":  # its own entries, the only values it has
        train = sorted(law.table)
    else:
        train = laws.sample_domain(law.domain, pod_cfg["n_train"],
                                   _seed(pod_cfg["seed"], args))
    op, method, fields, t_assembly = _thinned(mesh, cfg, args)
    start = time.perf_counter()
    model = pod.build_pod_model(op, law, mesh, train, pod_cfg["epsilon"],
                                mode=mode, selection_params={"method": method})
    t_offline = time.perf_counter() - start

    pod.write_model(model, out / "pod_model.bin")
    report = ComparisonReport(
        method=f"pod-{method}", **fields,
        card_C_hat=int(op.control_ids.size), N_modes=model.n_modes,
        t_assembly_s=t_assembly, t_offline_s=t_offline)
    _write_reports([report], out, "offline_report")
    print(f"pod-{method}: {model.n_modes} mode(s) from {len(train)} snapshots "
          f"({mode} projection)")
    return 0


def cmd_pod_online(args):
    cfg, out, mesh = _setup(args)
    mu = _mu(cfg, args)
    path = args.model or (out / "pod_model.bin")
    model = pod.read_model(path)
    if not (np.array_equal(model.target_ids, mesh.interior_ids)
            and np.isin(model.control_ids, mesh.boundary_ids).all()):
        raise ValueError(
            f"{path}: built on another mesh: its {model.target_ids.size} "
            f"target and {model.control_ids.size} control ids are not among "
            f"the {mesh.interior_ids.size} interior and "
            f"{mesh.boundary_ids.size} boundary ids of the config's mesh")
    law = build_law(cfg, mesh)

    d_boundary = laws.evaluate(law, mesh, mu)
    d_hat = d_boundary.restrict(model.control_ids)
    d_interior = pod.online_solve(model, d_hat)
    t_online = metrics.time_mean(lambda: pod.online_solve(model, d_hat),
                                 repeat=args.repeat)

    deformed, quality = _quality(mesh, d_boundary, d_interior)
    write_mesh(deformed.validate(), out / "deformed.json")
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
    values = []  # parsed before the mesh is built
    for token in filter(str.strip, args.values.split(",")):
        try:
            values.append(_scalar(float(token), "value"))
        except ValueError:
            raise ValueError(f"--values: {token.strip()!r} is not a finite "
                             "number") from None
    if not values:
        raise ValueError("--values is empty")
    if args.couple_b and args.axis != "a":
        raise ValueError("--couple-b goes only with --axis a")
    cfg, out, mesh = _setup(args)
    base = selection_params(cfg, args)
    if args.axis != "mu" and base is None:
        raise ValueError(f"{args.axis} sweep needs a 'selection' section")
    law, config = build_law(cfg, mesh), _idw_config(cfg)
    if args.axis != "mu":  # mu is fixed along R, a and b
        fixed = laws.evaluate(law, mesh, _mu(cfg, args))

    # every row's selection and boundary field, so that a bad value is
    # refused before the first selection
    rows = []
    for value in values:
        params = base
        if args.axis == "R":  # the base radius, else the mean region radius
            scale = value / (cfg["selection"].get("radius")
                             or np.mean([r.radius for r in base.regions]))
            params = replace(base, regions=tuple(
                selection.RegionParams(r.group, r.radius * scale)
                for r in base.regions))
        elif args.axis == "a":  # a is checked before b = 1/a is formed
            params = replace(base, a=value)
            if args.couple_b:
                params = replace(params, b=1.0 / params.a)
        elif args.axis == "b":
            params = replace(base, b=value)
        rows.append((params, laws.evaluate(law, mesh, value)
                     if args.axis == "mu" else fixed))

    reports, d_ref = [], None
    for params, d_boundary in rows:
        if args.axis != "mu" or not reports:  # mu moves no control point
            thinned = _thinned(mesh, cfg, args, params)
        if args.reference == "idw" and (args.axis == "mu" or not reports):
            # one reference per mu: once in all along R, a and b
            d_ref = idw.interpolate(mesh, d_boundary, mesh.interior_ids,
                                    config)
        reports.append(morph_once(mesh, thinned, d_boundary, d_ref,
                                  args.repeat)[1])
    _write_reports(reports, out, "sweep")
    print(f"sweep over {args.axis}: {len(reports)} rows -> {out / 'sweep.csv'}")
    return 0


def cmd_random_baseline(args):
    if args.draws < 2:
        raise ValueError("need at least two error samples")
    cfg, out, mesh = _setup(args)
    mu = _mu(cfg, args)
    config = _idw_config(cfg)
    # a mu the law refuses fails before any selection or assembly
    d_boundary = laws.evaluate(build_law(cfg, mesh), mesh, mu)

    if not cfg["selection"]:  # before any operator is assembled
        raise ValueError("random-baseline needs a 'selection' section to "
                         "compare against")
    op, method, fields, _ = _thinned(mesh, cfg, args)
    k = int(op.control_ids.size)
    if k == mesh.boundary_ids.size:  # before any draw is assembled
        raise ValueError(f"the selection keeps all {k} boundary nodes, so "
                         "every random draw would be that same set")

    d_ref = idw.interpolate(mesh, d_boundary, mesh.interior_ids, config)

    def morph_error(op):
        d_int = idw.deform(op, d_boundary.restrict(op.control_ids))
        return metrics.relative_error(d_int, d_ref)

    err_selected = morph_error(op)
    master = _seed(cfg["baseline_seed"], args)
    reports = [ComparisonReport(method=method, **fields, card_C_hat=k,
                                rel_error=err_selected)]
    errors = []
    for i in range(args.draws):
        ids = selection.select_random(mesh.boundary_ids, k, master + i)
        errors.append(morph_error(
            idw.assemble(mesh, ids, mesh.interior_ids, config)))
        reports.append(ComparisonReport(method="random", card_C_hat=k,
                                        rel_error=errors[-1]))
    stats = selection.random_baseline_stats(errors)
    doc = {"draws": args.draws, "master_seed": master, "cardinality": k,
           **asdict(stats), "selected_method": method,
           "selected_error": err_selected}
    metrics.write_reports_csv(reports, out / "random_baseline.csv")
    _write_artifact(doc, out / "random_baseline_stats.json")
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

    def common(name, fn, text, mu=False, reference=False, model=False,
               vtk=False):
        """The subcommand ``name`` running ``fn``, with the options every
        subcommand takes and the ones its flags ask for."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (default: config 'out')")
        p.add_argument("--seed", type=int,
                       help="override every config seed")
        p.add_argument("--repeat", type=int,
                       help="timing repeat count (default: config or "
                            f"{CONFIG['repeat'][1]})")
        if mu:
            p.add_argument("--mu", type=float,
                           help="parameter value (default: config 'mu')")
        if reference:
            p.add_argument("--reference", choices=("idw", "none"),
                           default="idw",
                           help="compare against the full-operator morph")
        if model:
            p.add_argument("--model", help="POD artifact path "
                                           "(default: <out>/pod_model.bin)")
        if vtk:
            p.add_argument("--vtk", action="store_true",
                           help="also write legacy ASCII VTK")
        return p

    common("mesh-gen", cmd_mesh_gen, "generate and write the config's mesh",
           vtk=True)
    common("select", cmd_select, "thin the boundary into control points")
    common("morph", cmd_morph, "deform the mesh at one parameter value",
           mu=True, reference=True, vtk=True)
    common("pod-offline", cmd_pod_offline, "train the reduced model")
    common("pod-online", cmd_pod_online, "evaluate the reduced model",
           mu=True, reference=True, model=True)
    p = common("sweep", cmd_sweep, "scan R, a, b or mu into a CSV table",
               mu=True, reference=True)
    p.add_argument("--axis", choices=("R", "a", "b", "mu"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated values for the chosen axis; the "
                        "list may start with a negative number")
    p.add_argument("--couple-b", action="store_true",
                   help="with --axis a, set b = 1/a per value")
    p = common("random-baseline", cmd_random_baseline,
               "compare selection against random draws", mu=True)
    p.add_argument("--draws", type=int, default=100,
                   help="number of random draws (default 100)")
    return parser


def _join_values(argv):
    """Glue ``--values`` to the token after it, as ``--values=<list>``.

    argparse takes a token that starts with '-' and is not one number for
    an option, so ``--values -0.01,-0.005`` would be refused.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--values":
            argv[i:i + 2] = ["--values=" + argv[i + 1]]
        i += 1
    return argv


def main(argv=None):
    args = build_parser().parse_args(_join_values(argv))
    try:
        return args.fn(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        for made in getattr(args, "made", ()):  # deepest first
            with contextlib.suppress(OSError):  # rmdir keeps what holds files
                made.rmdir()
        # a KeyError's str() would quote its message
        text = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {text}", file=sys.stderr)
        return 1


def run(argv=None):
    """Process entry of the ``morphkit`` command: exit with ``main``'s status.

    The collector is frozen on the way out, so interpreter shutdown does
    not collect the heap the command built, which the OS reclaims anyway:
    the exit of a tunnel-22 ``pod-online`` took 20 ms and takes 5 (2-core
    Xeon). Atexit handlers still run and the standard streams are still
    flushed, which ``os._exit`` would skip. In-process callers use
    ``main``, which leaves the collector alone.
    """
    try:
        sys.exit(main(argv))
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

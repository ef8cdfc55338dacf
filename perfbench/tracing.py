"""Span recording around calls into morphkit's public functions.

A :class:`Tracer` replaces functions at their module attributes with
wrappers that append one span per call: name, start, end, parent span.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
The wrappers can be switched off and on between operations, so one run
can time the same loop traced and untraced.

The library itself is not edited: every span comes from a wrapper
installed here.
"""

import functools
import json
import os
import time

import numpy as np

from morphkit import _kernels, cli, idw, laws, mesh, metrics, pod, selection

# (module, attribute, layer). Span names are "<layer>.<attribute>". Where
# cli, pod or metrics imported a name directly, the copy there is wrapped
# too, under the same span name as the original.
TARGETS = (
    (_kernels, "assemble_weight_matrix", "kernels"),
    (idw, "assemble", "idw"),
    (idw, "deform", "idw"),
    (pod, "deform", "idw"),
    (selection, "select", "selection"),
    (selection, "select_multi", "selection"),
    (selection, "enrich", "selection"),
    (selection, "select_random", "selection"),
    (laws, "evaluate", "laws"),
    (pod, "evaluate", "laws"),
    (laws, "sample_domain", "laws"),
    (mesh, "generate_tunnel", "mesh"),
    (mesh, "generate_box_wing", "mesh"),
    (cli, "generate_tunnel", "mesh"),
    (cli, "generate_box_wing", "mesh"),
    (mesh.DisplacementField, "restrict", "mesh"),
    (mesh, "mesh_quality", "mesh"),
    (cli, "mesh_quality", "mesh"),
    (metrics, "mesh_quality", "mesh"),
    (mesh, "apply_deformation", "mesh"),
    (cli, "apply_deformation", "mesh"),
    (mesh, "merge_fields", "mesh"),
    (cli, "merge_fields", "mesh"),
    (mesh, "write_mesh", "mesh"),
    (cli, "write_mesh", "mesh"),
    (mesh, "read_mesh", "mesh"),
    (cli, "read_mesh", "mesh"),
    (pod, "build_pod_model", "pod"),
    (pod, "build_snapshots", "pod"),
    (pod, "compute_pod", "pod"),
    (pod, "build_online", "pod"),
    (pod, "online_solve", "pod"),
    (pod, "write_model", "pod"),
    (pod, "read_model", "pod"),
    (metrics, "relative_error", "metrics"),
    (metrics, "time_mean", "metrics"),
    (metrics, "write_reports_csv", "metrics"),
    (metrics, "write_reports_json", "metrics"),
    (cli, "cmd_morph", "cli"),
    (cli, "cmd_pod_offline", "cli"),
    (cli, "cmd_pod_online", "cli"),
    (cli, "morph_once", "cli"),
    (cli, "build_mesh", "cli"),
    (cli, "build_law", "cli"),
    (cli, "run_selection", "cli"),
)

LAYERS = ("cli", "kernels", "idw", "selection", "laws", "mesh", "pod",
          "metrics")


def _describe(name, args, result):
    """Sizes worth keeping with a span, read from the call's own values."""
    if name == "kernels.assemble_weight_matrix":
        return {"n": int(args[0].shape[0]), "m": int(args[1].shape[0])}
    if name == "idw.assemble":
        return {"m": int(result.n_controls), "bytes": int(result.matrix.nbytes)}
    if name == "idw.deform":
        return {"m": int(args[0].n_controls)}
    if name == "mesh.write_mesh":
        return {"bytes": os.path.getsize(args[1])}
    if name in ("pod.build_online", "pod.read_model"):
        return {"modes": int(result.n_modes)}
    return None


class Tracer:
    """Collects spans from wrappers installed over morphkit functions."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, info]
        self.phase = "setup"
        self.phases = []  # phase per span, same order as spans
        self._stack = []
        self._saved = [(owner, attr, owner.__dict__[attr])
                       for owner, attr, _ in TARGETS]
        self._wrapped = [self._wrap(f"{layer}.{attr}", original)
                         for (_, attr, layer), (_, _, original)
                         in zip(TARGETS, self._saved)]
        self.active = False

    def _wrap(self, name, fn):
        spans, phases, stack = self.spans, self.phases, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, None])
            phases.append(self.phase)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            spans[index][4] = _describe(name, args, result)
            return result
        return wrapper

    def install(self):
        for (owner, attr, _), wrapper in zip(self._saved, self._wrapped):
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self.active = False

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info",
                                  "phase"],
                       "spans": [s + [p] for s, p in zip(self.spans,
                                                         self.phases)]},
                      fh)
            fh.write("\n")


def _median_ms(values):
    return float(np.median(values)) * 1e3 if values else 0.0


def layer_metrics(tracer, full_m, n_traced_ops):
    """Per-layer metrics from the recorded spans.

    ``full_m`` is the workload's full control count, which tells full
    operators from thinned ones. Function timings are medians over every
    span of that name (set-up, loop and probe); ``<layer>.self_ms`` is
    the layer's self time summed over the traced loop operations,
    divided by their count. A function the workload never calls reads 0.
    """
    selfs = tracer.self_times()
    by_name = {}
    layer_loop = dict.fromkeys(LAYERS, 0.0)
    for span, own, phase in zip(tracer.spans, selfs, tracer.phases):
        name, start, end, _, info = span
        by_name.setdefault(name, []).append((end - start, own, info))
        if phase == "loop":
            layer_loop[name.split(".", 1)[0]] += own

    def durations(name, keep=lambda info: True):
        return [d for d, _, info in by_name.get(name, ()) if keep(info)]

    def full(info):
        return info is not None and info["m"] == full_m

    def thin(info):
        return info is not None and info["m"] != full_m

    assembles = [s for s in by_name.get("idw.assemble", ()) if s[2]]
    thin_k = [info["m"] for _, _, info in assembles if info["m"] != full_m]
    out = {f"{layer}.self_ms": 1e3 * t / max(n_traced_ops, 1)
           for layer, t in layer_loop.items()}
    deform_full = _median_ms(durations("idw.deform", full))
    online = _median_ms(durations("pod.online_solve"))
    modes = [info["modes"] for name in ("pod.build_online", "pod.read_model")
             for _, _, info in by_name.get(name, ()) if info]
    writes = [s for s in by_name.get("mesh.write_mesh", ()) if s[2]]
    out.update({
        "idw.assemble_self_ms": _median_ms([own for _, own, _ in assembles]),
        "idw.deform_full_ms": deform_full,
        "idw.deform_thin_ms": _median_ms(durations("idw.deform", thin)),
        "idw.operator_bytes": max((info["bytes"] for _, _, info in assembles),
                                  default=0),
        "selection.select_multi_ms": _median_ms(
            durations("selection.select_multi")),
        "selection.enrich_ms": _median_ms(durations("selection.enrich")),
        "selection.select_random_ms": _median_ms(
            durations("selection.select_random")),
        "selection.k": float(np.median(thin_k)) if thin_k else 0.0,
        "laws.evaluate_ms": _median_ms(durations("laws.evaluate")),
        "mesh.restrict_ms": _median_ms(durations("mesh.restrict")),
        "mesh.write_ms": _median_ms(durations("mesh.write_mesh")),
        "mesh.write_bytes": max((info["bytes"] for _, _, info in writes),
                                default=0),
        "mesh.read_ms": _median_ms(durations("mesh.read_mesh")),
        "mesh.quality_ms": _median_ms(durations("mesh.mesh_quality")),
        "mesh.generate_ms": _median_ms(durations("mesh.generate_tunnel")
                                       + durations("mesh.generate_box_wing")),
        "pod.build_snapshots_ms": _median_ms(durations("pod.build_snapshots")),
        "pod.compute_pod_ms": _median_ms(durations("pod.compute_pod")),
        "pod.build_online_ms": _median_ms(durations("pod.build_online")),
        "pod.online_solve_ms": online,
        "pod.n_modes": max(modes, default=0),
        "pod.read_model_ms": _median_ms(durations("pod.read_model")),
        "pod.speedup_vs_full_x": deform_full / online if online else 0.0,
        "metrics.relative_error_ms": _median_ms(
            durations("metrics.relative_error")),
        "trace.spans": len(tracer.spans),
    })
    return out

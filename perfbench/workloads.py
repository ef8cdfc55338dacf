"""The three benchmark workloads.

Each workload is one closed loop with one client in one process: the
next operation starts when the previous one has returned. Every random
input is drawn from a generator seeded with the workload seed.

* ``cli-tunnel``: one operation is the cold user path on the tunnel
  mesh, ``morph`` then ``pod-offline`` then ``pod-online``, each a fresh
  ``python -m morphkit.cli`` process (traced: ``cli.main`` in-process).
* ``online-tunnel``: the POD model is built once; one operation is a
  parameter query, ``laws.evaluate`` -> ``restrict`` ->
  ``pod.online_solve``.
* ``study-wing``: the full reference morph is built once; operations
  alternate between an R-sweep point (``select_multi`` + ``enrich``) and
  a random-baseline draw (``select_random``), each followed by
  ``assemble``, ``deform`` and ``relative_error``.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from morphkit import cli, idw, laws, mesh, metrics, pod, selection

OUTER_FACES = ("left", "right", "top", "bottom", "front", "rear")
WING_SIDES = ("top", "bottom", "front", "rear")
WING_EDGES = ("left_edge", "right_edge", "horizontal_edges")

# online results must match a direct thinned deform this closely
# (acceptance criterion 10's bound)
ONLINE_TOLERANCE = 1e-10


def tunnel_size(smoke):
    return 8 if smoke else 22


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


class Workload:
    """Set-up state plus one closed-loop operation and its checks.

    ``op(i)`` returns the operation's wall time in seconds, measured
    around the calls into morphkit only; checks run outside that window
    and append a message to ``self.failures`` when an output is wrong.
    """

    def __init__(self, seed, smoke, scratch):
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.scratch = scratch
        self.failures = []
        self.seeds = {"workload": seed}

    def fail(self, message):
        self.failures.append(message)

    def finish(self):
        """Checks that need the whole loop; returns (rel_error, details)."""
        raise NotImplementedError

    def thin_ids(self):
        """A thinned control set typical of the workload, for the kernel probe."""
        raise NotImplementedError


class TunnelScenario(Workload):
    """The criterion-7 tunnel: rotation law, esidw selection, 8 snapshots.

    The scenario is fixed, selection and training seeds included, as in
    acceptance criterion 7; the workload seed draws the mu values.
    """

    domain = (-36.0, 0.0)
    selection_seed = 7
    train_seed = 3

    def build_mesh(self):
        self.mesh = mesh.generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0),
                                         tunnel_size(self.smoke))
        self.law = laws.rotation_law(self.mesh.boundary_ids, self.domain,
                                     pivot=(2.5, 2.5, 2.5),
                                     clamp_groups=OUTER_FACES)
        self.full_m = int(self.mesh.boundary_ids.size)
        self.seeds.update(selection=self.selection_seed,
                          pod_train=self.train_seed)

    def config(self):
        """The scenario as a morphkit CLI config."""
        return {
            "mesh": {"generator": "tunnel", "outer": [5.0, 5.0, 5.0],
                     "inner": [1.0, 1.0, 1.0],
                     "resolution": tunnel_size(self.smoke)},
            "law": {"kind": "rotation", "domain": list(self.domain),
                    "pivot": [2.5, 2.5, 2.5], "axis": "z",
                    "clamp_groups": list(OUTER_FACES)},
            "selection": {
                "regions": ([{"group": "obstacle", "radius": 0.3}]
                            + [{"group": g, "radius": 1.0}
                               for g in OUTER_FACES]),
                "strategy": "random", "seed": self.selection_seed},
            "enrichment": ["obstacle_edges"],
            "pod": {"n_train": 8, "seed": self.train_seed,
                    "epsilon": 1e-5, "projection": "weighted"},
            "idw": {"p": 4},
        }

    def draw_mu(self):
        return float(self.rng.uniform(*self.domain))

    def thin_ids(self):
        return cli.run_selection(self.mesh, self.config(), None)[0]


class CliTunnel(TunnelScenario):
    name = "cli-tunnel"

    def __init__(self, seed, smoke, scratch, in_process=False):
        super().__init__(seed, smoke, scratch)
        self.build_mesh()
        self.in_process = in_process
        self.cfg_path = os.path.join(scratch, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.config(), fh)
        self.stage_times = {"morph": [], "pod-offline": [], "pod-online": []}
        self.errors = []

    def _run(self, stage, argv):
        if self.in_process:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start
            detail = sink.getvalue()
        else:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "morphkit.cli"] + argv,
                                  capture_output=True, text=True, timeout=150)
            elapsed = time.perf_counter() - start
            code, detail = proc.returncode, proc.stderr
        self.stage_times[stage].append(elapsed)
        if code != 0:
            self.fail(f"{stage} exited {code}: {detail.strip()[-300:]}")
        return elapsed, code == 0

    def _check_mesh(self, path, stage):
        try:
            got = mesh.read_mesh(path)
        except (OSError, ValueError) as exc:
            self.fail(f"{stage}: {path} does not read back: {exc}")
            return
        if got.node_count != self.mesh.node_count:
            self.fail(f"{stage}: {got.node_count} nodes written, "
                      f"{self.mesh.node_count} generated")

    def op(self, i):
        cycle = tempfile.mkdtemp(prefix=f"op{i}-", dir=self.scratch)
        morph_dir = os.path.join(cycle, "morph")
        pod_dir = os.path.join(cycle, "pod")
        common = ["--config", self.cfg_path, "--repeat", "1"]
        mu_morph, mu_online = self.draw_mu(), self.draw_mu()
        total = 0.0
        t, ok = self._run("morph", ["morph"] + common
                          + ["--out", morph_dir, "--mu", repr(mu_morph)])
        total += t
        if ok:
            self._check_mesh(os.path.join(morph_dir, "deformed.json"), "morph")
            with open(os.path.join(morph_dir, "report.json")) as fh:
                err = json.load(fh)[0]["rel_error"]
            if not (isinstance(err, float) and math.isfinite(err)):
                self.fail(f"morph rel_error is {err!r}")
            else:
                self.errors.append(err)
        t, ok = self._run("pod-offline", ["pod-offline"] + common
                          + ["--out", pod_dir])
        total += t
        if ok:
            t, ok = self._run("pod-online", ["pod-online"] + common
                              + ["--out", pod_dir, "--mu", repr(mu_online),
                                 "--reference", "none"])
            total += t
            if ok:
                self._check_mesh(os.path.join(pod_dir, "deformed.json"),
                                 "pod-online")
        shutil.rmtree(cycle)
        return total

    def finish(self):
        details = {f"{stage}_s": times for stage, times in
                   self.stage_times.items()}
        rel = float(np.median(self.errors)) if self.errors else float("nan")
        return rel, details


class OnlineTunnel(TunnelScenario):
    name = "online-tunnel"
    check_every = 20    # about one query in this many is checked
    full_checks = 8     # checked queries also compared with the full morph

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.build_mesh()
        params = cli.selection_params(self.config(), None)
        result = selection.select_multi(self.mesh, params)
        self.control_ids = selection.enrich(result.selected, self.mesh,
                                            ("obstacle_edges",))
        self.op_thin = idw.assemble(self.mesh, self.control_ids,
                                    self.mesh.interior_ids)
        train = laws.sample_domain(self.domain, 8, self.train_seed)
        self.model = pod.build_pod_model(self.op_thin, self.law, self.mesh,
                                         train, 1e-5)
        self.check_rng = np.random.default_rng(_seed(self.rng))
        self.checked = []   # (mu, online field) of checked queries

    def op(self, i):
        mu = self.draw_mu()
        start = time.perf_counter()
        d_b = laws.evaluate(self.law, self.mesh, mu)
        d_hat = d_b.restrict(self.control_ids)
        out = pod.online_solve(self.model, d_hat)
        elapsed = time.perf_counter() - start
        if self.check_rng.integers(self.check_every) == 0:
            err = metrics.relative_error(out, idw.deform(self.op_thin, d_hat))
            if not err <= ONLINE_TOLERANCE:
                self.fail(f"online query mu={mu!r} is {err:.3e} from the "
                          "thinned deform")
            if len(self.checked) < self.full_checks:
                self.checked.append((mu, out))
        return elapsed

    def finish(self):
        """Error of the checked online answers against the full IDW morph.

        The full operator is assembled in row blocks, so the check never
        holds the whole dense matrix.
        """
        if not self.checked:
            mu = self.draw_mu()
            d_hat = laws.evaluate(self.law, self.mesh, mu).restrict(
                self.control_ids)
            self.checked.append((mu, pod.online_solve(self.model, d_hat)))
        fields = [laws.evaluate(self.law, self.mesh, mu)
                  for mu, _ in self.checked]
        interior = self.mesh.interior_ids
        parts = [[] for _ in fields]
        for lo in range(0, interior.size, 1024):
            block = idw.assemble(self.mesh, self.mesh.boundary_ids,
                                 interior[lo:lo + 1024])
            for part, d_b in zip(parts, fields):
                part.append(idw.deform(block, d_b).vectors)
        errors = [metrics.relative_error(out, mesh.DisplacementField(
                      interior, np.vstack(part)))
                  for (_, out), part in zip(self.checked, parts)]
        return float(np.median(errors)), {
            "full_idw_errors": errors, "n_modes": self.model.n_modes,
            "k": int(self.control_ids.size)}


class StudyWing(Workload):
    name = "study-wing"
    radius_range = (0.02, 0.15)
    k_random = 200
    replays = 16    # points recomputed at the end to check reproducibility

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        if smoke:
            self.mesh = mesh.generate_box_wing(4, 2, 8, (1.0, 0.25, 2.0))
        else:
            self.mesh = mesh.generate_box_wing(8, 4, 25, (1.0, 0.25, 6.3))
        self.full_m = int(self.mesh.boundary_ids.size)
        self.k = min(self.k_random, self.full_m // 2)
        self.law = laws.bend_law(self.mesh.boundary_ids, (0.0, 0.02),
                                 clamp_groups=("left",))
        self.mu = float(self.rng.uniform(0.005, 0.02))
        self.d_b = laws.evaluate(self.law, self.mesh, self.mu)
        op_full = idw.assemble(self.mesh, self.mesh.boundary_ids,
                               self.mesh.interior_ids)
        self.d_ref = idw.deform(op_full, self.d_b)
        self.points = []   # (spec, error)

    def _point(self, spec):
        if spec[0] == "R":
            r_lr, seed = spec[1], spec[2]
            regions = ([("left", r_lr), ("right", r_lr)]
                       + [(g, 10.0 * r_lr) for g in WING_SIDES])
            result = selection.select_multi(
                self.mesh, selection.SelectionParams(regions, seed=seed))
            ids = selection.enrich(result.selected, self.mesh, WING_EDGES)
        else:
            ids = selection.select_random(self.mesh.boundary_ids, self.k,
                                          spec[1])
        op = idw.assemble(self.mesh, ids, self.mesh.interior_ids)
        d = idw.deform(op, self.d_b.restrict(ids))
        return metrics.relative_error(d, self.d_ref)

    def op(self, i):
        if i % 2 == 0:
            spec = ("R", float(self.rng.uniform(*self.radius_range)),
                    _seed(self.rng))
        else:
            spec = ("random", _seed(self.rng))
        start = time.perf_counter()
        err = self._point(spec)
        elapsed = time.perf_counter() - start
        if not math.isfinite(err):
            self.fail(f"point {spec} gave error {err!r}")
        self.points.append((spec, err))
        return elapsed

    def thin_ids(self):
        return selection.select_random(self.mesh.boundary_ids, self.k, 0)

    def finish(self):
        """Recompute a seeded subset of points: errors must repeat bit for bit."""
        picks = self.rng.permutation(len(self.points))[:self.replays]
        for j in picks:
            spec, err = self.points[j]
            again = self._point(spec)
            if again != err:
                self.fail(f"point {spec} gave {err!r} then {again!r}")
        errors = [err for _, err in self.points]
        return float(np.mean(errors)), {"mu": self.mu, "k_random": self.k,
                                        "replayed": len(picks)}


WORKLOADS = {cls.name: cls for cls in (CliTunnel, OnlineTunnel, StudyWing)}

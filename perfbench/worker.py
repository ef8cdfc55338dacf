"""One benchmark process: set up a workload, run its loop, check, report.

Started by ``run.py``; not meant to be run by hand. It prints ``READY``
on its own line once set-up is done (so the parent can time set-up from
process start), and one JSON object as the last line of its output.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import morphkit
from morphkit import _kernels, idw, laws

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, CliTunnel

PERCENTILES = (0.9, 0.99, 0.999, 0.9999)
CALIBRATE_EVERY_S = 0.2
CALIBRATION_CALLS = 3   # per burst; the burst reports their median


class Calibrator:
    """Times a fixed computation that does not use morphkit.

    On a shared host the speed of the CPU drifts by tens of percent over
    minutes, and every operation slows with it. Dividing each operation's
    time by the calibration time measured next to it cancels that drift
    while any change in morphkit still shows in full.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.ids = rng.permutation(20000).astype(np.int64)
        self.mat = rng.random((400, 400))
        self.times = []   # (end of burst, seconds per call)

    def _call(self):
        total = 0
        for k in range(3000):   # interpreter work
            total += k * k
        np.unique(self.ids)     # sort
        self.mat @ self.mat[:, :8]  # small BLAS product
        np.ones(1 << 18).sum()  # allocation
        return total

    def burst(self):
        durations = []
        for _ in range(CALIBRATION_CALLS):
            start = time.perf_counter()
            self._call()
            durations.append(time.perf_counter() - start)
        self.times.append((time.perf_counter(), float(np.median(durations))))

    def due(self):
        return (not self.times
                or time.perf_counter() - self.times[-1][0] >= CALIBRATE_EVERY_S)

    def normalize(self, ops):
        """Each (end time, seconds) op over the calibration time
        interpolated at the op's midpoint."""
        at = [t for t, _ in self.times]
        cal = [c for _, c in self.times]
        return [seconds / np.interp(end - seconds / 2.0, at, cal)
                for end, seconds in ops]


def latency_summary(samples):
    """Median, and the highest listed percentile with >= 10 samples beyond it."""
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    out = {"n": int(n), "p50_ms": float(np.median(values)) * 1e3}
    tail = [q for q in PERCENTILES if n * (1.0 - q) >= 10]
    if tail:
        q = tail[-1]
        out["tail_pct"] = 100.0 * q
        out["tail_ms"] = float(np.quantile(values, q)) * 1e3
    return out


def host_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "morphkit": morphkit.__version__,
        "backend": morphkit.backend_name(),
        "compiled_available": morphkit.compiled_available(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cold_import_s(env, repeats=3):
    code = ("import time; t = time.perf_counter(); import morphkit; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(repeats)]
    return float(np.median(times))


def _median_call_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def kernel_probe(wl, smoke, rng):
    """Backend comparison at the workload's thin and full shapes and on
    random points; the compiled backend is reported only if importable."""
    m = wl.mesh
    targets = m.nodes[m.interior_ids]
    thin_ids = wl.thin_ids()
    shapes = {
        "thin": (targets, m.nodes[thin_ids]),
        "full": (targets, m.nodes[m.boundary_ids]),
        "random": (rng.random((500, 3) if smoke else (4000, 3)),
                   rng.random((100, 3) if smoke else (1000, 3))),
    }
    tol = idw.IdwConfig().resolve_tol(m.nodes)
    backends = ["numpy"] + (["compiled"] if _kernels.compiled_available()
                            else [])
    table = {}
    for backend in backends:
        for shape, (tgt, ctl) in shapes.items():
            table[f"{backend}.{shape}_ms"] = _median_call_ms(
                lambda: _kernels.assemble_weight_matrix(tgt, ctl, 4, tol,
                                                        backend=backend), 3)
    if "compiled" not in backends:
        table["compiled"] = "unavailable"
    active = _kernels.backend_name()
    n, full_m = targets.shape[0], m.boundary_ids.size
    computed = 8 * (n * full_m + 3 * n + 3 * full_m)  # output + both inputs
    full_ms = table.get(f"{active}.full_ms", table["numpy.full_ms"])
    metrics = {
        "kernels.assemble_full_ms": full_ms,
        "kernels.assemble_thin_ms": table.get(f"{active}.thin_ms",
                                              table["numpy.thin_ms"]),
        "kernels.assemble_random_ms": table.get(f"{active}.random_ms",
                                                table["numpy.random_ms"]),
        "kernels.bytes_computed": computed,
        "kernels.gbps_computed": computed / (full_ms * 1e-3) / 1e9,
        "kernels.compiled_available": int(_kernels.compiled_available()),
    }
    table["shapes"] = {k: [int(t.shape[0]), int(c.shape[0])]
                       for k, (t, c) in shapes.items()}
    return metrics, table


def full_deform_probe(wl, tracer):
    """Five traced deforms through the full operator on the workload's
    mesh, so every workload reports the full-operator deform."""
    m = wl.mesh
    d_b = laws.evaluate(wl.law, m, sum(wl.law.domain) / 2.0)
    op_full = idw.assemble(m, m.boundary_ids, m.interior_ids)
    tracer.phase = "probe"
    tracer.install()
    for _ in range(5):
        idw.deform(op_full, d_b)
    tracer.uninstall()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="where the traced run writes spans")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cls = WORKLOADS[args.workload]
    if cls is CliTunnel:
        wl = cls(args.seed, args.smoke, args.scratch,
                 in_process=bool(args.trace))
    else:
        wl = cls(args.seed, args.smoke, args.scratch)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    latencies = {True: [], False: []}   # traced -> [(end time, seconds)]
    calibrator = Calibrator()
    failed_ops = 0
    i = 0
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while True:
        if calibrator.due():
            calibrator.burst()
        # pairs, so study-wing's alternating point kinds are traced equally
        traced = bool(tracer) and (i // 2) % 2 == 1
        if tracer:
            tracer.phase = "loop"
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        before = len(wl.failures)
        try:
            seconds = wl.op(i)
            latencies[traced].append((time.perf_counter(), seconds))
        except Exception:  # count it and keep the loop going
            wl.fail(traceback.format_exc(limit=3))
        failed_ops += len(wl.failures) > before
        i += 1
        if time.perf_counter() >= deadline:
            break
    calibrator.burst()
    loop_s = time.perf_counter() - loop_start
    if tracer:
        tracer.uninstall()

    rss_mb = peak_rss_mb()   # set-up and loop; the final checks come after
    before = len(wl.failures)
    try:
        rel_error, details = wl.finish()
    except Exception:  # a broken program still gets a result line
        wl.fail(traceback.format_exc(limit=3))
        rel_error, details = 0.0, {}
    if not np.isfinite(rel_error):
        wl.fail(f"relative error is {rel_error!r}")
        rel_error = 0.0
    failed = min(i, failed_ops + len(wl.failures) - before)
    ops = latencies[False] + latencies[True]
    samples = [seconds for _, seconds in ops]
    cal_ms = [1e3 * c for _, c in calibrator.times]
    result = {
        "attempted": i,
        "failed": failed,
        "correct": not wl.failures and bool(samples),
        "failures": wl.failures[:10],
        "details": {"latency": latency_summary(samples) if samples else None,
                    "ops_per_s": len(samples) / sum(samples) if samples else 0,
                    "calibration_ms": {"median": float(np.median(cal_ms)),
                                       "min": min(cal_ms), "max": max(cal_ms),
                                       "bursts": len(cal_ms)},
                    "loop_s": loop_s, "seeds": wl.seeds, "host": host_facts(),
                    "workload": details},
    }
    if not tracer:
        result["metrics"] = {
            "op_p50_cal": (float(np.median(calibrator.normalize(ops)))
                           if ops else 0.0),
            "peak_rss_mb": rss_mb,
            "rel_error": rel_error,
            "ok_ratio": (i - failed) / i,
        }
    else:
        rng = np.random.default_rng(args.seed)
        kernels, table = kernel_probe(wl, args.smoke, rng)
        full_deform_probe(wl, tracer)
        metrics = layer_metrics(tracer, wl.full_m, len(latencies[True]))
        metrics.update(kernels)
        metrics["cli.import_s"] = cold_import_s(dict(os.environ))
        plain = calibrator.normalize(latencies[False])
        traced = calibrator.normalize(latencies[True])
        metrics["trace.overhead_pct"] = (
            100.0 * (np.median(traced) / np.median(plain) - 1.0)
            if plain and traced else 0.0)
        result["metrics"] = metrics
        result["details"]["kernel_backends"] = table
        result["details"]["traced_ops"] = len(traced)
        result["details"]["untraced_ops"] = len(plain)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

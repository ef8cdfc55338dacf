"""Pipeline benchmark for morphkit.

Run from the repository root:

    python3 perfbench/run.py --workload online-tunnel --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``cli-tunnel``, ``online-tunnel`` and
``study-wing``. With ``--trace 0`` the last line of output is a JSON
object carrying the end-to-end metrics; with ``--trace 1`` a separate,
traced run reports the per-layer metrics and writes its spans to
``.perfbench_out/``. Every metric is also printed by name, with its
unit, above that line. ``--smoke`` shrinks meshes and run length for a
quick end-to-end check of the benchmark itself.

The program under test is the ``morphkit`` package in ``src/`` of the
checkout this file sits in; nothing needs building, as the package is
pure Python with a NumPy kernel. Set-up time is measured by starting
the workload's worker process several times and timing each from
process start until it reports that its first timed operation can run.
Operation times are gated in units of a calibration computation timed
alongside them, which cancels the drift of a shared host's CPU speed;
METRICS.md gives the reasons and what each metric should move. BLAS runs
single-threaded in every process (see BLAS_THREADS).

Exit status is 0 when the run completed, whether or not the outputs
checked out (``correct`` says that); it is non-zero, with no JSON line,
when the benchmark itself could not run.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("cli-tunnel", "online-tunnel", "study-wing")

# One BLAS thread: on a 2-core host the online loop ran 263-360 queries/s
# with OpenBLAS's default threading and 345-387 queries/s with one thread.
BLAS_THREADS = "1"
SETUPS = 5          # worker starts per timed run; set-up is their median
RUN_TIMEOUT_S = 170  # the whole run, all workers included
SETUP_TIMEOUT_S = 60



def metric_spec(trace):
    """Name -> unit of the metrics BENCHMARK.json asks this run for."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env.pop("MORPHKIT_KERNEL", None)   # the import-time default backend
    env.pop("MORPHKIT_SEED", None)     # seeds come from --seed only
    return env


def start_worker(args, scratch, setup_only, spans=None):
    """Start one worker; returns (process, seconds until it was ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    # own process group, so a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def stop(proc):
    """Kill the worker's whole process group and wait for the worker."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def finish_worker(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"worker did not finish within {timeout:.0f}s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run(args):
    started = time.perf_counter()
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        n_setups = 1 if args.trace else (2 if args.smoke else SETUPS)
        for _ in range(n_setups - 1):
            proc, ready = start_worker(args, scratch, setup_only=True)
            setups.append(ready)
            finish_worker(proc, SETUP_TIMEOUT_S)
        spans = os.path.join(OUT, f"spans-{tag}.json") if args.trace else None
        proc, ready = start_worker(args, scratch, setup_only=False, spans=spans)
        setups.append(ready)
        remaining = RUN_TIMEOUT_S - (time.perf_counter() - started)
        result = finish_worker(proc, max(remaining, 1.0))
        if result is None:
            raise RuntimeError("worker printed no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = metric_spec(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    details = result["details"]
    details.update(setups_s=setups, commit=git_commit(),
                   command=sys.argv, failures=result["failures"])
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"metrics": metrics, "details": details}, fh, indent=1)
        fh.write("\n")

    lat = details["latency"] or {}
    host = details["host"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={details['commit']}")
    print(f"# host: nproc={host['nproc']} blas={host['blas']['name']} "
          f"{host['blas']['version']} threads={host['blas_threads']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"scipy={host['scipy']} backend={host['backend']} "
          f"compiled_available={host['compiled_available']}")
    print(f"# seeds: {details['seeds']}")
    if lat:
        tail = (f", p{lat['tail_pct']:g} {lat['tail_ms']:.4f} ms"
                if "tail_ms" in lat else "")
        print(f"# operation latency: p50 {lat['p50_ms']:.4f} ms{tail} "
              f"(n={lat['n']}), {details['ops_per_s']:.4f} operations/s")
    cal = details["calibration_ms"]
    print(f"# calibration: median {cal['median']:.4f} ms, "
          f"range {cal['min']:.4f}-{cal['max']:.4f} ms over "
          f"{cal['bursts']} bursts")
    for name, value in sorted(details.get("workload", {}).items()):
        print(f"# {name}: {value}")
    if args.trace:
        print(f"# kernel backends: {details['kernel_backends']}")
    for message in result["failures"]:
        print(f"# FAILED: {message}")
    for name in sorted(set(metrics) - set(units)):
        print(f"# {name}: {metrics[name]!r}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes; checks the benchmark, not speed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "morphkit", "__init__.py")):
        print(f"error: no morphkit package under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

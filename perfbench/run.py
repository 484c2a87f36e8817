"""chargeflow benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload recovery --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout. Fills the kernel tabulation cache
in perfbench/.cache if it is empty, times set-up in fresh interpreters, then
starts one worker process that runs the workload in a closed loop for about
``--seconds`` and checks every output against perfbench/reference.json. The
last line of standard output is the JSON result; with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones. A line before
it records the machine, the versions and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recovery", "flow", "sgd")
SETUP_SAMPLES = 5  # fresh interpreters timed per untraced run
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--size", args.size, *extra]


def worker_env():
    env = dict(os.environ)
    env["CHARGEFLOW_CACHE_DIR"] = os.path.join(HERE, ".cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start(cmd):
    """Start a worker; returns (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker did not start: {line.strip()!r}")
    return proc, ready


def finish(proc, deadline=TIMEOUT_S):
    """Wait for a worker and return its remaining stdout; kill on timeout."""
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def warm_cache(args):
    cache = os.path.join(HERE, ".cache")
    if os.path.isdir(cache) and any(f.endswith(".json") for f in os.listdir(cache)):
        return
    proc = subprocess.run(worker_cmd(args, "--warm"), cwd=ROOT, env=worker_env(), timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("could not build the kernel tabulation")


def openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


def bench(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "chargeflow")):
        raise BenchError("no src/chargeflow in this checkout")
    warm_cache(args)
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start(worker_cmd(args, "--setup-only"))
            finish(proc)
            setup.append(ready)
    proc, ready = start(worker_cmd(args, "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--reference", args.reference))
    setup.append(ready)
    out = finish(proc)
    res = json.loads(out.strip().splitlines()[-1])

    walls, cpus = res["walls"], res["cpus"]
    info = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
            "env": environment(), "walls_s": walls}
    if args.trace:
        metrics = res["layer"]
        info["samples"] = {"untraced_passes": 1, "traced_passes": len(walls) - 1}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        info["samples"] = {"wall_s": len(walls), "cpu_s": len(cpus), "setup_s": len(setup), "peak_rss_mb": 1}
        info["setup_s"] = setup
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0; held-out seed 7)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny is for selftest.py")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = p.parse_args(argv)
    try:
        bench(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up one workload, then run timed passes.

Started by run.py in a fresh interpreter. Prints ``ready`` as soon as set-up
(import, parse_potential on the warm cache, building the objective) is done,
then one JSON line with the pass results. ``--setup-only`` exits after
``ready``; ``--warm`` fills the tabulation cache and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from chargeflow import harmonic  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(wl, inputs, ref, outputs):
    """Run one pass; returns (wall s, cpu s, attempted, failed)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, time.process_time() - c0, 1, 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    bad = wl.failures(out, ref)
    for msg in bad:
        print(f"check failed: {msg}", file=sys.stderr)
    outputs.append(out)
    return wall, cpu, len(out), len(bad)


def measure(wl, seed, seconds, ref, trace):
    """Closed loop: start another pass while that brings the run's end
    closer to ``seconds``. Traced runs time one untraced pass first, then
    traced passes on the same inputs."""
    rngs = workloads.variant_rngs(wl.name, seed)
    fixed = wl.inputs(next(rngs)) if trace else None
    tracer = None
    walls, cpus, outputs, layer = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if trace and walls:
            if tracer is None:
                tracer = tracing.Tracer()
                tracer.install()
            tracer.reset()
        wall, cpu, n, bad = run_pass(wl, fixed if trace else wl.inputs(next(rngs)), ref, outputs)
        walls.append(wall)
        cpus.append(cpu)
        attempted += n
        failed += bad
        if tracer is not None:
            layer.append(tracer.metrics())
        elapsed = time.perf_counter() - start
        enough = not trace or len(walls) >= 2
        if enough and elapsed + 0.5 * float(np.median(walls)) > seconds:
            break
    result = {"attempted": attempted, "failed": failed, "walls": walls, "cpus": cpus}
    if trace:
        tracer.uninstall()
        print(tracer.table(), file=sys.stderr)
        # the wrappers must leave every output unchanged
        if any(out != outputs[0] for out in outputs[1:]):
            print("traced outputs differ from the untraced pass", file=sys.stderr)
            result["failed"] += 1
            result["attempted"] += 1
        metrics = {k: float(np.median([m[k] for m in layer])) for k in layer[0]}
        t0 = time.perf_counter()
        harmonic.build_almost_harmonic(3, 0.1, 1.0)
        metrics["harmonic.build_ms"] = (time.perf_counter() - t0) * 1e3
        metrics["trace_overhead_frac"] = float(np.median(walls[1:])) / walls[0] - 1.0
        result["layer"] = {
            k: {"value": int(metrics[k]) if unit == "count" else metrics[k], "unit": unit}
            for k, (unit, _) in tracing.METRICS.items()
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--reference")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--warm", action="store_true")
    args = p.parse_args(argv)

    if args.warm:
        harmonic.load_or_build_almost_harmonic(3, 0.1, 1.0)
        return 0
    wl = workloads.WORKLOADS[args.workload](args.size)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(args.reference) as fh:
        ref = json.load(fh)[args.workload][args.size]
    result = measure(wl, args.seed, args.seconds, ref, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

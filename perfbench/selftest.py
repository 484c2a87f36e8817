"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that a deliberately corrupted reference makes the run report
failures, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".out", "selftest")


def bench(workload, trace, reference=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def corrupt(ref):
    """Shift one reference value per workload past its tolerance."""
    for variant in ref["recovery"]["tiny"]["variants"].values():
        variant["iterations"][0] += 1
    ref["flow"]["tiny"]["loss"] *= 1.001
    ref["sgd"]["tiny"]["cells"][0]["test_err"] *= 2.0
    return ref


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join(HERE, "reference.json")) as fh:
        bad = corrupt(json.load(fh))
    bad_path = os.path.join(SCRATCH, "corrupt.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, res, err = bench(name, trace)
            if code != 0 or res is None:
                problems.append(f"{name} trace={trace}: exit {code}\n{err}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: outputs failed their checks\n{err}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != BENCHMARK.json {wanted[trace]}")
        code, res, err = bench(name, 1, reference=bad_path)
        if code != 0 or res is None or res["correct"] or not res["failed"] / res["attempted"] > 0:
            problems.append(f"{name}: a corrupted reference did not raise the error rate ({res})")

    # without the program the benchmark must fail without printing a result
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".out", ".cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res, _ = bench("sgd", 0, cwd=bare)
    if code == 0 or res is not None:
        problems.append(f"bare checkout: exit {code}, result {res}")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

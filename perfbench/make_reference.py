"""Regenerate perfbench/reference.json from the program at this commit.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the workloads' outputs, and say
so in that change. Besides writing the reference it prints how far the
invariant outputs move across random variants of each base instance, which
is what the tolerances in workloads.py are set against.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["CHARGEFLOW_CACHE_DIR"] = os.path.join(HERE, ".cache")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def recovery(size):
    wl = workloads.Recovery(size)
    variants = {}
    for perm in itertools.permutations(range(wl.k)):
        for sign in (1, -1):
            (out,) = wl.run(wl.variant(list(perm), sign))
            variants[out.pop("variant")] = out
            print(size, perm, sign, out, flush=True)
    return {"variants": variants}


def flow(size, spread_draws):
    wl = workloads.Flow(size)
    k = wl.k
    (base,) = wl.run(wl.variant(np.eye(wl.d), np.zeros(wl.d), np.arange(k), np.arange(k)))
    rngs = workloads.variant_rngs("flow", 12345)
    for _ in range(spread_draws):
        (out,) = wl.run(wl.inputs(next(rngs)))
        print(size, "flow variant: loss rel diff %.2e, lambda_min diff %.2e, velocity gap %.2e" % (
            abs(out["loss"] / base["loss"] - 1), abs(out["lambda_min"] - base["lambda_min"]), out["velocity_gap"]))
    print(size, "flow base", base)
    return {"loss": base["loss"], "lambda_min": base["lambda_min"]}


def sgd(size, spread_draws):
    wl = workloads.Sgd(size)
    base = wl.run([(width, seed, workloads.harness.LayeredNetwork(weights=(w1, w2)))
                   for width, seed, w1, w2 in wl.cells])
    rngs = workloads.variant_rngs("sgd", 12345)
    for _ in range(spread_draws):
        out = wl.run(wl.inputs(next(rngs)))
        worst = max(abs(o[f] / b[f] - 1) for o, b in zip(out, base) for f in ("train_err", "test_err"))
        print(size, "sgd variant: worst relative error difference %.2e" % worst)
    print(size, "sgd base", base)
    return {"cells": base}


def main():
    ref = {"recovery": {}, "flow": {}, "sgd": {}}
    for size, draws in (("tiny", 3), ("full", 2)):
        ref["flow"][size] = flow(size, draws)
        ref["sgd"][size] = sgd(size, draws)
        ref["recovery"][size] = recovery(size)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

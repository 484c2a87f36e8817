"""Workload inputs, one pass of each workload, and the output checks.

Each workload has a fixed base instance. The benchmark seed draws an exact
symmetry of that instance (a relabelling of the units, a sign or a rigid
motion) and the program receives only the transformed arrays. The symmetry
leaves the mathematical problem, and so the work, unchanged, which keeps run
time independent of the seed; the outputs must match the reference for the
base instance (invariant quantities) or for the drawn variant (exact counts).

Why not fresh random instances per seed: recovery time per target ranges from
7 s to 18 s on the same machine, because the number of descent steps per node
ranges from 500 to the 30000 cap, so ten seeds of fresh targets cannot give a
steady wall time within one run.
"""

from __future__ import annotations

import numpy as np

from chargeflow import descent, dynamics, harness, loss, potentials

ALMOST = "almost:eps=0.1,lambda=1,d=3"
GAUSS = "gauss:c=1"

# Program parameters per workload and size. "full" is what the benchmark
# measures; "tiny" keeps the same code paths for the self-test.
SIZES = {
    "recovery": {
        # harness.ExperimentConfig defaults for trials, T, step sizes and
        # separation; the target seed and init seed are those of
        # `chargeflow recovery --seeds 0`.
        "full": {"k": 3, "trials": 3_000_000, "T": 30_000},
        "tiny": {"k": 2, "trials": 1 << 15, "T": 300},
    },
    "flow": {
        "full": {"k": 30, "steps": 40, "dt": 1e-2, "stride": 10},
        "tiny": {"k": 4, "steps": 4, "dt": 1e-2, "stride": 2},
    },
    "sgd": {
        "full": {"widths": (5, 40), "cells": 3, "iters": 20_000},
        "tiny": {"widths": (5, 40), "cells": 1, "iters": 300},
    },
}

# Tolerances of the output checks.
# - Velocity identity: test_04's bound, dynamics.velocity_field against
#   -1/2 dL/dtheta from loss.Objective.grad.
VELOCITY_ATOL = 1e-12
# - Flow loss: rotating, translating and relabelling the charges reorders
#   float sums only; across variants the final loss moves by about 2e-16
#   relative, so 1e-9 leaves room while any change to the field fails it.
FLOW_LOSS_RTOL = 1e-9
# - lambda_min comes from a finite-difference Hessian (step 1e-4), whose
#   round-off is about 1e-16 * L / h^2 = 1e-7 per entry; across variants it
#   moves by up to 2e-7, so allow 1e-5 absolute.
FLOW_LAMBDA_ATOL = 1e-5
# - SGD test error, mean over the cells of one width. A relabelled teacher is
#   the same function with reordered float sums, yet SGD at alpha 0.2
#   amplifies the last-bit differences in one width-40 cell: over five
#   relabellings that cell moved by up to 35 % and the width-40 mean by up to
#   12 %; the other cells moved by less than 1e-9. Wrong gradients (dropping
#   either tanh-derivative factor, or halving the gradient) move the mean of
#   at least one width by 34 % or more. 20 % separates the two.
SGD_RTOL = 0.2

RECOVERY_BASE_SEED = 0
FLOW_BASE_SEED = 1
SGD_BASE_SEED = 2


def variant_rngs(workload, seed):
    """One generator per pass: pass j of a run with this seed uses draw j."""
    salt = {"recovery": 11, "flow": 12, "sgd": 13}[workload]
    root = np.random.default_rng([int(seed), salt])
    while True:
        yield np.random.default_rng(root.integers(1 << 63))


# ---------------------------------------------------------------------------
# recovery: node-wise descent on a separated depth-2 target
# ---------------------------------------------------------------------------


def separated_target(k, d, separation, seed):
    """Hidden vectors ~ N(0, separation^2 I), resampled until pairwise at
    least ``separation`` apart; outer weights uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    while True:
        w = rng.standard_normal((k, d)) * separation
        b = rng.uniform(-1.0, 1.0, k)
        diff = w[:, None, :] - w[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= separation:
            return w, b


def recovery_variant(rng, k):
    """Relabel the target units and flip the sign of every outer weight:
    the loss is unchanged, the learned charges flip with it."""
    perm = [int(i) for i in rng.permutation(k)]
    sign = int(rng.choice([-1, 1]))
    return perm, sign


def recovery_key(perm, sign):
    return f"perm={','.join(map(str, perm))};sign={sign:+d}"


class Recovery:
    name = "recovery"

    def __init__(self, size):
        p = SIZES["recovery"][size]
        self.k, self.trials, self.T = p["k"], p["trials"], p["T"]
        self.cfg = harness.ExperimentConfig(experiment="recovery", k=self.k)
        self.pot = potentials.parse_potential(ALMOST)
        self.base_w, self.base_b = separated_target(self.k, self.pot.d, self.cfg.separation, RECOVERY_BASE_SEED)
        # building the objective is part of set-up
        loss.Objective(self.pot, loss.TargetNetwork(self.base_w, self.base_b))

    def inputs(self, rng):
        return self.variant(*recovery_variant(rng, self.k))

    def variant(self, perm, sign):
        target = loss.TargetNetwork(w=self.base_w[perm], b=sign * self.base_b[perm])
        return recovery_key(perm, sign), target

    def run(self, inputs):
        """Mirrors the per-seed body of harness.recovery_experiment."""
        key, target = inputs
        cfg = self.cfg
        obj = loss.Objective(self.pot, target)
        radius = cfg.radius_mult * float(np.max(np.linalg.norm(target.w, axis=1)))
        policy = descent.RandomBallInit(radius=radius, trials=self.trials)
        dcfg = descent.DescentConfig(
            T=self.T,
            alpha=cfg.descent_alpha,
            eta=cfg.descent_eta,
            gamma=cfg.descent_gamma,
            seed=RECOVERY_BASE_SEED * 1000,
            alpha_scale="init-charge",
            trace_stride=cfg.trace_stride,
        )
        result = descent.node_wise_descent(obj, policy, dcfg)
        perm, max_dist, max_charge = harness.match_to_target(result.theta, result.a, target)
        return [
            {
                "variant": key,
                "permutation": perm.tolist(),
                "recovered": bool(max_dist < 0.1 and max_charge < 0.1),
                "iterations": [r.iterations for r in result.reports],
            }
        ]

    @staticmethod
    def failures(out, ref):
        """One message per failed operation of a pass."""
        (got,) = out
        want = ref["variants"].get(got["variant"])
        if want is None:
            return [f"no reference for variant {got['variant']}"]
        for field in ("permutation", "recovered", "iterations"):
            if got[field] != want[field]:
                return [f"{got['variant']}: {field} {got[field]} != reference {want[field]}"]
        return []


# ---------------------------------------------------------------------------
# flow: RK4 particle flow, then the second-order stationarity check
# ---------------------------------------------------------------------------


def haar_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class Flow:
    name = "flow"

    def __init__(self, size):
        p = SIZES["flow"][size]
        self.k, self.steps, self.dt, self.stride = p["k"], p["steps"], p["dt"], p["stride"]
        self.pot = potentials.parse_potential(GAUSS)
        rng = np.random.default_rng(FLOW_BASE_SEED)
        self.d = 3
        self.base_theta = rng.standard_normal((self.k, self.d))
        self.base_a = rng.uniform(-1.0, 1.0, self.k)
        self.base_w = rng.standard_normal((self.k, self.d))
        self.base_b = rng.uniform(-1.0, 1.0, self.k)
        loss.Objective(self.pot, loss.TargetNetwork(self.base_w, self.base_b))

    def inputs(self, rng):
        """Rotate, translate and relabel every charge: the Gaussian kernel
        depends on distances only, so the flow is the same motion."""
        return self.variant(haar_rotation(rng, self.d), rng.standard_normal(self.d),
                            rng.permutation(self.k), rng.permutation(self.k))

    def variant(self, q, shift, pm, pf):
        target = loss.TargetNetwork(w=self.base_w[pf] @ q.T + shift, b=self.base_b[pf])
        hyp = loss.Hypothesis(theta=self.base_theta[pm] @ q.T + shift, a=self.base_a[pm])
        return target, hyp

    def run(self, inputs):
        target, hyp = inputs
        obj = loss.Objective(self.pot, target)
        system = dynamics.system_from_objective(obj, hyp)
        state, records = dynamics.run_trajectory(
            system, self.steps, self.dt, scheme="rk4", stride=self.stride,
            objective=obj, hypothesis_k=self.k,
        )
        final = loss.Hypothesis(theta=state.positions[: self.k], a=state.charges[: self.k])
        velocity = dynamics.velocity_field(state)[: self.k]
        flow_field = -0.5 * obj.grad(final)[1]
        vec = loss.VectorObjective(obj, self.k, self.d)
        stat = descent.stationarity_check(vec, vec.pack(final), eps=1e-3)
        return [
            {
                "loss": records[-1]["loss"],
                "loss_decreased": records[-1]["loss"] < records[0]["loss"],
                "velocity_gap": float(np.max(np.abs(velocity - flow_field))),
                "lambda_min": stat.lambda_min,
            }
        ]

    @staticmethod
    def failures(out, ref):
        (got,) = out
        if not got["velocity_gap"] <= VELOCITY_ATOL:
            return [f"velocity field differs from -dL/dtheta/2 by {got['velocity_gap']:.3e}"]
        if not got["loss_decreased"]:
            return ["loss did not decrease along the flow"]
        if not abs(got["loss"] - ref["loss"]) <= FLOW_LOSS_RTOL * abs(ref["loss"]):
            return [f"final loss {got['loss']!r} != reference {ref['loss']!r}"]
        if not abs(got["lambda_min"] - ref["lambda_min"]) <= FLOW_LAMBDA_ATOL:
            return [f"lambda_min {got['lambda_min']!r} != reference {ref['lambda_min']!r}"]
        return []


# ---------------------------------------------------------------------------
# sgd: teacher-student minibatch SGD grid (harness.sgd_train per cell)
# ---------------------------------------------------------------------------


class Sgd:
    name = "sgd"

    def __init__(self, size):
        p = SIZES["sgd"][size]
        self.cfg = harness.ExperimentConfig(
            d=10, depths=(2,), widths=p["widths"], seeds=tuple(range(p["cells"])), iters=p["iters"]
        )
        # one depth-2 tanh teacher with standard-Gaussian weights per cell
        rng = np.random.default_rng(SGD_BASE_SEED)
        self.cells = [
            (width, seed, rng.standard_normal((width, self.cfg.d)), rng.standard_normal((1, width)))
            for width in self.cfg.widths
            for seed in self.cfg.seeds
        ]

    def inputs(self, rng):
        """Relabel the hidden units and flip the sign of some of them (tanh
        is odd): every teacher computes the same function."""
        teachers = []
        for width, seed, w1, w2 in self.cells:
            perm = rng.permutation(width)
            flip = rng.choice([-1.0, 1.0], width)
            weights = (flip[:, None] * w1[perm], w2[:, perm] * flip[None, :])
            teachers.append((width, seed, harness.LayeredNetwork(weights=weights)))
        return teachers

    def run(self, inputs):
        out = []
        for width, seed, teacher in inputs:
            row = harness.sgd_train(self.cfg, teacher, 2, width, seed)
            out.append({"width": width, "seed": seed, "train_err": row.train_err, "test_err": row.test_err})
        return out

    @staticmethod
    def failures(out, ref):
        """Every error finite, and per width the mean test error within
        SGD_RTOL of the reference; a failed mean fails each of its cells."""
        bad = [f"width {o['width']} seed {o['seed']}: non-finite error"
               for o in out if not (np.isfinite(o["train_err"]) and np.isfinite(o["test_err"]))]
        for width in sorted({o["width"] for o in out}):
            got = [o["test_err"] for o in out if o["width"] == width]
            want = np.mean([c["test_err"] for c in ref["cells"] if c["width"] == width])
            if not abs(np.mean(got) - want) <= SGD_RTOL * want:
                bad += [f"width {width}: mean test_err {float(np.mean(got))!r} != reference {float(want)!r}"] * len(got)
        return bad


WORKLOADS = {w.name: w for w in (Recovery, Flow, Sgd)}

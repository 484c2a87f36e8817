"""Per-layer tracing from outside the program.

A Tracer replaces public functions and methods of the chargeflow modules with
wrappers that record, per span name, the call count, the inclusive time and
the self time (inclusive minus the time of nested traced calls), plus a few
workload counts read from arguments and results. ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from chargeflow import descent, dynamics, harmonic, harness, loss, potentials

# Per-layer metrics: name -> (unit, the workload and end-to-end metric it
# should move). Layers a workload never calls report 0 on that workload.
METRICS = {
    "harmonic.value_calls": ("count", "recovery wall_s (bulk path, init scoring)"),
    "harmonic.value_radii": ("count", "recovery wall_s (bulk path, init scoring)"),
    "harmonic.value_ms": ("ms", "recovery wall_s (bulk path, init scoring)"),
    "harmonic.value_ns_per_radius": ("ns", "recovery wall_s (bulk path, init scoring)"),
    "harmonic.value_and_deriv_calls": ("count", "recovery wall_s (tiny path, descent)"),
    "harmonic.value_and_deriv_ms": ("ms", "recovery wall_s (tiny path, descent)"),
    "harmonic.build_ms": ("ms", "none directly; guards setup_s against work moved into construction"),
    "loss.cross_block_calls": ("count", "recovery wall_s"),
    "loss.cross_block_ms": ("ms", "recovery wall_s"),
    "loss.loss_and_grad_calls": ("count", "recovery wall_s"),
    "loss.loss_and_grad_us": ("us", "recovery wall_s"),
    "loss.loss_calls": ("count", "flow wall_s"),
    "loss.loss_ms": ("ms", "flow wall_s"),
    "loss.hessian_ms": ("ms", "flow wall_s"),
    "descent.init_ms": ("ms", "recovery wall_s"),
    "descent.init_trials_per_s": ("1/s", "recovery wall_s"),
    "descent.second_gd_ms": ("ms", "recovery wall_s"),
    "descent.steps": ("count", "recovery wall_s"),
    "descent.step_us": ("us", "recovery wall_s"),
    "descent.max_iters_nodes": ("count", "recovery wall_s"),
    "descent.min_eigpair_ms": ("ms", "flow wall_s"),
    "descent.stationarity_ms": ("ms", "flow wall_s"),
    "dynamics.velocity_field_calls": ("count", "flow wall_s"),
    "dynamics.velocity_field_ms": ("ms", "flow wall_s"),
    "dynamics.step_ms": ("ms", "flow wall_s"),
    "potentials.grad_theta_calls": ("count", "flow wall_s"),
    "potentials.grad_theta_ms": ("ms", "flow wall_s"),
    "harness.sgd_iter_us": ("us", "sgd wall_s"),
    "harness.sgd_data_ms": ("ms", "sgd wall_s"),
    "harness.match_ms": ("ms", "recovery wall_s"),
    "trace_overhead_frac": ("fraction", "none; must stay small"),
}

# (owner, attribute, span name). Module functions are replaced in every
# chargeflow module that holds them, so calls through a `from .x import f`
# binding are traced too.
TARGETS = [
    (harmonic.TabulatedPotential, "value", "harmonic.value"),
    (harmonic.TabulatedPotential, "value_and_deriv", "harmonic.value_and_deriv"),
    (loss.Objective, "cross_block", "loss.cross_block"),
    (loss.Objective, "loss_and_grad", "loss.loss_and_grad"),
    (loss.Objective, "loss", "loss.loss"),
    (loss.VectorObjective, "hess", "loss.hessian"),
    (descent, "initialize_node", "descent.init"),
    (descent, "second_gd", "descent.second_gd"),
    (descent, "min_eigpair", "descent.min_eigpair"),
    (descent, "stationarity_check", "descent.stationarity"),
    (dynamics, "velocity_field", "dynamics.velocity_field"),
    (dynamics, "step", "dynamics.step"),
    (potentials.Potential, "grad_theta", "potentials.grad_theta"),
    (harness, "sgd_train", "harness.sgd_train"),
    (harness, "match_to_target", "harness.match"),
]


class Tracer:
    def __init__(self):
        self.calls = {}  # span name -> [count, inclusive s, self s]
        self.counts = {"harmonic.value_radii": 0, "init_trials": 0, "descent.steps": 0,
                       "descent.max_iters_nodes": 0, "sgd_loop_s": 0.0}
        self.sgd_iter_us = []
        self._stack = []  # child time accumulated per open span
        self._patched = []

    def reset(self):
        self.calls = {}
        self.counts = dict.fromkeys(self.counts, 0)
        self.sgd_iter_us = []

    # -- installation --------------------------------------------------------

    def install(self):
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in [m for k, m in sys.modules.items() if k == "chargeflow" or k.startswith("chargeflow.")]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = self.calls.get(name)
                if rec is None:
                    rec = self.calls[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- counts read at the boundaries ----------------------------------------

    def _observe_harmonic_value(self, args, result):
        self.counts["harmonic.value_radii"] += int(np.size(args[1]))

    def _observe_descent_init(self, args, result):
        self.counts["init_trials"] += getattr(args[1], "trials", 1)

    def _observe_descent_second_gd(self, args, result):
        self.counts["descent.steps"] += result.iterations
        self.counts["descent.max_iters_nodes"] += result.termination == "max_iters"

    def _observe_harness_sgd_train(self, args, result):
        iters = args[0].resolved().iters
        self.counts["sgd_loop_s"] += result.wall_ms / 1e3
        self.sgd_iter_us.append(result.wall_ms * 1e3 / iters)

    # -- metrics ---------------------------------------------------------------

    def _count(self, name):
        return self.calls.get(name, (0, 0.0, 0.0))[0]

    def _ms(self, name):
        return self.calls.get(name, (0, 0.0, 0.0))[1] * 1e3

    def _per(self, total, n):
        return total / n if n else 0.0

    def metrics(self):
        """Per-layer metric values of everything recorded since the last
        reset; trace_overhead_frac is filled in by the caller."""
        c = self.counts
        radii = c["harmonic.value_radii"]
        init_s = self._ms("descent.init") / 1e3
        steps = c["descent.steps"]
        return {
            "harmonic.value_calls": self._count("harmonic.value"),
            "harmonic.value_radii": radii,
            "harmonic.value_ms": self._ms("harmonic.value"),
            "harmonic.value_ns_per_radius": self._per(self._ms("harmonic.value") * 1e6, radii),
            "harmonic.value_and_deriv_calls": self._count("harmonic.value_and_deriv"),
            "harmonic.value_and_deriv_ms": self._ms("harmonic.value_and_deriv"),
            "loss.cross_block_calls": self._count("loss.cross_block"),
            "loss.cross_block_ms": self._ms("loss.cross_block"),
            "loss.loss_and_grad_calls": self._count("loss.loss_and_grad"),
            "loss.loss_and_grad_us": self._per(self._ms("loss.loss_and_grad") * 1e3, self._count("loss.loss_and_grad")),
            "loss.loss_calls": self._count("loss.loss"),
            "loss.loss_ms": self._ms("loss.loss"),
            "loss.hessian_ms": self._ms("loss.hessian"),
            "descent.init_ms": init_s * 1e3,
            "descent.init_trials_per_s": self._per(c["init_trials"], init_s),
            "descent.second_gd_ms": self._ms("descent.second_gd"),
            "descent.steps": steps,
            "descent.step_us": self._per(self._ms("descent.second_gd") * 1e3, steps),
            "descent.max_iters_nodes": c["descent.max_iters_nodes"],
            "descent.min_eigpair_ms": self._ms("descent.min_eigpair"),
            "descent.stationarity_ms": self._ms("descent.stationarity"),
            "dynamics.velocity_field_calls": self._count("dynamics.velocity_field"),
            "dynamics.velocity_field_ms": self._ms("dynamics.velocity_field"),
            "dynamics.step_ms": self._per(self._ms("dynamics.step"), self._count("dynamics.step")),
            "potentials.grad_theta_calls": self._count("potentials.grad_theta"),
            "potentials.grad_theta_ms": self._ms("potentials.grad_theta"),
            "harness.sgd_iter_us": float(np.median(self.sgd_iter_us)) if self.sgd_iter_us else 0.0,
            "harness.sgd_data_ms": self._ms("harness.sgd_train") - c["sgd_loop_s"] * 1e3,
            "harness.match_ms": self._ms("harness.match"),
        }

    def table(self):
        """Human-readable span table: calls, inclusive and self milliseconds."""
        lines = [f"{'span':28s} {'calls':>9s} {'incl_ms':>11s} {'self_ms':>11s}"]
        for name, (n, incl, own) in sorted(self.calls.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:28s} {n:9d} {incl * 1e3:11.1f} {own * 1e3:11.1f}")
        return "\n".join(lines)

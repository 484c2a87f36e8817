"""Command-line front end.

Subcommands: table (depth x width error grid -> CSV), recovery (node-wise
recovery report -> JSON lines), dynamics (trajectory export -> JSON lines),
verify (landscape check suite -> JSON lines, nonzero exit on unexpected
failure), potential-info (kernel properties).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import dynamics as dyn
from . import harness, landscape
from .errors import ChargeflowError
from .loss import Hypothesis, Objective, TargetNetwork
from .potentials import SPHERE, min_separation, parse_potential

USAGE_EXIT = 2
FAILURE_EXIT = 1


# The ExperimentConfig keys each subcommand exposes, as --key-name flags
# converted by the key's annotation; each subcommand also takes --config,
# --out and --seeds.
_KEYS = {
    "table": ("depths", "widths", "d", "n_train", "n_test", "iters", "alpha", "batch", "full_scale"),
    "recovery": (
        "k", "potential", "separation", "trials", "radius_mult",
        "descent_T", "descent_alpha", "descent_eta", "descent_gamma", "trace_stride",
    ),
    "dynamics": ("potential", "k", "d", "dt", "steps", "stride", "scheme"),
}
_COMMON_KEYS = ("out", "seeds")
_COMMAND_HELP = {
    "table": "depth/width training-error grid",
    "recovery": "node-wise recovery experiment",
    "dynamics": "integrate particle motion, export trajectory",
}
_FLAG_HELP = {
    "out": "output path",
    "seeds": "seed list 'a,b,c', or a bare count N for seeds 0..N-1",
}
_CHOICES = {"scheme": ("euler", "rk4")}


def _converter(key):
    """Flag converter for an ExperimentConfig key, named after its type so
    that argparse reports e.g. "invalid int value"."""
    convert = functools.partial(harness.coerce, key)
    convert.__name__ = harness.KEY_TYPES[key].__name__
    return convert


def _build_parser():
    parser = argparse.ArgumentParser(prog="chargeflow")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for command, keys in _KEYS.items():
        p = subs[command] = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", help="key = value file; flags override it")
        for key in _COMMON_KEYS + keys:
            flag = "--" + key.replace("_", "-")
            if harness.KEY_TYPES[key] is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(
                    flag, dest=key, type=_converter(key), choices=_CHOICES.get(key),
                    help=_FLAG_HELP.get(key),
                )
    subs["table"].add_argument("--workers", type=int, default=1)
    subs["dynamics"].add_argument("--seed", type=int, help="single seed for the random configuration")

    v = sub.add_parser("verify", help="run landscape checks")
    v.add_argument("--out", help=_FLAG_HELP["out"])
    v.add_argument("--seed", type=int, default=0, help="seed of the check suite")
    v.add_argument("--check", default="all", choices=("all", *_CHECK_PREFIX))

    i = sub.add_parser("potential-info", help="describe a kernel id")
    i.add_argument("--potential", required=True)
    return parser


def _config(args):
    file_values = harness.parse_config_file(args.config) if args.config else {}
    file_values.pop("experiment", None)
    flags = {key: getattr(args, key) for key in _COMMON_KEYS + _KEYS[args.command]}
    return harness.config_from(file_values, flags)


def cmd_table(args):
    cfg = _config(args)
    rows = harness.run_table(cfg, workers=args.workers)
    text = harness.rows_to_csv(rows)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        sys.stdout.write(text)
    by_depth = {}
    for row in rows:
        by_depth.setdefault(row.depth, []).append(row.test_err)
    # stderr, so that the CSV on stdout stays parseable
    for depth in sorted(by_depth):
        print(f"depth {depth}: mean test error {np.mean(by_depth[depth]):.5f}", file=sys.stderr)
    return 0


def cmd_recovery(args):
    cfg = _config(args)
    report = harness.recovery_experiment(cfg)
    if cfg.out:
        harness.write_jsonl(report["records"], cfg.out)
        print(f"wrote {len(report['records'])} records to {cfg.out}")
    print(
        f"recovered {report['recovered_count']}/{len(cfg.seeds)} seeds "
        f"(k={cfg.k}, potential={cfg.potential})"
    )
    return 0


def cmd_dynamics(args):
    if args.seed is not None:
        args.seeds = (args.seed,)
    cfg = _config(args)
    pot = parse_potential(cfg.potential)
    d = getattr(pot, "d", None) or cfg.d
    seed = cfg.seeds[0]
    rng = np.random.default_rng(seed)
    pts = pot.retract(rng.standard_normal((2 * cfg.k, d)))
    target = TargetNetwork(w=pts[cfg.k :], b=rng.uniform(-1.0, 1.0, cfg.k))
    hyp = Hypothesis(theta=pts[: cfg.k], a=rng.uniform(-1.0, 1.0, cfg.k))
    obj = Objective(pot, target)
    system = dyn.system_from_objective(obj, hyp)
    _, records = dyn.run_trajectory(
        system, cfg.steps, cfg.dt, scheme=cfg.scheme, stride=cfg.stride,
        objective=obj, hypothesis_k=cfg.k,
    )
    if cfg.out:
        harness.write_jsonl(records, cfg.out)
        print(f"wrote {len(records)} records to {cfg.out}")
    else:
        for rec in records:
            print(rec["t"], rec.get("loss"))
    return 0


def _verify_verdicts(seed=0):
    rng = np.random.default_rng(seed)
    verdicts = []

    def separated(k, d, scale=3.0, min_sep=1.0):
        while True:
            pts = rng.standard_normal((2 * k, d)) * scale
            if min_separation(pts) >= min_sep:
                return pts[:k], pts[k:]

    from .potentials import CoulombPotential, GaussianPotential, LogPotential

    # harmonic kernels: Coulomb with three charges in 3-D, log with two in 2-D
    for pot, n in ((CoulombPotential(3), 3), (LogPotential(), 2)):
        for trial in range(5):
            theta, w = separated(n, n)
            target = TargetNetwork(w=w, b=rng.uniform(-1, 1, n))
            hyp = Hypothesis(theta=theta, a=rng.uniform(-1, 1, n))
            verdicts.append(landscape.earnshaw_trace_check(pot, target, hyp, 0))
    # control: the non-harmonic kernel must fail the trace test
    target = TargetNetwork(w=np.array([[2.0, 0.0, 0.0]]), b=[1.0])
    hyp = Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])
    verdicts.append(landscape.earnshaw_trace_check(GaussianPotential(1.0), target, hyp, 0, tol=1e-2))

    for trial in range(5):
        theta, w = separated(3, 3)
        target = TargetNetwork(w=w, b=rng.uniform(-1, 1, 3))
        verdicts.append(landscape.eigstrict_laplacian_check(1.0, target, theta))

    thresh = landscape.subharmonic_sign_check(1.0, 3, np.sqrt(3.0))
    below = landscape.subharmonic_sign_check(1.0, 3, 1.0)
    above = landscape.subharmonic_sign_check(1.0, 3, 2.0)
    verdicts.append(
        landscape.LandscapeVerdict(
            check="subharmonic-threshold",
            digest="static",
            measured={"at_threshold": thresh, "below": below, "above": above},
            passed=bool(abs(thresh) < 1e-12 and below < 0 and above > 0),
            tol=1e-12,
        )
    )

    for trial in range(5):
        k = 3
        angles = rng.uniform(0, 2 * np.pi, k)
        w2 = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = TargetNetwork(w=w2, b=rng.uniform(-1, 1, k))
        res = landscape.sign_circle_scan(target, 2048)
        verdicts.append(
            landscape.LandscapeVerdict(
                check="sign-circle-scan",
                digest=landscape._digest(w=w2, b=target.b),
                measured={"n_minima": int(len(res.minima))},
                passed=res.all_matched,
                tol=res.resolution,
            )
        )

    theta = np.zeros(4)
    theta[:2] = 1.0 / np.sqrt(2.0)
    verdicts.append(landscape.poly_orthonormal_check(3, theta, np.ones(4)))
    return verdicts


_CHECK_PREFIX = {
    "earnshaw": "earnshaw-trace",
    "eigstrict": "eigstrict-laplacian",
    "subharmonic": "subharmonic-threshold",
    "sign-scan": "sign-circle-scan",
    "poly": "poly-orthonormal",
}


def cmd_verify(args):
    verdicts = _verify_verdicts(seed=args.seed)
    if args.check != "all":
        verdicts = [v for v in verdicts if v.check == _CHECK_PREFIX[args.check]]
    if args.out:
        harness.write_jsonl([v.record() for v in verdicts], args.out)
    failures = sum(not v.ok for v in verdicts)
    for v in verdicts:
        status = "PASS" if v.passed else ("EXPECTED-FAIL" if v.expected_fail else "FAIL")
        print(f"{status:14s} {v.check} {v.note}")
    print(f"{len(verdicts)} checks, {failures} unexpected failures")
    return FAILURE_EXIT if failures else 0


def cmd_potential_info(args):
    pot = parse_potential(args.potential)
    print(f"id: {args.potential}")
    print(f"name: {pot.name}")
    print(f"manifold: {pot.manifold}")
    print(f"finite diagonal: {pot.finite_diagonal}")
    if pot.manifold == SPHERE:
        probes = {f"rho={rho:+.1f}": rho for rho in (1.0, 0.5, 0.0, -0.5)}
    else:
        probes = {f"r={r}": r for r in (0.5, 1.0, 2.0, 5.0)}
    for label, s in probes.items():
        print(f"  phi({label}) = {float(pot.phi(s)):.6f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    handlers = {
        "table": cmd_table,
        "recovery": cmd_recovery,
        "dynamics": cmd_dynamics,
        "verify": cmd_verify,
        "potential-info": cmd_potential_info,
    }
    try:
        return handlers[args.command](args)
    except (ChargeflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())

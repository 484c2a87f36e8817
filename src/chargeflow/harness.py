"""Experiment drivers: synthetic teacher-student training, node-wise recovery
runs, and their file outputs.

All randomness flows from explicit seeds through per-cell generators, so a
config file plus seed list pins every number in the outputs (wall-clock
columns excepted).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from .descent import DescentConfig, RandomBallInit, node_wise_descent, one_blas_thread
from .errors import DimensionMismatch, DivergedLoss, NonFiniteSample
from .loss import Objective, TargetNetwork
from .potentials import min_separation, pair_distances, parse_potential

SCHEMA_VERSION = 1

CSV_COLUMNS = ("depth", "width", "seed", "train_err", "test_err", "wall_ms")

SGD_BLOCK = 1024  # SGD steps per minibatch draw and per finiteness check


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the grid / recovery / dynamics experiments.

    Desk-scale defaults; the full-scale iteration count sits behind
    ``full_scale``.
    """

    experiment: str = "table"
    d: int = 10
    depths: tuple = (2, 3, 5)
    widths: tuple = (5, 10, 20, 40)
    seeds: tuple = (0, 1, 2)
    n_train: int = 10_000
    n_test: int = 10_000
    iters: int = 200_000
    alpha: float = 0.2
    batch: int = 32
    full_scale: bool = False  # long-run settings: iters = 1e6, alpha = 1e-5
    # recovery knobs
    k: int = 2
    potential: str = "almost:eps=0.1,lambda=1,d=3"
    separation: float = 10.0
    trials: int = 3_000_000
    radius_mult: float = 1.2
    descent_T: int = 30_000
    descent_alpha: float = 1e-5
    descent_eta: float = 1e-7
    descent_gamma: float = 1e-2
    trace_stride: int = 1000
    # dynamics knobs
    dt: float = 1e-3
    steps: int = 1000
    stride: int = 10
    scheme: str = "rk4"
    # outputs
    out: str = ""

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1 or self.iters < 0 or self.batch < 1:
            raise ValueError("counts must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.k < 1 or self.d < 1:
            raise ValueError(f"need k >= 1 and d >= 1, got k={self.k}, d={self.d}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be >= 1, got {self.widths}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    def resolved(self):
        if self.full_scale:
            return replace(self, iters=1_000_000, alpha=1e-5, full_scale=False)
        return self


@dataclass(frozen=True)
class ResultRow:
    depth: int
    width: int
    seed: int
    train_err: float
    test_err: float
    wall_ms: float


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayeredNetwork:
    """Fully-connected tanh network; tanh is applied at every node including
    the scalar output."""

    weights: tuple

    def forward(self, x):
        h = x
        for w in self.weights:
            h = np.tanh(h @ w.T)
        return h[:, 0]


def generate_target(d, depth, width, seed):
    """Deterministic grid-experiment teacher: ``depth`` layers of
    standard-Gaussian weights, tanh at every node."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    rng = np.random.default_rng(seed)
    dims = [d] + [width] * (depth - 1) + [1]
    weights = tuple(rng.standard_normal((dims[i + 1], dims[i])) for i in range(depth))
    return LayeredNetwork(weights=weights)


def generate_separated_target(d, k, seed, separation):
    """Depth-2 recovery target: k hidden rows ~ N(0, separation^2 I) and
    outer weights uniform in [-1, 1], resampled until the hidden vectors are
    pairwise at least ``separation`` apart. Raises ValueError when 100 000
    draws all fall short."""
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        w = rng.standard_normal((k, d)) * separation
        b = rng.uniform(-1.0, 1.0, k)
        if min_separation(w) >= separation:
            return TargetNetwork(w=w, b=b)
    raise ValueError(
        f"100000 draws of {k} hidden vectors in d={d} all fell short of separation {separation:g}"
    )


# ---------------------------------------------------------------------------
# empirical teacher-student training
# ---------------------------------------------------------------------------


@one_blas_thread()
def sgd_train(config: ExperimentConfig, target: LayeredNetwork, depth, width, seed):
    """Minibatch SGD on the empirical squared loss of a same-architecture
    student; returns a ResultRow with train/test errors on the sampled sets."""
    cfg = config.resolved()
    # data/student stream independent of the target stream for the same seed
    rng = np.random.default_rng([seed, 1])
    xs = rng.standard_normal((cfg.n_train, cfg.d))
    ys = target.forward(xs)
    xt = rng.standard_normal((cfg.n_test, cfg.d))
    yt = target.forward(xt)
    dims = [cfg.d] + [width] * (depth - 1) + [1]
    student = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(depth)]
    # numpy dispatch bounds the loop, so each block of SGD_BLOCK steps draws
    # its minibatch rows in one call (the stream of one draw per step) and
    # checks finiteness once; the weights change in place, so the transposed
    # views stay current
    wts = [w.T for w in student]
    ycol = ys[:, None]
    alpha, scale = cfg.alpha, 2.0 / cfg.batch
    t0 = time.perf_counter()
    done = 0
    while done < cfg.iters:
        nb = min(SGD_BLOCK, cfg.iters - done)
        for idx in rng.integers(0, cfg.n_train, (nb, cfg.batch)):
            h = xs.take(idx, axis=0)
            hs = [h]
            for wt in wts:
                h = np.tanh(h @ wt)
                hs.append(h)
            delta = (scale * (h - ycol.take(idx, axis=0))) * (1.0 - h * h)
            for li in range(depth - 1, -1, -1):
                w = student[li]
                g = delta.T @ hs[li]
                if li > 0:
                    h = hs[li]
                    delta = (delta @ w) * (1.0 - h * h)
                g *= alpha
                w -= g
        done += nb
        if not all(np.isfinite(w).all() for w in student):
            raise DivergedLoss(f"non-finite weights at depth={depth} width={width} seed={seed}")
    wall_ms = (time.perf_counter() - t0) * 1e3
    trained = LayeredNetwork(weights=tuple(student))
    train_err = float(np.mean((trained.forward(xs) - ys) ** 2))
    test_err = float(np.mean((trained.forward(xt) - yt) ** 2))
    if not (np.isfinite(train_err) and np.isfinite(test_err)):
        raise DivergedLoss("non-finite final error")
    return ResultRow(depth=depth, width=width, seed=seed, train_err=train_err, test_err=test_err, wall_ms=wall_ms)


def _run_cell(args):
    config, depth, width, seed = args
    target = generate_target(config.d, depth, width, seed)
    return sgd_train(config, target, depth, width, seed)


def run_table(config: ExperimentConfig, workers=1):
    """Depth x width x seed grid in deterministic order; cells may run in
    parallel (per-cell generators make results independent of scheduling)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = [
        (config, depth, width, seed)
        for depth, width, seed in itertools.product(config.depths, config.widths, config.seeds)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(c) for c in cells]
    return rows


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [r.depth, r.width, r.seed, f"{r.train_err:.10g}", f"{r.test_err:.10g}", f"{r.wall_ms:.3f}"]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# node-wise recovery on the population loss
# ---------------------------------------------------------------------------


def min_cost_assignment(cost):
    """Exact minimum-cost perfect matching of a square cost matrix: row i
    goes to column perm[i]. Shortest augmenting paths with dual potentials
    (Kuhn-Munkres in the Jonker-Volgenant form), one path per row, O(k^3).

    A non-square matrix raises DimensionMismatch and a non-finite entry
    NonFiniteSample: with either the path search need not end on an
    optimum, or at all."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise DimensionMismatch(f"need a square cost matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NonFiniteSample("cost matrix has non-finite entries")
    k = cost.shape[0]
    # column 0 is a virtual column that holds the row being inserted;
    # owner[j] is the row (1-based, 0 for none) that column j holds
    u = np.zeros(k + 1)
    v = np.zeros(k + 1)
    owner = np.zeros(k + 1, dtype=int)
    for i in range(1, k + 1):
        owner[0] = i
        j0 = 0
        slack = np.full(k + 1, np.inf)  # reduced cost of the best path to each column
        prev = np.zeros(k + 1, dtype=int)  # the column before it on that path
        used = np.zeros(k + 1, dtype=bool)
        while owner[j0] != 0:
            used[j0] = True
            i0 = owner[j0]
            free = ~used
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            prev[1:][better] = j0
            j1 = int(np.argmin(np.where(free, slack, np.inf)))
            delta = slack[j1]
            u[owner[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        # flip the path: each column on it takes the row of the one before
        while j0 != 0:
            j1 = prev[j0]
            owner[j0] = owner[j1]
            j0 = j1
    perm = np.empty(k, dtype=int)
    perm[owner[1:] - 1] = np.arange(k)
    return perm


def match_to_target(theta, a, target: TargetNetwork):
    """Min-total-distance assignment of learned nodes to fixed ones: learned
    node i matches fixed node perm[i]. Returns (perm, max position error,
    max outer-weight error). Nodes of another count or dimension raise
    DimensionMismatch, and a non-finite node NonFiniteSample."""
    theta = np.atleast_2d(theta)
    if theta.shape[1] != target.d:
        raise DimensionMismatch(f"need learned nodes in d={target.d}, got shape {theta.shape}")
    dist = pair_distances(theta, target.w)
    perm = min_cost_assignment(dist)
    max_dist = float(np.max(dist[np.arange(len(perm)), perm]))
    max_charge = float(np.max(np.abs(a + target.b[perm])))
    return perm, max_dist, max_charge


def recovery_experiment(config: ExperimentConfig):
    """Node-wise descent against separated depth-2 targets over the seed list.

    Returns a report dict with one record per seed (matched permutation, max
    position error, max outer-weight error) plus the success count at the 0.1
    tolerance.
    """
    # bad descent or init options fail here, before the kernel tabulation
    # and the first target; the policy at radius radius_mult is the one for
    # a target of unit norm
    base_cfg = DescentConfig(
        T=config.descent_T,
        alpha=config.descent_alpha,
        eta=config.descent_eta,
        gamma=config.descent_gamma,
        alpha_scale="init-charge",
        trace_stride=config.trace_stride,
    )
    RandomBallInit(radius=config.radius_mult, trials=config.trials)
    pot = parse_potential(config.potential)
    d = getattr(pot, "d", 3)
    records = []
    for seed in config.seeds:
        target = generate_separated_target(d, config.k, seed, config.separation)
        obj = Objective(pot, target)
        radius = config.radius_mult * float(np.max(np.linalg.norm(target.w, axis=1)))
        policy = RandomBallInit(radius=radius, trials=config.trials)
        cfg = replace(base_cfg, seed=seed * 1000)
        t0, c0 = time.perf_counter(), time.process_time()
        result = node_wise_descent(obj, policy, cfg)
        perm, max_dist, max_charge = match_to_target(result.theta, result.a, target)
        records.append(
            {
                "schema_version": SCHEMA_VERSION,
                "seed": seed,
                "k": config.k,
                "permutation": perm.tolist(),
                "distinct": len(set(perm.tolist())) == config.k,
                "max_position_err": max_dist,
                "max_charge_err": max_charge,
                "recovered": bool(max_dist < 0.1 and max_charge < 0.1),
                "iterations": [r.iterations for r in result.reports],
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "cpu_ms": (time.process_time() - c0) * 1e3,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "potential": config.potential,
        "k": config.k,
        "seeds": list(config.seeds),
        "records": records,
        "recovered_count": sum(r["recovered"] for r in records),
    }


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# the known keys and their value types are the ExperimentConfig annotations
KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config_file(path):
    """One ``key = value`` per line; blank lines and # comments ignored.
    List-valued keys take comma-separated integers; a key that is not an
    ExperimentConfig field raises ValueError."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = coerce(key, val)
    return out


def parse_seeds(val):
    """Seed specification: a bare integer N means seeds 0..N-1, a
    comma-separated list names them explicitly."""
    text = str(val)
    if "," in text:
        return tuple(int(v) for v in text.split(",") if v.strip())
    return tuple(range(int(text)))


def coerce(key, val):
    """Value of an ExperimentConfig key from its text (a config-file value
    or a command-line flag), converted by the key's annotation."""
    kind = KEY_TYPES[key]
    if key == "seeds":
        return parse_seeds(val)
    if kind is tuple:
        return tuple(int(v) for v in val.split(","))
    if kind is int:
        return int(val)
    if kind is bool:
        if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"{key} must be true/false/yes/no/1/0, got {val!r}")
        return val.lower() in ("1", "true", "yes")
    if kind is str:
        return val
    return float(val)


def config_from(file_values: dict, overrides: dict):
    """Build the experiment config with flags overriding file values;
    ``full_scale`` with an explicit iters or alpha raises ValueError."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if merged.get("full_scale") and ("iters" in merged or "alpha" in merged):
        raise ValueError("full_scale sets iters and alpha; drop the explicit values")
    return ExperimentConfig(**merged)


def write_jsonl(records, path):
    """One JSON object per line. Every record is serialized before the file
    is opened, so a non-finite number (not valid JSON) raises ValueError and
    leaves no file behind."""
    lines = [json.dumps(rec, allow_nan=False) + "\n" for rec in records]
    with open(path, "w") as fh:
        fh.writelines(lines)

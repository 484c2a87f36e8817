"""Descent algorithms: plain gradient steps, negative-curvature steps, their
combination with an early stop, and the sequential node-by-node driver.

All algorithms operate on objectives over a flat coordinate vector with three
methods: ``value_and_grad(x)``, ``hess(x)`` and ``project(x)`` (the
retraction onto the objective's manifold). ``loss.VectorObjective``, its
single-node ``loss.NodeObjective`` and ``FunctionObjective`` implement all
three. Runs are deterministic: the only randomness is the seeded ball
sampling in node initialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ChargeflowError, EigenSolveFailure, InitializationFailed
from .loss import NodeObjective, Objective, fd_hessian
from .potentials import pair_distances


@dataclass(frozen=True)
class DescentConfig:
    T: int = 1000
    alpha: float = 0.1
    eta: float = 1e-3
    gamma: float = 1e-2
    seed: int = 0
    trace_stride: int = 1
    # node-wise driver: "fixed" uses alpha as-is per node; "init-charge"
    # rescales it by the squared initial outer weight (floored at 1e-4), which
    # equalizes the particle drift speed across nodes of different charge
    # magnitude
    alpha_scale: str = "fixed"

    def __post_init__(self):
        if self.T < 1 or self.alpha <= 0 or self.eta <= 0 or self.gamma <= 0:
            raise ValueError("need T >= 1 and positive alpha, eta, gamma")
        if self.trace_stride < 1:
            raise ValueError(f"trace_stride must be >= 1, got {self.trace_stride}")
        if self.alpha_scale not in ("fixed", "init-charge"):
            raise ValueError(f"unknown alpha_scale {self.alpha_scale!r}")

    def min_decrease(self):
        return min(self.alpha * self.eta**2 / 2.0, self.alpha**2 * self.gamma**3 / 2.0)


@dataclass
class IterationRecord:
    iteration: int
    value: float
    grad_norm: float
    lambda_min: float  # nan on gradient-branch iterations
    branch: str  # "grad" | "hessian"
    decrease: float


@dataclass
class DescentReport:
    rows: list = field(default_factory=list)
    termination: str = "max_iters"  # "max_iters" | "early_stop" | "error"
    final_x: np.ndarray | None = None
    final_value: float = float("nan")
    iterations: int = 0
    error: str = ""

    def values(self):
        return np.array([r.value for r in self.rows])

    def to_jsonl(self):
        lines = []
        for r in self.rows:
            row = {"schema_version": 1, **asdict(r)}
            if np.isnan(r.lambda_min):
                row["lambda_min"] = None
            lines.append(json.dumps(row))
        lines.append(
            json.dumps(
                {
                    "schema_version": 1,
                    "termination": self.termination,
                    "iterations": self.iterations,
                    "final_value": self.final_value,
                    "error": self.error,
                }
            )
        )
        return "\n".join(lines)


@dataclass
class StationaritySet:
    """Membership record for the set of eps-approximate second-order
    stationary points: small gradient and nearly-PSD Hessian."""

    point: np.ndarray
    eps: float
    grad_norm: float
    lambda_min: float

    @property
    def grad_ok(self):
        return self.grad_norm <= self.eps

    @property
    def hess_ok(self):
        return self.lambda_min >= -self.eps

    @property
    def member(self):
        return self.grad_ok and self.hess_ok


class FunctionObjective:
    """Wrap plain callables as a Euclidean descent objective; a missing
    Hessian falls back to central differences of the gradient."""

    def __init__(self, f, grad, hess=None):
        self._f = f
        self._grad = lambda x: np.asarray(grad(x), dtype=float)
        self._hess = hess

    def value_and_grad(self, x):
        x = np.asarray(x, dtype=float)
        return float(self._f(x)), self._grad(x)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return np.asarray(self._hess(x), dtype=float)
        return fd_hessian(self._grad, x)

    def project(self, x):
        return x


def min_eigpair(h):
    """Smallest eigenvalue and unit eigenvector of a symmetric matrix (dense
    ``eigh``), typically a Hessian from central differences of the analytic
    gradient. Non-finite entries raise EigenSolveFailure."""
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise EigenSolveFailure("Hessian has non-finite entries")
    vals, vecs = np.linalg.eigh(h)
    return float(vals[0]), vecs[:, 0]


def _descend(objective, x0, cfg: DescentConfig, second_order):
    """The one descent iteration, one ``value_and_grad`` call per iterate.

    Each step is x <- project(x - alpha * grad). With ``second_order`` a
    gradient smaller than eta takes :func:`hessian_descent_step` instead, and
    the run stops at the PREVIOUS iterate as soon as an iteration fails to
    decrease the objective by ``cfg.min_decrease()``. A kernel kink or solver
    failure at a new iterate ends the run at the previous one, recorded on
    the report instead of propagating."""
    x = np.asarray(x0, dtype=float).copy()
    report = DescentReport()
    value, g = objective.value_and_grad(x)
    threshold = cfg.min_decrease()
    for it in range(1, cfg.T + 1):
        gnorm = float(np.linalg.norm(g))
        lam_min = float("nan")
        try:
            if not second_order or gnorm >= cfg.eta:
                branch = "grad"
                x_new = x - cfg.alpha * g
            else:
                branch = "hessian"
                x_new, lam_min = hessian_descent_step(objective, x, g, cfg)
            x_new = objective.project(x_new)
            new_value, g_new = objective.value_and_grad(x_new)
        except ChargeflowError as exc:
            report.termination = "error"
            report.error = str(exc)
            break
        report.iterations = it
        stop = second_order and new_value >= value - threshold
        if it % cfg.trace_stride == 0 or stop or it == cfg.T:
            report.rows.append(
                IterationRecord(
                    iteration=it,
                    value=new_value,
                    grad_norm=gnorm,
                    lambda_min=lam_min,
                    branch=branch,
                    decrease=value - new_value,
                )
            )
        if stop:
            report.termination = "early_stop"
            break
        x, value, g = x_new, new_value, g_new
    report.final_x = x
    report.final_value = value
    return report


def gd(objective, x0, cfg: DescentConfig):
    """Plain gradient descent: T steps of x <- project(x - alpha * grad)."""
    return _descend(objective, x0, cfg, second_order=False)


def hessian_descent_step(objective, x, g, cfg: DescentConfig):
    """One negative-curvature step from x, whose gradient g the caller
    holds: x + beta v_min with |beta| = alpha |lambda_min| and the sign
    chosen so beta * (g . v_min) <= 0 (sign(0) := +1), the choice the
    decrease guarantee rests on.

    Returns (new point, lambda_min)."""
    x = np.asarray(x, dtype=float)
    lam_min, v_min = min_eigpair(objective.hess(x))
    s = float(np.sign(g @ v_min))
    if s == 0.0:
        s = 1.0
    beta = -cfg.alpha * abs(lam_min) * s
    return x + beta * v_min, lam_min


def second_gd(objective, x0, cfg: DescentConfig):
    """Gradient steps while the gradient is large, one negative-curvature step
    otherwise; stop and return the PREVIOUS iterate as soon as an iteration
    fails to decrease the objective by min(alpha eta^2/2, alpha^2 gamma^3/2)."""
    return _descend(objective, x0, cfg, second_order=True)


def stationarity_check(objective, x, eps):
    """Measure both membership conditions of the eps-stationary set."""
    x = np.asarray(x, dtype=float)
    _, g = objective.value_and_grad(x)
    lam_min, _ = min_eigpair(objective.hess(x))
    return StationaritySet(
        point=x, eps=eps, grad_norm=float(np.linalg.norm(g)), lambda_min=lam_min
    )


# ---------------------------------------------------------------------------
# node-wise driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OriginInit:
    """Place the node at the origin with its optimal outer weight."""


@dataclass(frozen=True)
class RandomBallInit:
    """Best of ``trials`` uniform samples from the radius-``radius`` ball,
    each scored by the loss change of its optimal outer weight."""

    radius: float
    trials: int = 200

    def __post_init__(self):
        if self.trials < 1 or not self.radius > 0:
            raise ValueError(
                f"need trials >= 1 and radius > 0, got trials={self.trials}, radius={self.radius}"
            )


_TRIAL_CHUNK = 1 << 19


def _best_trial(obj: Objective, rng, radius, m):
    """Score m uniform samples from the radius ball by their optimal outer
    weight; returns (a, theta, change) of the best. Only the copied best point
    outlives the call, so one chunk's arrays are freed before the next."""
    d = obj.target.d
    direction = rng.standard_normal((m, d))
    # row norms as distances to the origin: the kernel blocks' per-coordinate sum
    direction /= pair_distances(direction, np.zeros((1, d)))
    radii = radius * rng.uniform(size=m) ** (1.0 / d)
    pts = direction * radii[:, None]
    a, changes = obj.optimal_outer_weight(pts)
    idx = int(np.argmin(changes))
    return a[idx], pts[idx].copy(), float(changes[idx])


def initialize_node(obj: Objective, policy, seed=0):
    """Initialize one mobile node on the (restricted) objective.

    Returns (a, theta, loss_change) where loss_change is the signed change
    against a = 0 (negative when the initialization strictly improves).
    Raises InitializationFailed when no strict improvement is found.
    """
    d = obj.target.d
    if isinstance(policy, OriginInit):
        theta = np.zeros(d)
        a, change = obj.optimal_outer_weight(theta)
    elif isinstance(policy, RandomBallInit):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        best = (None, None, np.inf)
        for start in range(0, policy.trials, _TRIAL_CHUNK):
            m = min(policy.trials - start, _TRIAL_CHUNK)
            trial = _best_trial(obj, rng, policy.radius, m)
            if trial[2] < best[2]:
                best = trial
        a, theta, change = best
    else:
        raise ValueError(f"unknown initialization policy {policy!r}")
    if change >= 0.0:
        raise InitializationFailed(
            f"no strict decrease achievable (best change {change:g})"
        )
    return a, theta, change


@dataclass
class NodeWiseResult:
    a: np.ndarray
    theta: np.ndarray
    reports: list
    init_changes: list


def node_wise_descent(obj: Objective, policy, cfg: DescentConfig):
    """Learn nodes sequentially: initialize node i, run the combined descent
    on its restricted objective with nodes < i frozen at their learned values
    (acting as additional fixed charges) and nodes > i silent at a = 0.

    Each node finishes with the closed-form re-optimization of its outer
    weight at the learned position (a strict decrease of the quadratic; the
    position converges faster than the jointly descended weight). Sphere
    kernels raise DimensionMismatch before any trial is scored."""
    learned_a: list[float] = []
    learned_theta: list[np.ndarray] = []
    reports = []
    changes = []
    for i in range(obj.target.k):
        sub = obj.restricted(np.array(learned_theta), np.array(learned_a))
        node = NodeObjective(sub)
        a0, th0, change = initialize_node(sub, policy, seed=cfg.seed + i)
        node_cfg = cfg
        if cfg.alpha_scale == "init-charge":
            scale = max(a0 * a0, 1e-4)
            node_cfg = replace(cfg, alpha=min(1.0, cfg.alpha / scale), alpha_scale="fixed")
        rep = second_gd(node, np.concatenate([[a0], th0]), node_cfg)
        theta = rep.final_x[1:]
        a_final, _ = sub.optimal_outer_weight(theta)
        learned_a.append(float(a_final))
        learned_theta.append(theta)
        reports.append(rep)
        changes.append(change)
    return NodeWiseResult(
        a=np.array(learned_a),
        theta=np.array(learned_theta),
        reports=reports,
        init_changes=changes,
    )

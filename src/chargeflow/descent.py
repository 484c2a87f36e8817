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
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ChargeflowError, DivergedLoss, EigenSolveFailure, InitializationFailed
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
        if self.T < 1 or not all(0 < x < np.inf for x in (self.alpha, self.eta, self.gamma)):
            raise ValueError(
                f"need T >= 1 and positive, finite alpha, eta, gamma; got T={self.T}, "
                f"alpha={self.alpha}, eta={self.eta}, gamma={self.gamma}"
            )
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
    the report instead of propagating, and so does a non-finite value or
    gradient there (as DivergedLoss)."""
    x = np.asarray(x0, dtype=float).copy()
    report = DescentReport()
    value, g = objective.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    threshold = cfg.min_decrease()
    for it in range(1, cfg.T + 1):
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
            gnorm_new = float(np.linalg.norm(g_new))
            # NaN passes every decrease test, so it would pass as progress
            if not (math.isfinite(new_value) and math.isfinite(gnorm_new)):
                raise DivergedLoss(
                    f"non-finite value {new_value} or gradient norm {gnorm_new} at iteration {it}"
                )
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
        x, value, g, gnorm = x_new, new_value, g_new, gnorm_new
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
    return StationaritySet(eps=eps, grad_norm=float(np.linalg.norm(g)), lambda_min=lam_min)


# ---------------------------------------------------------------------------
# node-wise driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomBallInit:
    """Best of ``trials`` uniform samples from the radius-``radius`` ball,
    each scored by the loss change of its optimal outer weight.

    Scoring is pruned exactly: for a kernel certified non-negative and
    non-increasing in the separation (``Potential.radially_nonincreasing``)
    only the samples that can still beat the best score so far are scored,
    and the winner keeps the bits of scoring every sample. Any other kernel
    scores every sample."""

    radius: float
    trials: int = 200

    def __post_init__(self):
        if self.trials < 1 or not 0 < self.radius < np.inf:
            raise ValueError(
                f"need trials >= 1 and radius > 0 and finite, got trials={self.trials}, "
                f"radius={self.radius}"
            )


_TRIAL_CHUNK = 1 << 19
# samples of a node's first chunk scored before pruning, to set its threshold
_PREFIX = 4096
# relative margin of every pruning comparison, far above the rounding of |S|
_SLACK = 1e-9
# candidate pruning radii, as fractions of the farthest reachable separation
_RADIUS_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 4096)])


def _ball_points(z, u, radius):
    """Ball samples from normals z (m, d) and uniforms u (m,): direction
    z / |z| at radius ``radius * u^(1/d)``, computed row by row, so a subset
    of rows gives the same bits as the whole chunk."""
    d = z.shape[1]
    # row norms as distances to the origin: the kernel blocks' per-coordinate sum
    direction = z / pair_distances(z, np.zeros((1, d)))
    return direction * (radius * u ** (1.0 / d))[:, None]


def _prune_radius(obj: Objective, t, reach):
    """A separation R with sum_j |b_j| phi(R) <= t (1 - slack), read off one
    ``phi`` call on a grid up to ``reach``; inf when there is none or the
    kernel is not certified non-increasing. Then no sample farther than R
    from every fixed point scores |S| >= t (1 - slack)."""
    pot = obj.potential
    if not pot.radially_nonincreasing:
        return np.inf
    grid = reach * _RADIUS_GRID
    ok = np.abs(obj.target.b).sum() * np.asarray(pot.phi(grid)) <= t * (1.0 - _SLACK)
    return float(grid[np.argmax(ok)]) if ok.any() else np.inf


def _may_beat(obj: Objective, z, u, radius, t):
    """Keep mask over the raw draws: the rows whose ball point may lie
    within the pruning radius R of some fixed point w_j, by two tests that
    need no pow or sqrt per row, each widened by the relative slack:
    |theta| within R of |w_j| (a shell in u), and, when R < |w_j|, the
    direction of z within the cone around w_j that the ball B(w_j, R)
    subtends. Every row scoring |S| >= t (1 - slack) is kept."""
    m, d = z.shape
    w = obj.target.w
    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    big_r = _prune_radius(obj, t, radius + float(norms.max())) * (1.0 + _SLACK)
    if big_r == np.inf:
        return np.ones(m, dtype=bool)
    keep = np.zeros(m, dtype=bool)
    for wj, n in zip(w, norms):
        lo = (max(n - big_r, 0.0) / radius) ** d * (1.0 - _SLACK)
        hi = ((n + big_r) / radius) ** d * (1.0 + _SLACK)
        rows = np.flatnonzero((u >= lo) & (u <= hi))
        if big_r < n:
            zr = z[rows]
            zw = zr @ wj
            # cos^2 of the angle to w_j at least 1 - (R / |w_j|)^2
            cut = (n - big_r) * (n + big_r) * (1.0 - _SLACK)
            rows = rows[(zw > 0.0) & (zw * zw >= np.einsum("ij,ij->i", zr, zr) * cut)]
        keep[rows] = True
    return keep


def _best_trial(obj: Objective, rng, radius, m, top):
    """Score m uniform samples from the radius ball by their optimal outer
    weight; returns (a, theta, change, |S|) of the best. ``top`` is the
    pruning threshold, the largest |S| scored so far; None scores the
    chunk's first rows to set it.

    Only the kept rows are built and get kernel rows, written at their row
    positions into a zero block whose one matvec gives every kept row the
    bits of the full chunk. A one-row block rounds differently, and so does
    a compact product over the kept rows alone on some OpenBLAS cores
    (Sandybridge, Nehalem), so the zero block stays. A pruned
    row cannot beat a strictly negative change, so the optimum is taken
    over the kept rows only; when none of them decreases the loss the chunk
    cannot win and this returns None. Only the copied best point outlives
    the call, so one chunk's arrays are freed before the next."""
    z = rng.standard_normal((m, obj.target.d))
    u = rng.uniform(size=m)
    b = obj.target.b
    head = 0
    if top is None:
        head = min(m, _PREFIX)
        top = float(np.max(np.abs(obj.cross_block(_ball_points(z[:head], u[:head], radius)) @ b)))
    keep = _may_beat(obj, z, u, radius, top)
    keep[:head] = True
    rows = np.flatnonzero(keep)
    pts = _ball_points(z[rows], u[rows], radius)
    block = np.zeros((m, obj.target.k))
    block[rows] = obj.cross_block(pts)
    s = (block @ b)[rows]
    a, changes = obj.outer_optimum(s)
    if not np.any(changes < 0.0):
        return None
    i = int(np.argmin(changes))
    return a[i], pts[i].copy(), float(changes[i]), abs(float(s[i]))


def initialize_node(obj: Objective, policy: RandomBallInit, seed=0):
    """Initialize one mobile node on the (restricted) objective at the best
    of the policy's ball samples, drawn from the Philox stream keyed by
    (seed, 0) in chunks of 2^19 (normals, then uniforms, per chunk).

    Scoring is exact pruning: with a kernel certified non-negative and
    non-increasing in r, |S| <= sum_j |b_j| phi(|theta - w_j|), so a sample
    farther than R from every fixed point, where sum_j |b_j| phi(R) sits
    below the best |S| actually scored so far, cannot win and is not
    scored. The returned (a, theta, change) has the bits of scoring every
    sample.

    Returns (a, theta, loss_change) where loss_change is the signed change
    against a = 0 (negative when the initialization strictly improves).
    Raises InitializationFailed when no strict improvement is found.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    best = (None, None, np.inf)
    top = None
    for start in range(0, policy.trials, _TRIAL_CHUNK):
        m = min(policy.trials - start, _TRIAL_CHUNK)
        trial = _best_trial(obj, rng, policy.radius, m, top)
        if trial is not None and trial[2] < best[2]:
            best, top = trial[:3], trial[3]
    a, theta, change = best
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


def node_wise_descent(obj: Objective, policy: RandomBallInit, cfg: DescentConfig):
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

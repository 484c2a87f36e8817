"""First-order motion of point charges under a pair kernel.

Mobile charges move with velocity equal to minus the kernel-weighted sum of
pairwise interactions; immobile charges pin the landscape. Following the
gradient-descent reading of the force, the field is a velocity, not an
acceleration, so the system is first order and has no momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CollisionSingularity, NonDifferentiablePoint, NonFiniteSample
from .loss import Hypothesis, Objective

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ParticleSystem:
    """Charge configuration: positions (n, d), signed charges (n,), and the
    index set of immobile particles. Steps return new systems; charges never
    change and fixed particles do not move (on the sphere every row is
    rescaled to unit norm after a step)."""

    positions: np.ndarray
    charges: np.ndarray
    fixed: frozenset
    potential: object
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "positions", np.atleast_2d(np.asarray(self.positions, dtype=float))
        )
        object.__setattr__(self, "charges", np.asarray(self.charges, dtype=float).ravel())
        object.__setattr__(self, "fixed", frozenset(int(i) for i in self.fixed))
        if self.positions.shape[0] != self.charges.shape[0]:
            raise ValueError("one charge per particle required")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.charges).all()):
            raise NonFiniteSample("particle positions and charges must be finite")
        self.potential.check_points(self.positions, "particle positions")

    @property
    def n(self):
        return self.positions.shape[0]


def velocity_field(sys: ParticleSystem, positions=None):
    """Velocities of all particles, v_i = -q_i sum_j q_j grad_{x_i} Phi(x_i, x_j)
    (tangent to the sphere for sphere kernels; zero rows for the fixed ones)."""
    pos = sys.positions if positions is None else positions
    pot = sys.potential
    try:
        _, g = pot.pairwise_grad(pos)
    except NonDifferentiablePoint as exc:
        raise CollisionSingularity(f"particles collided: {exc}") from exc
    q = sys.charges
    field = pot.tangent(pos, -q[:, None] * np.einsum("ijd,j->id", g, q))
    field[list(sys.fixed)] = 0.0
    return field


@np.errstate(over="ignore", invalid="ignore")
def step(sys: ParticleSystem, dt, scheme="rk4"):
    """Advance the system by dt with forward Euler or classical RK4; sphere
    positions are retracted to unit norm after the step. Overflow raises
    NonFiniteSample, from the new system's own check, with no warning."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    x = sys.positions
    if scheme == "euler":
        new = x + dt * velocity_field(sys)
    elif scheme == "rk4":
        k1 = velocity_field(sys, x)
        k2 = velocity_field(sys, x + 0.5 * dt * k1)
        k3 = velocity_field(sys, x + 0.5 * dt * k2)
        k4 = velocity_field(sys, x + dt * k3)
        new = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return replace(sys, positions=sys.potential.retract(new), time=sys.time + dt)


def system_from_objective(obj: Objective, hyp: Hypothesis):
    """Particle view of a fit: mobile (theta, a) plus fixed (w, b)."""
    positions = np.vstack([hyp.theta, obj.target.w])
    charges = np.concatenate([hyp.a, obj.target.b])
    fixed = frozenset(range(hyp.k, hyp.k + obj.target.k))
    return ParticleSystem(positions=positions, charges=charges, fixed=fixed, potential=obj.potential)


def run_trajectory(sys: ParticleSystem, steps, dt, scheme="rk4", stride=1, objective=None, hypothesis_k=None):
    """Integrate and yield one record per sampled step.

    Records are JSON-ready dicts {schema_version, step, t, positions[, loss]};
    loss is attached when an objective is supplied (the first ``hypothesis_k``
    particles are read back as the mobile nodes).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    records = []

    def snapshot(idx, state):
        rec = {
            "schema_version": SCHEMA_VERSION,
            "step": idx,
            "t": state.time,
            "positions": state.positions.tolist(),
        }
        if objective is not None:
            k = hypothesis_k if hypothesis_k is not None else state.n - objective.target.k
            hyp = Hypothesis(theta=state.positions[:k], a=state.charges[:k])
            rec["loss"] = objective.loss(hyp)
        records.append(rec)

    snapshot(0, sys)
    state = sys
    for i in range(1, steps + 1):
        state = step(state, dt, scheme)
        if i % stride == 0 or i == steps:
            snapshot(i, state)
    return state, records

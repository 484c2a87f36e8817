"""Population squared loss of a two-layer fit, expanded over the pair kernel.

With the mobile outer weights re-signed, the residual is
sum_i a_i sigma(., theta_i) + sum_j b_j sigma(., w_j) and its expected square
expands into kernel blocks:

    L = sum_ij a_i a_j K(theta_i, theta_j)
      + 2 sum_ij a_i b_j K(theta_i, w_j)
      + sum_ij b_i b_j K(w_i, w_j)

The fixed-fixed block is constant and cached. The charge-regularized form
adds ||a||^2. For kernels with an infinite diagonal (Coulomb, log) the
constant self-energy terms are omitted; those kernels are used only with
frozen charges, where the omission shifts the value by a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonDifferentiablePoint, NonFiniteSample, SingularDiagonal
from .potentials import _COLLISION_GUARD, SPHERE, Potential


@dataclass(frozen=True)
class TargetNetwork:
    """Fixed hidden weights and outer weights (the immobile charges)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.atleast_2d(np.asarray(self.w, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        if self.w.shape[0] != self.b.shape[0] or self.w.shape[0] < 1:
            raise DimensionMismatch("need one outer weight per hidden vector")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise ValueError("target weights must be finite")

    @property
    def k(self):
        return self.w.shape[0]

    @property
    def d(self):
        return self.w.shape[1]


@dataclass(frozen=True)
class Hypothesis:
    """Trainable hidden weights and outer weights (the mobile charges)."""

    theta: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.atleast_2d(np.asarray(self.theta, dtype=float)))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).ravel())
        if self.theta.shape[0] != self.a.shape[0] or self.theta.shape[0] < 1:
            raise DimensionMismatch("need one outer weight per hidden vector")
        if not (np.isfinite(self.theta).all() and np.isfinite(self.a).all()):
            raise NonFiniteSample("hypothesis weights must be finite")

    @property
    def k(self):
        return self.theta.shape[0]

    @property
    def d(self):
        return self.theta.shape[1]


class Objective:
    """Loss evaluator bound to a kernel and a target network.

    ``regularization`` is "none" or "charge" (adds ||a||^2). The fixed-fixed
    kernel block and the coefficient of a_i^2 (the self-energy plus the charge
    penalty) are resolved once at construction.
    """

    def __init__(self, potential: Potential, target: TargetNetwork, regularization="none"):
        if regularization not in ("none", "charge"):
            raise ValueError(f"unknown regularization {regularization!r}")
        self.potential = potential
        self.target = target
        self.regularization = regularization
        potential.check_points(target.w, "target weights")
        # a finite diagonal is normalized to 1; an infinite one is omitted
        self_energy = 1.0 if potential.finite_diagonal else 0.0
        self._quad = self_energy + (1.0 if regularization == "charge" else 0.0)
        self._bb_const = float(
            target.b @ potential.pairwise(target.w) @ target.b
            + self_energy * float(target.b @ target.b)
        )

    # -- basic blocks --------------------------------------------------------

    def _check(self, hyp: Hypothesis):
        if hyp.d != self.target.d:
            raise DimensionMismatch(f"hypothesis d={hyp.d}, target d={self.target.d}")

    def cross_block(self, theta):
        """Kernel matrix between mobile points and the fixed ones."""
        return self.potential.pairwise(np.atleast_2d(theta), self.target.w)

    def baseline(self):
        """Loss of the all-zero hypothesis (the fixed-fixed block alone)."""
        return self._bb_const

    # -- value / gradient ----------------------------------------------------

    def _quadratic(self, a, gram_off, cross):
        """The loss as a quadratic in the outer weights, from the off-diagonal
        Gram block and the cross block: returns (value, half the a-gradient)."""
        b = self.target.b
        half_ga = gram_off @ a + self._quad * a + cross @ b
        return float(a @ half_ga + a @ cross @ b + self._bb_const), half_ga

    def loss(self, hyp: Hypothesis):
        self._check(hyp)
        gram_off = self.potential.pairwise(hyp.theta)
        return self._quadratic(hyp.a, gram_off, self.cross_block(hyp.theta))[0]

    def grad(self, hyp: Hypothesis):
        """Analytic gradient (d/da, d/dtheta); sphere gradients are projected
        to the tangent spaces."""
        return self.loss_and_grad(hyp)[1:]

    def loss_and_grad(self, hyp: Hypothesis):
        """Fused value and analytic gradient sharing the kernel blocks."""
        self._check(hyp)
        pot = self.potential
        a, b = hyp.a, self.target.b
        gram_off, g_ee = pot.pairwise_grad(hyp.theta)
        cross, g_ew = pot.pairwise_grad(hyp.theta, self.target.w)
        val, half_ga = self._quadratic(a, gram_off, cross)
        gt = 2.0 * a[:, None] * (np.einsum("ijd,j->id", g_ee, a) + np.einsum("ijd,j->id", g_ew, b))
        return val, 2.0 * half_ga, pot.tangent(hyp.theta, gt)

    # -- quadratic structure in the outer weights -----------------------------

    def outer_curvature(self):
        """Coefficient of a_i^2 in the loss: the self-energy plus the charge
        penalty. Raises SingularDiagonal for infinite-diagonal kernels, whose
        quadratic in the outer weights is undefined."""
        if not self.potential.finite_diagonal:
            raise SingularDiagonal(f"{self.potential.name} kernel diverges on the diagonal")
        return self._quad

    def optimal_outer_weight(self, theta):
        """Single-node optimum of the quadratic in a_1 and the loss change it buys.

        Unregularized: a* = -S, change -S^2; charge-regularized: a* = -S/2,
        change -S^2/2, where S = sum_j b_j K(theta, w_j). The change is the
        signed difference against a_1 = 0 (negative when the loss improves).
        One point ``(d,)`` gives floats; a batch ``(m, d)`` gives arrays of
        the m independent single-node optima.
        """
        a_star, change = self.outer_optimum(self.cross_block(theta) @ self.target.b)
        if np.ndim(theta) == 1:
            return float(a_star[0]), float(change[0])
        return a_star, change

    def outer_optimum(self, s):
        """(a*, change) of :meth:`optimal_outer_weight` from the cross sums
        S = sum_j b_j K(theta, w_j) of an array of nodes."""
        quad = self.outer_curvature()
        return -s / quad, -s * s / quad

    def solve_optimal_a(self, theta):
        """Exact minimizer of the quadratic in the full outer-weight vector.

        Solves (G + reg I) a = -C b; falls back to a 1e-12 Tikhonov shift when
        the Gram system is singular or ill-conditioned.
        """
        theta = np.atleast_2d(theta)
        g = self.potential.pairwise(theta) + self.outer_curvature() * np.eye(len(theta))
        rhs = -self.cross_block(theta) @ self.target.b
        try:
            a = np.linalg.solve(g, rhs)
            if not np.all(np.isfinite(a)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            a = np.linalg.solve(g + 1e-12 * np.eye(len(theta)), rhs)
        return a

    # -- derived objects ------------------------------------------------------

    def restricted(self, frozen_theta=None, frozen_a=None):
        """Objective for one mobile node with previously learned nodes frozen
        as additional fixed charges; nodes not yet visited carry zero outer
        weight and vanish from the loss."""
        if frozen_theta is None or len(frozen_theta) == 0:
            return self
        w_eff = np.vstack([self.target.w, np.atleast_2d(frozen_theta)])
        b_eff = np.concatenate([self.target.b, np.asarray(frozen_a, dtype=float).ravel()])
        return Objective(self.potential, TargetNetwork(w_eff, b_eff), self.regularization)


# ---------------------------------------------------------------------------
# finite differences over the packed coordinate vector
# ---------------------------------------------------------------------------


@dataclass
class VectorObjective:
    """Flat-vector adapter over (a, theta) used by the descent algorithms.

    Packing: x = [a_1..a_k, theta_11..theta_1d, ..., theta_kd]. ``hess``
    takes central differences of the ``value_and_grad`` gradient; on the
    sphere it returns P H P + c (I - P), with P the identity on the a's and
    I - theta_i theta_i^T on each node and c = |H|_F + 1 above every tangent
    eigenvalue, so its smallest eigenpair is the Riemannian Hessian's, on
    the tangent space. ``project`` retracts the hidden vectors with
    ``Potential.retract`` and is the identity off the sphere.
    """

    objective: Objective
    k: int
    d: int

    def pack(self, hyp: Hypothesis):
        return np.concatenate([hyp.a, hyp.theta.ravel()])

    def unpack(self, x):
        return Hypothesis(theta=x[self.k :].reshape(self.k, self.d), a=x[: self.k])

    @property
    def dim(self):
        return self.k + self.k * self.d

    def value_and_grad(self, x):
        val, ga, gt = self.objective.loss_and_grad(self.unpack(x))
        return val, np.concatenate([ga, gt.ravel()])

    def hess(self, x, h=1e-4):
        hess = fd_hessian(lambda z: self.value_and_grad(z)[1], x, h)
        if self.objective.potential.manifold != SPHERE:
            return hess
        p = np.eye(self.dim)
        for i, theta in enumerate(np.reshape(x[self.k :], (self.k, self.d))):
            node = slice(self.k + i * self.d, self.k + (i + 1) * self.d)
            p[node, node] -= np.outer(theta, theta)
        return p @ hess @ p + (np.linalg.norm(hess) + 1.0) * (np.eye(self.dim) - p)

    def project(self, x):
        if self.objective.potential.manifold != SPHERE:
            return x
        theta = self.objective.potential.retract(x[self.k :].reshape(self.k, self.d))
        return np.concatenate([x[: self.k], theta.ravel()])


class NodeObjective(VectorObjective):
    """Node-wise descent's problem: one mobile node ``x = [a, theta]`` against
    the fixed charges, value and gradient from one fused kernel pass (the
    arithmetic recovery's iteration counts were recorded with). Sphere
    kernels raise DimensionMismatch: node initializations sample Euclidean
    space."""

    def __init__(self, objective: Objective):
        if objective.potential.manifold == SPHERE:
            raise DimensionMismatch(
                f"{objective.potential.name}: node-wise descent needs a Euclidean kernel"
            )
        super().__init__(objective, 1, objective.target.d)

    def value_and_grad(self, x):
        obj = self.objective
        pot, w, b = obj.potential, obj.target.w, obj.target.b
        a, theta = float(x[0]), x[1:]
        diff = theta - w
        dist = np.sqrt(np.einsum("kd,kd->k", diff, diff))
        if float(dist.min()) < _COLLISION_GUARD and not pot.smooth_origin:
            raise NonDifferentiablePoint(
                f"{pot.name}: zero separation at a kernel kink/singularity"
            )
        phi, dphi = pot.phi_and_dphi(dist)
        s = float(phi @ b)
        val = a * a * obj._quad + 2.0 * a * s + obj._bb_const
        ga = 2.0 * (a * obj._quad + s)
        # zero separation only reaches here for smooth kernels, where diff = 0
        # kills the term; the clamped denominator just avoids the 0/0
        fac = dphi / np.maximum(dist, _COLLISION_GUARD)
        gt = (2.0 * a) * ((fac * b) @ diff)
        return val, np.concatenate([[ga], gt])


def fd_hessian(grad, x, h=1e-4):
    """Hessian from central differences of the analytic gradient,
    J[i] = (grad(x + h e_i) - grad(x - h e_i)) / 2h, symmetrized as
    (J + J^T)/2. With tangent-projected sphere gradients its quadratic form
    is the Riemannian Hessian's on tangent vectors only; normal directions
    still enter its eigenpairs (``VectorObjective.hess`` projects them out)."""
    x = np.asarray(x, dtype=float)
    jac = np.array([grad(x + e) - grad(x - e) for e in np.eye(x.size) * h]) / (2.0 * h)
    return 0.5 * (jac + jac.T)


def theta_laplacian(obj: Objective, hyp: Hypothesis, i, h=1e-4):
    """Trace of the theta_i block of the Hessian via axis-aligned second
    differences."""
    if not 0 <= i < hyp.k:
        raise DimensionMismatch(f"node index {i} out of range")
    base = hyp.theta.copy()
    f0 = obj.loss(hyp)
    acc = 0.0
    for m in range(hyp.d):
        for sgn in (+1.0, -1.0):
            t = base.copy()
            t[i, m] += sgn * h
            acc += obj.loss(Hypothesis(theta=t, a=hyp.a))
        acc -= 2.0 * f0
    return acc / (h * h)

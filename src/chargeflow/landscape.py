"""Numerical verdicts for the landscape identities the convergence arguments
reduce to.

These are diagnostics, not proofs: each check samples a configuration,
measures a trace/curvature quantity by finite differences, and compares it to
the closed form the corresponding argument predicts. A verdict records the
measured numbers, the tolerance, and whether failure was the expected outcome
(control cases).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCluster,
    NotACriticalPoint,
    TooCloseToSingularity,
)
from .loss import Hypothesis, Objective, TargetNetwork, theta_laplacian
from .potentials import (
    CoulombPotential,
    ExpLambdaHarmonicPotential,
    LogPotential,
    PolynomialPotential,
    SignPotential,
    min_separation,
)

_R_MIN = 1e-3


@dataclass
class LandscapeVerdict:
    check: str
    digest: str
    measured: dict
    passed: bool
    tol: float
    expected_fail: bool = False
    note: str = ""

    @property
    def ok(self):
        """True when the outcome matches expectation (pass, or expected fail)."""
        return self.passed != self.expected_fail

    def record(self):
        """The verdict as a JSON-ready dict."""
        return {
            "schema_version": 1,
            "check": self.check,
            "digest": self.digest,
            "measured": self.measured,
            "passed": self.passed,
            "expected_fail": self.expected_fail,
            "tol": self.tol,
            "note": self.note,
        }


def _digest(**config):
    blob = json.dumps(
        {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in config.items()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def earnshaw_trace_check(potential, target: TargetNetwork, hyp: Hypothesis, i, tol=1e-4, h=5e-4):
    """Trace of the theta_i Hessian block; vanishes for harmonic kernels.

    Harmonic kernels (Coulomb, log; the objective holds each to its own
    dimension) must pass; running a non-harmonic kernel marks the verdict
    expected-fail so the control case documents that the test discriminates.
    """
    if min(min_separation(hyp.theta), min_separation(hyp.theta, target.w)) < _R_MIN:
        raise TooCloseToSingularity(f"pairwise distance below {_R_MIN}")
    harmonic_kernel = isinstance(potential, (CoulombPotential, LogPotential))
    obj = Objective(potential, target)
    trace = theta_laplacian(obj, hyp, i, h=h)
    passed = abs(trace) <= tol
    return LandscapeVerdict(
        check="earnshaw-trace",
        digest=_digest(kind=potential.name, w=target.w, b=target.b, theta=hyp.theta, a=hyp.a, i=i, h=h),
        measured={"trace": float(trace), "h": h},
        passed=passed,
        tol=tol,
        expected_fail=not harmonic_kernel,
        note="" if harmonic_kernel else "non-harmonic control kernel",
    )


def eigstrict_laplacian_check(lam, target: TargetNetwork, theta, tol=1e-3, h=1e-3):
    """Laplacian of the correlated translation of the first node's coincidence
    class at the exact outer-weight optimum.

    With all mobile nodes pairwise distinct the class is the singleton
    {theta_0}, every kernel term it meets satisfies the eigenrelation, and the
    optimality conditions collapse the Laplacian to -2 lam (sum of the moved
    charges)^2 exactly.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if min_separation(theta) < 1e-10:
        raise DegenerateCluster("coincident mobile nodes")
    if min_separation(theta, target.w) < _R_MIN:
        raise TooCloseToSingularity("mobile node too close to a fixed charge")
    pot = ExpLambdaHarmonicPotential(lam=lam, d=target.d)
    obj = Objective(pot, target)
    a = obj.solve_optimal_a(theta)
    predicted = -2.0 * lam * float(a[0]) ** 2
    measured = theta_laplacian(obj, Hypothesis(theta=theta, a=a), 0, h=h)
    err = abs(measured - predicted)
    passed = err <= tol * max(abs(predicted), 1e-6)
    return LandscapeVerdict(
        check="eigstrict-laplacian",
        digest=_digest(lam=lam, w=target.w, b=target.b, theta=theta, h=h),
        measured={
            "laplacian": float(measured),
            "predicted": float(predicted),
            "a0": float(a[0]),
            "h": h,
        },
        passed=bool(passed),
        tol=tol,
    )


def subharmonic_sign_check(c, d, r):
    """Analytic Laplacian of exp(-c r^2 / 2): c (c r^2 - d) e^{-c r^2 / 2}.

    Sign flips exactly at r^2 = d / c, the radius beyond which the kernel is
    strictly subharmonic.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    return float(c * (c * r * r - d) * np.exp(-c * r * r / 2.0))


@dataclass
class CircleScanResult:
    minima: np.ndarray
    matched: np.ndarray
    resolution: float

    @property
    def all_matched(self):
        return bool(np.all(self.matched))


def sign_circle_scan(target: TargetNetwork, n_grid=2048):
    """Scan the single-node sign-kernel loss over the circle with the outer
    weight set optimally per angle (``Objective.optimal_outer_weight``'s loss
    change); local minima must sit at a target direction or its antipode
    (the kinks of the kernel). Target rows off the unit circle raise
    OffManifold.
    """
    if target.d != 2:
        raise ValueError("circle scan requires 2-d weights")
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    circle = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    scan = Objective(SignPotential(), target).optimal_outer_weight(circle)[1]
    left = np.roll(scan, 1)
    right = np.roll(scan, -1)
    min_idx = np.nonzero((scan < left) & (scan < right))[0]
    minima_angles = phis[min_idx]
    resolution = 2.0 * np.pi / n_grid
    w_angles = np.arctan2(target.w[:, 1], target.w[:, 0])
    targets = np.concatenate([w_angles, w_angles + np.pi]) % (2.0 * np.pi)
    diff = np.abs(((minima_angles[:, None] - targets[None, :]) + np.pi) % (2.0 * np.pi) - np.pi)
    matched = diff.min(axis=1) <= resolution if len(minima_angles) else np.array([], dtype=bool)
    return CircleScanResult(minima=minima_angles, matched=matched, resolution=resolution)


def poly_orthonormal_check(l, theta, b, tol=1e-4, fd_step=1e-3):
    """Negative-curvature witness for the degree-l kernel with orthonormal
    fixed directions, measured through ``Objective`` with the fixed charges
    b at the basis vectors.

    At a critical point whose direction has >= 2 nonzero coordinates, the
    tangent direction supported on two of them carries curvature
    -2 (l-2) l a^2 < 0; verified against a second difference of the loss
    along the retracted path.
    """
    if l < 3:
        raise ValueError("need l >= 3")
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    if theta.ndim != 1 or b.shape != theta.shape:
        raise ValueError("theta and b must have shape (d,)")
    d = theta.shape[0]
    pot = PolynomialPotential(l)
    obj = Objective(pot, TargetNetwork(np.eye(d), b))
    theta = pot.retract(theta)
    a = obj.optimal_outer_weight(theta)[0]  # unregularized single-node optimum

    # first-order manifold condition: the tangent gradient vanishes
    grad = obj.grad(Hypothesis(theta=theta, a=[a]))[1]
    if np.linalg.norm(grad) > 1e-6 * max(1.0, abs(a)):
        raise NotACriticalPoint(f"|tangent gradient| = {np.linalg.norm(grad):g}")

    support = np.nonzero(np.abs(theta) > 1e-12)[0]
    measured = {"a": a}
    passed, note = True, ""
    if len(support) < 2:
        measured["support"] = int(len(support))
        note = "single nonzero coordinate: global-minimum candidate, no witness required"
    else:
        i, j = int(support[0]), int(support[1])
        v = np.zeros(d)
        v[i], v[j] = theta[j], -theta[i]
        v /= np.linalg.norm(v)
        path = [pot.retract(theta + t * v) for t in (fd_step, 0.0, -fd_step)]
        f = [obj.loss(Hypothesis(theta=p, a=[a])) for p in path]
        curvature = (f[0] - 2.0 * f[1] + f[2]) / fd_step**2
        measured["curvature"] = float(curvature)
        if abs(a) < 1e-12:
            note = "a = 0: zero curvature; the descent path reaches this with probability zero"
        else:
            predicted = -2.0 * (l - 2) * l * a * a
            measured.update(predicted=float(predicted), witness=[i, j])
            passed = bool(abs(curvature - predicted) / abs(predicted) <= tol and curvature < 0)
    return LandscapeVerdict(
        check="poly-orthonormal",
        digest=_digest(l=l, d=d, theta=theta, b=b),
        measured=measured,
        passed=passed,
        tol=tol,
        note=note,
    )

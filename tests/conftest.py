"""Shared fixtures and the test-only oracles: scalar kernel evaluation,
central differences and the eigenrelation residual, each written without the
package's pair core so the tests can check that core against them."""

import numpy as np
import pytest

from chargeflow.errors import DimensionMismatch, SingularDiagonal
from chargeflow.harmonic import build_almost_harmonic
from chargeflow.potentials import _COLLISION_GUARD, SPHERE


@pytest.fixture(scope="session", autouse=True)
def _cache_dir(tmp_path_factory):
    import os

    os.environ["CHARGEFLOW_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="session")
def almost_table():
    """Shared eps=0.1, lam=1, d=3 tabulation (construction takes ~0.5 s)."""
    return build_almost_harmonic(3, 0.1, 1.0)


@pytest.fixture(scope="session")
def almost_table_fine():
    """The eps=0.05 variant used by the acceptance suite."""
    return build_almost_harmonic(3, 0.05, 1.0)


# the kernel ids the README lists
README_KERNEL_IDS = (
    "sign", "gauss:c=1.0", "explh:lambda=1,d=3", "poly:l=3",
    "almost:eps=0.1,lambda=1,d=3", "exp1d:lambda=1", "coulomb:d=3", "log",
)


def separated_points(rng, n, d, scale=3.0, min_sep=1.0):
    """Random configuration with all pairwise distances >= min_sep."""
    while True:
        pts = rng.standard_normal((n, d)) * scale
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= min_sep:
            return pts


def eval_potential(pot, theta, w):
    """Normalized kernel value of one pair with the kernel's point checks:
    one ``phi`` call on the pair argument, without the pair core. Kernels
    with a singular diagonal (the raw eigenfunction form, Coulomb, log)
    refuse zero separation; every other Euclidean kernel has phi(0) = 1."""
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta.shape != w.shape or theta.ndim != 1:
        raise DimensionMismatch(f"shapes {theta.shape} vs {w.shape}")
    pot.check_points(np.stack([theta, w]), "kernel points")
    if pot.manifold == SPHERE:
        return float(pot.phi(float(np.dot(theta, w))))
    r = float(np.linalg.norm(theta - w))
    if pot.raw_singular and r < _COLLISION_GUARD:
        raise SingularDiagonal(f"{pot.name} diverges at zero separation")
    return float(pot.phi(r))


def fd_gradient(f, x, h=None):
    """Central-difference gradient; h defaults to 1e-5 * max(1, |x|)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def radial_laplacian(f, r, d, h):
    """Central-difference estimate of f''(r) + (d-1)/r * f'(r), error O(h^2).

    Plain arithmetic only, so ``f`` may return any numeric type supporting
    +,-,*,/ (floats, mpmath.mpf, ...). Raises ValueError unless r > 2h.
    """
    if r <= 2 * h:
        raise ValueError(f"need r > 2h, got r={r}, h={h}")
    fp = f(r + h)
    fm = f(r - h)
    f0 = f(r)
    second = (fp - 2 * f0 + fm) / (h * h)
    first = (fp - fm) / (2 * h)
    return second + (d - 1) * first / r


def ode_residual_coeffs(pot):
    """Coefficients of r p'' - (d-3 + 2 s r) p' + s (d-3) p for the
    polynomial factor p of a ``LambdaHarmonicRadial``; zero iff the
    eigenrelation holds."""
    p = np.asarray(pot.coeffs, dtype=float)
    dp = np.polynomial.polynomial.polyder(p)
    ddp = np.polynomial.polynomial.polyder(p, 2)
    res = np.zeros(len(p) + 1)
    res[1 : 1 + len(ddp)] += ddp  # r * p''
    res[: len(dp)] -= (pot.d - 3) * dp
    res[1 : 1 + len(dp)] -= 2.0 * pot.s * dp  # 2 s r p'
    res[: len(p)] += pot.s * (pot.d - 3) * p
    return res


def gradient_flow_field(obj, hyp):
    """Per-node field -grad_theta(L/2); the particle velocities of the system
    with mobile charges a at theta and fixed charges b at w."""
    return -0.5 * obj.grad(hyp)[1]


def fd_hessian(grad, x, h=1e-4):
    """Hessian from central differences of a gradient callable,
    J[i] = (grad(x + h e_i) - grad(x - h e_i)) / 2h, symmetrized as
    (J + J^T)/2: the oracle of the analytic Hessian. With tangent-projected
    sphere gradients its quadratic form is the Riemannian Hessian's on
    tangent vectors only."""
    x = np.asarray(x, dtype=float)
    jac = np.array([grad(x + e) - grad(x - e) for e in np.eye(x.size) * h]) / (2.0 * h)
    return 0.5 * (jac + jac.T)


class FunctionObjective:
    """Plain callables as a Euclidean descent objective (``value_and_grad``,
    ``hess``, ``project``); a missing Hessian falls back to central
    differences of the gradient."""

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

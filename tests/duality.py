"""Activation/kernel duality under standard Gaussian inputs.

Every similarity kernel in the package is the expectation Phi(theta, w) =
E[sigma(X, theta) sigma(X, w)] over X ~ N(0, I) for some activation sigma.
This module holds that bridge from a network to its kernel: the activations,
the Hermite helpers that map an activation to its sphere kernel and back, a
seeded Monte-Carlo estimator of the expectation, and a radial Fourier
realizability certificate. test_01 and the unit tests check the package's
kernels against it; nothing the package runs reads it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, k0e, k1e

from chargeflow.errors import (
    ChargeflowError,
    DimensionMismatch,
    GridTooCoarse,
    NonFiniteSample,
    UnsupportedDimension,
)
from chargeflow.potentials import EUCLIDEAN, SPHERE, Potential, check_unit_rows


class NegativeCoefficient(ChargeflowError):
    """A series coefficient that must be non-negative is negative."""

    def __init__(self, index, value):
        super().__init__(f"coefficient {index} is negative ({value})")
        self.index = index
        self.value = value


# ---------------------------------------------------------------------------
# Hermite helpers (probabilists', orthonormal under N(0, 1))
# ---------------------------------------------------------------------------


def hermite_eval(coeffs, x):
    """Evaluate sum_i coeffs[i] * h_i(x) with h_i = He_i / sqrt(i!)."""
    # math.lgamma differs from gammaln in the last bit for some n
    c = np.asarray(coeffs, dtype=float)
    scaled = c * np.exp(-0.5 * gammaln(np.arange(len(c)) + 1.0))
    return np.polynomial.hermite_e.hermeval(x, scaled)


def dual_from_hermite(hermite_coeffs):
    """Kernel Taylor coefficients induced by an orthonormal-Hermite activation.

    An activation sum_i a_i h_i has sphere kernel rho -> sum_i a_i^2 rho^i.
    """
    a = np.asarray(hermite_coeffs, dtype=float)
    return a * a


def activation_from_potential_taylor(taylor_coeffs):
    """Inverse of :func:`dual_from_hermite`: componentwise square root.

    Requires non-negative coefficients; raises NegativeCoefficient with the
    index of the first offender, since a signed coefficient means no
    orthonormal-Hermite activation induces this kernel.
    """
    c = np.asarray(taylor_coeffs, dtype=float)
    bad = np.nonzero(c < 0)[0]
    if bad.size:
        raise NegativeCoefficient(int(bad[0]), float(c[bad[0]]))
    return np.sqrt(c)


class HermiteDualPotential(Potential):
    """Kernel sum_i c_i rho^i / Z on the sphere, Z = sum_i c_i."""

    manifold = SPHERE

    def __init__(self, taylor_coeffs):
        c = np.asarray(taylor_coeffs, dtype=float)
        activation_from_potential_taylor(c)  # validates non-negativity
        z = float(c.sum())
        if z <= 0:
            raise ValueError("need at least one positive coefficient")
        self.taylor = c
        self.z = z
        self.name = "hermite-dual"

    def phi_and_dphi(self, rho):
        poly = np.polynomial.polynomial
        d = poly.polyder(self.taylor)
        return poly.polyval(rho, self.taylor) / self.z, poly.polyval(rho, d) / self.z

    def d2phi(self, rho):
        poly = np.polynomial.polynomial
        return poly.polyval(rho, poly.polyder(self.taylor, 2)) / self.z


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class Activation:
    """Pointwise activation sigma(x, weight). ``eval`` is vectorized over a
    sample batch of shape (n, d). Activations carrying an exp(|x|^2/4) factor
    provide ``log_eval`` so products can be formed without overflow, and
    ``eval`` is its exponential; the others override ``eval``."""

    name = "activation"
    manifold = EUCLIDEAN

    def __init__(self, d):
        self.d = int(d)

    def eval(self, x, weight):
        return np.exp(self.log_eval(x, weight))


class SignActivation(Activation):
    name = "sign"
    manifold = SPHERE

    def eval(self, x, weight):
        return np.sign(x @ weight)


class HermiteActivation(Activation):
    """sum_i a_i h_i(weight . x) with orthonormal probabilists' Hermites."""

    manifold = SPHERE

    def __init__(self, coeffs, d):
        super().__init__(d)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.name = "hermite"

    def eval(self, x, weight):
        return hermite_eval(self.coeffs, x @ weight)


class GaussianActivation(Activation):
    """(4c)^{d/4} e^{|x|^2/4} e^{-c|x-w|^2}; kernel exp(-c r^2 / 2)."""

    def __init__(self, c=1.0, d=1):
        super().__init__(d)
        self.c = float(c)
        self.name = f"gauss:c={c:g}"

    def log_eval(self, x, weight):
        sq = np.sum(x * x, axis=-1)
        diff = x - weight
        return (
            self.d / 4.0 * np.log(4.0 * self.c)
            + sq / 4.0
            - self.c * np.sum(diff * diff, axis=-1)
        )


class BesselK0Activation(Activation):
    """(2/pi)^{3/4} e^{x^2/4} K_0(|x - w|) in one dimension; kernel e^{-r}."""

    def __init__(self):
        super().__init__(1)
        self.name = "bessel0"

    def log_eval(self, x, weight):
        r = np.abs(x[:, 0] - weight[0])
        sq = x[:, 0] * x[:, 0]
        # log K_0 via the exponentially scaled form to avoid underflow
        return 0.75 * np.log(2.0 / np.pi) + sq / 4.0 + np.log(k0e(r)) - r


class BesselK1RadialActivation(Activation):
    """(2 pi)^{3/4} pi^{-3/2} e^{|x|^2/4} K_1(r)/r in three dimensions.

    Kernel e^{-r}/r: the raw eigenfunction for lam = 1, d = 3. The product
    estimator has infinite variance (the integrable 1/r^2 spike), so reported
    standard errors for this activation are not trustworthy; the pair is
    verified through the Fourier certificate instead.
    """

    def __init__(self):
        super().__init__(3)
        self.name = "bessel1"

    def log_eval(self, x, weight):
        diff = x - weight
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        sq = np.sum(x * x, axis=-1)
        const = 0.75 * np.log(2.0 * np.pi) - 1.5 * np.log(np.pi)
        return const + sq / 4.0 + np.log(k1e(r)) - r - np.log(r)


# ---------------------------------------------------------------------------
# Monte-Carlo duality check
# ---------------------------------------------------------------------------

_CHUNK = 1 << 17


def empirical_dual(act, theta, w, n, seed):
    """Monte-Carlo estimate of E[sigma(X, theta) sigma(X, w)], X ~ N(0, I_d).

    Returns (estimate, standard error). Deterministic for a fixed seed: each
    fixed-size chunk draws from its own counter-based stream keyed by
    (seed, chunk index) and partial sums are reduced in chunk order, so the
    result does not depend on how chunks are distributed over workers.

    An activation with ``log_eval`` is sampled as exp(log s1 + log s2), which
    keeps exp(|x|^2/4)-type activations finite; any other as the direct
    product of ``eval``, where an overflowing sample raises NonFiniteSample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta.shape != (act.d,) or w.shape != (act.d,):
        raise DimensionMismatch(f"weights must have shape ({act.d},)")
    if act.manifold == SPHERE:
        check_unit_rows([theta, w], f"{act.name} activation weights")
    in_logs = hasattr(act, "log_eval")

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_idx = 0
    while done < n:
        m = min(_CHUNK, n - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, chunk_idx], dtype=np.uint64))
        )
        x = rng.standard_normal((m, act.d))
        with np.errstate(over="ignore", invalid="ignore"):
            if in_logs:
                vals = np.exp(act.log_eval(x, theta) + act.log_eval(x, w))
            else:
                vals = act.eval(x, theta) * act.eval(x, w)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample(
                f"{act.name}: non-finite sample; give the activation a log_eval"
            )
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
        done += m
        chunk_idx += 1
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / max(1, n - 1))
    return mean, float(np.sqrt(var / n))


# ---------------------------------------------------------------------------
# radial Fourier realizability certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialCertificate:
    realizable: bool
    min_transform: float
    omega_min: float
    tol: float

    def __bool__(self):
        return self.realizable


def realizability_certificate_radial(r, values, d, tol=1e-6, omega=None, n_omega=2048):
    """Sign check of the d-dimensional radial Fourier transform on a frequency grid.

    Advisory: Realizable means the trapezoid transform never dips below -tol.
    Supports d = 1 (cosine transform) and d = 3 (sine transform / omega).
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != values.shape or r.size < 8:
        raise DimensionMismatch("need matching 1-d arrays of at least 8 samples")
    h = r[1] - r[0]
    if not np.allclose(np.diff(r), h, rtol=1e-8):
        raise GridTooCoarse("radial grid must be uniform")
    if d not in (1, 3):
        raise UnsupportedDimension(f"radial transform implemented for d in {{1, 3}}, got {d}")
    peak = np.max(np.abs(values))
    if abs(values[-1]) > tol * peak:
        raise GridTooCoarse(
            f"samples have not decayed at the boundary: |phi(r_max)| = {abs(values[-1]):g}"
        )
    nyquist = np.pi / h
    if omega is None:
        omega = np.linspace(0.0, nyquist / 2.0, n_omega)
    else:
        omega = np.asarray(omega, dtype=float)
        if np.max(omega) > nyquist:
            raise GridTooCoarse(
                f"requested frequency {np.max(omega):g} exceeds the Nyquist limit {nyquist:g}"
            )
    transform = np.empty_like(omega)
    for i, om in enumerate(omega):
        if d == 1:
            transform[i] = 2.0 * np.trapezoid(values * np.cos(om * r), r)
        elif om == 0.0:
            transform[i] = 4.0 * np.pi * np.trapezoid(r * r * values, r)
        else:
            transform[i] = 4.0 * np.pi / om * np.trapezoid(r * values * np.sin(om * r), r)
    idx = int(np.argmin(transform))
    return RadialCertificate(
        realizable=bool(transform[idx] >= -tol),
        min_transform=float(transform[idx]),
        omega_min=float(omega[idx]),
        tol=tol,
    )

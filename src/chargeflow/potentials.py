"""Activation/kernel duality under standard Gaussian inputs.

Every similarity kernel here is the expectation Phi(theta, w) =
E[sigma(X, theta) sigma(X, w)] over X ~ N(0, I) for some activation sigma.
Translationally invariant kernels depend on r = ||theta - w||, rotationally
invariant ones (unit-sphere weights) on rho = theta . w. Kernels are
normalized to Phi(theta, theta) = 1 whenever that diagonal is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    NegativeCoefficient,
    NonDifferentiablePoint,
    NonFiniteSample,
    OffManifold,
    SingularDiagonal,
    UnsupportedDimension,
)

EUCLIDEAN = "euclidean"
SPHERE = "sphere"

_COLLISION_GUARD = 1e-10
# exp(-x) rounds to 0.0 for every x >= this (the smallest subnormal is e^-744.4)
_EXP_UNDERFLOW = 746.0


# ---------------------------------------------------------------------------
# Hermite helpers (probabilists', orthonormal under N(0, 1))
# ---------------------------------------------------------------------------


def hermite_eval(coeffs, x):
    """Evaluate sum_i coeffs[i] * h_i(x) with h_i = He_i / sqrt(i!)."""
    # math.lgamma differs from gammaln in the last bit for some n
    from scipy.special import gammaln

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


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Potential:
    """Base similarity kernel.

    Every kernel is one function of one pair argument s: the separation r on
    Euclidean space, the inner product rho on the unit sphere. Subclasses
    state the kernel once, in ``phi_and_dphi(s)``: the value together with
    its slope in s.
    """

    name = "potential"
    manifold = EUCLIDEAN
    finite_diagonal = True
    smooth_origin = False  # True when grad exists at zero separation
    raw_singular = False  # True when the pointwise form diverges as r -> 0
    # True only when phi is certified non-negative and non-increasing in the
    # separation r, the property init scoring prunes with
    radially_nonincreasing = False

    def check_points(self, x, what):
        """Raise DimensionMismatch when the rows of x have a dimension other
        than the kernel's ``d`` (kernels without a ``d`` take any), and, on
        the sphere, OffManifold unless every row has unit norm."""
        d = getattr(self, "d", None)
        n = np.shape(x)[-1]
        if d is not None and n != d:
            raise DimensionMismatch(f"{self.name} expects dimension {d}, got {n}")
        if self.manifold == SPHERE:
            check_unit_rows(x, f"{self.name} {what}")

    def phi(self, s):
        """Kernel value at the pair argument s."""
        return self.phi_and_dphi(s)[0]

    # -- the pair core: every kernel block and kernel gradient -------------

    def _pair_arguments(self, x, y):
        """The kernel argument of every pair: inner product on the sphere,
        distance otherwise. Self-pairs (``y`` None) get an argument on the
        diagonal that every kernel accepts; their results are zeroed by the
        callers."""
        ys = x if y is None else y
        if self.manifold == SPHERE:
            s = np.clip(x @ ys.T, -1.0, 1.0)
        else:
            # recovery's iteration counts were recorded with these bits
            s = pair_distances(x, ys)
        if y is None:
            np.fill_diagonal(s, 0.0 if self.manifold == SPHERE else 1.0)
        return s

    def pairwise(self, x, y=None):
        """Kernel block K[i, j] = Phi(x_i, y_j) for point sets (n, d), (m, d).

        With ``y`` None, the block is ``x`` against itself and the diagonal is
        zeroed (the self-energy is the caller's). Raw-singular kernels raise
        SingularDiagonal at zero separation off the diagonal.
        """
        s = self._pair_arguments(x, y)
        # raw-singular kernels are all Euclidean, so s is a distance here
        if self.raw_singular and np.any(s < _COLLISION_GUARD):
            raise SingularDiagonal(f"{self.name}: zero separation at a singular kernel")
        k = np.asarray(self.phi(s), dtype=float)
        if y is None:
            np.fill_diagonal(k, 0.0)
        return k

    def pairwise_grad(self, x, y=None):
        """Kernel block and its gradient block in the first argument.

        Returns (K, G) with K as from ``pairwise`` and G[i, j] =
        grad_{x_i} Phi(x_i, y_j) of shape (n, m, d): phi'(r)/r (x_i - y_j) in
        Euclidean space, phi'(rho) y_j on the sphere (not yet projected, see
        ``tangent``). Self-pairs contribute zero. Zero separation raises
        NonDifferentiablePoint unless the kernel is smooth there, where the
        gradient is zero; sphere kernels check their own kinks.
        """
        s = self._pair_arguments(x, y)
        ys = x if y is None else y
        sphere = self.manifold == SPHERE
        if not sphere:
            near = s < _COLLISION_GUARD
            if near.any() and not self.smooth_origin:
                raise NonDifferentiablePoint(
                    f"{self.name}: zero separation at a kernel kink/singularity"
                )
        k, dphi = self.phi_and_dphi(s)
        if sphere:
            fac = np.asarray(dphi, dtype=float)
            vec = ys[None, :, :]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                fac = np.where(near, 0.0, dphi / s)
            vec = x[:, None, :] - ys[None, :, :]
        k = np.asarray(k, dtype=float)
        if y is None:
            np.fill_diagonal(k, 0.0)
            np.fill_diagonal(fac, 0.0)
        return k, fac[:, :, None] * vec

    def tangent(self, x, g):
        """Rows of g projected to the tangent spaces at the rows of x (the
        identity off the sphere)."""
        if self.manifold != SPHERE:
            return g
        return g - np.sum(g * x, axis=-1, keepdims=True) * x

    def retract(self, x):
        """Rows of x scaled to unit norm on the sphere; off the sphere, x
        itself (no copy)."""
        if self.manifold != SPHERE:
            return x
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def grad_theta(self, theta, w):
        """Gradient in the first argument; sphere kernels return the tangent
        projection."""
        theta = np.asarray(theta, dtype=float)
        _, g = self.pairwise_grad(theta[None, :], np.asarray(w, dtype=float)[None, :])
        return self.tangent(theta, g[0, 0])


class SignPotential(Potential):
    """Kernel of the sign activation on the unit sphere: 1 - 2 acos(rho) / pi."""

    name = "sign"
    manifold = SPHERE

    # defined at the kinks rho = +-1, where phi_and_dphi raises
    def phi(self, rho):
        return 1.0 - 2.0 * np.arccos(np.clip(rho, -1.0, 1.0)) / np.pi

    def phi_and_dphi(self, rho):
        if np.any(1.0 - np.abs(rho) < 1e-12):
            raise NonDifferentiablePoint("sign kernel has kinks at rho = +/-1")
        return self.phi(rho), 2.0 / (np.pi * np.sqrt(1.0 - rho * rho))


class GaussianPotential(Potential):
    """exp(-c r^2 / 2); strictly positive Laplacian outside r^2 = d/c."""

    smooth_origin = True
    radially_nonincreasing = True

    def __init__(self, c=1.0):
        if not 0 < c < np.inf:
            raise ValueError(f"c must be positive and finite, got {c}")
        self.c = float(c)
        self.name = f"gauss:c={c:g}"
        # exp is 0 past this r; the cap gives 0, not NaN, at r = inf or huge r
        self._r_cap = float(np.sqrt(2.0 * _EXP_UNDERFLOW / self.c))

    def phi_and_dphi(self, r):
        r = np.minimum(r, self._r_cap)
        # r^2 * (-c/2) has the bits of -c * r^2 / 2 (halving is exact) in
        # one multiply fewer, which pays for the cap
        e = np.exp(np.square(r) * (-0.5 * self.c))
        return e, -self.c * r * e


class PolynomialPotential(Potential):
    """rho^l on the sphere, the kernel of the degree-l orthonormal Hermite."""

    manifold = SPHERE

    def __init__(self, l=1):
        if l < 1 or l != int(l):
            raise ValueError("l must be an integer >= 1")
        self.l = int(l)
        self.name = f"poly:l={self.l}"

    def phi_and_dphi(self, rho):
        rho = np.asarray(rho)
        return rho**self.l, self.l * rho ** (self.l - 1)


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


class LaplaceExpPotential(Potential):
    """exp(-sqrt(lam) r); the one-dimensional Laplacian eigenfunction kernel."""

    radially_nonincreasing = True

    def __init__(self, lam=1.0):
        if not 0 <= lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        self.s = float(np.sqrt(lam))
        self.name = f"exp1d:lambda={lam:g}"
        # exp is 0 past this r (phi = 1 at lambda = 0): no -0.0 * inf = NaN
        self._r_cap = _EXP_UNDERFLOW / self.s if self.s > 0 else 0.0

    def phi_and_dphi(self, r):
        e = np.exp(-self.s * np.minimum(r, self._r_cap))
        return e, -self.s * e


class CoulombPotential(Potential):
    """Diagnostic harmonic kernel r^(2-d) (d >= 1, d != 2); not realizable."""

    finite_diagonal = False
    raw_singular = True

    def __init__(self, d=3):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if d == 2:
            raise UnsupportedDimension("use the log kernel for d = 2")
        self.d = int(d)
        self.name = f"coulomb:d={d}"

    def phi_and_dphi(self, r):
        r = np.asarray(r, dtype=float)
        # +inf and -inf, silently, at r = 0 and where a power of r underflows
        with np.errstate(divide="ignore", over="ignore"):
            return r ** (2 - self.d), (2 - self.d) * r ** (1 - self.d)


class LogPotential(Potential):
    """Diagnostic harmonic kernel -log r in two dimensions; not realizable."""

    finite_diagonal = False
    raw_singular = True

    def __init__(self):
        self.d = 2
        self.name = "log"

    def phi_and_dphi(self, r):
        r = np.asarray(r, dtype=float)
        # +inf and -inf, silently, at r = 0; the slope is -inf below 1 / DBL_MAX
        with np.errstate(divide="ignore", over="ignore"):
            return -np.log(r), -1.0 / r


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
        from scipy.special import k0e

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
        from scipy.special import k1e

        diff = x - weight
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        sq = np.sum(x * x, axis=-1)
        const = 0.75 * np.log(2.0 * np.pi) - 1.5 * np.log(np.pi)
        return const + sq / 4.0 + np.log(k1e(r)) - r - np.log(r)


def pair_distances(x, y):
    """Euclidean distances (n, m) between the rows of x (n, d) and y (m, d).

    The squared coordinate differences are summed one coordinate at a time
    into one buffer, with no (n, m, d) difference block. For d < 8 that is
    bit-for-bit ``sqrt(sum(diff * diff, -1))``, which numpy also sums in
    order at that length; from d = 8 on numpy's unrolled pairwise sum rounds
    differently, in the last bits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # points more than about 1e154 apart are inf apart
    with np.errstate(over="ignore"):
        out = np.subtract.outer(x[:, 0], y[:, 0])
        out *= out
        buf = np.empty_like(out)
        for j in range(1, x.shape[1]):
            np.subtract.outer(x[:, j], y[:, j], out=buf)
            buf *= buf
            out += buf
    return np.sqrt(out, out=out)


def min_separation(x, y=None):
    """Smallest distance between a row of x and a row of y; with ``y`` None,
    between distinct rows of x (inf for a single row)."""
    x = np.atleast_2d(x)
    dist = pair_distances(x, x if y is None else np.atleast_2d(y))
    if y is None:
        np.fill_diagonal(dist, np.inf)
    return float(np.min(dist))


def check_unit_rows(x, what):
    """Raise OffManifold unless every row of x has unit norm (to 1e-12)."""
    norms = np.linalg.norm(np.atleast_2d(x), axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise OffManifold(f"{what} must have unit norm, got |v| = {norms.tolist()}")


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


# ---------------------------------------------------------------------------
# string registry
# ---------------------------------------------------------------------------


def parse_potential(identifier):
    """Build a kernel from its string id.

    Ids: "sign", "gauss:c=1.0", "explh:lambda=1,d=3", "poly:l=3",
    "almost:eps=0.1,lambda=1,d=3", "exp1d:lambda=1", "coulomb:d=3", "log";
    an omitted key takes the builder's default, and "almost" kinds are the
    tabulation from the on-disk cache itself. An unknown or repeated key, a
    non-integer ``d`` or ``l`` and an out-of-range value raise ValueError
    naming the key.
    """
    # harmonic imports this module, so its kernels are imported on use
    from .harmonic import LambdaHarmonicRadial, load_or_build_almost_harmonic

    # id kind -> (builder, {id key: builder argument}); every default lives in
    # the builder, and "d" and "l" take integers
    kinds = {
        "sign": (SignPotential, {}),
        "gauss": (GaussianPotential, {"c": "c"}),
        "explh": (LambdaHarmonicRadial, {"lambda": "lam", "d": "d"}),
        "poly": (PolynomialPotential, {"l": "l"}),
        "almost": (
            lambda eps=0.1, lam=1.0, d=3: load_or_build_almost_harmonic(d, eps, lam),
            {"eps": "eps", "lambda": "lam", "d": "d"},
        ),
        "exp1d": (LaplaceExpPotential, {"lambda": "lam"}),
        "coulomb": (CoulombPotential, {"d": "d"}),
        "log": (LogPotential, {}),
    }
    head, _, rest = identifier.partition(":")
    if head not in kinds:
        raise ValueError(f"unknown potential id {identifier!r}")
    build, keys = kinds[head]
    args = {}
    for part in rest.split(",") if rest else ():
        key, _, val = (t.strip() for t in part.partition("="))
        arg = keys.get(key)
        if arg is None or arg in args:
            raise ValueError(f"{head}: {'unknown' if arg is None else 'repeated'} key {key!r}")
        try:
            args[arg] = float(val)
        except ValueError:
            raise ValueError(f"{head}: {key} must be a number, got {val!r}") from None
        if key in ("d", "l"):
            if not args[arg].is_integer():
                raise ValueError(f"{head}: {key} must be an integer, got {val}")
            args[arg] = int(args[arg])
    return build(**args)

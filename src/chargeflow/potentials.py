"""Similarity kernels and the pair core they share.

A kernel Phi(theta, w) is the interaction of two charges; for a two-layer
network it is E[sigma(X, theta) sigma(X, w)] over standard Gaussian inputs X,
sigma the activation. Translationally invariant kernels depend on
r = ||theta - w||, rotationally invariant ones (unit-sphere weights) on
rho = theta . w, and each states one function of that pair argument.
``Potential`` turns it into the kernel, gradient and Hessian blocks of two
point sets, which the loss, the dynamics and descent sum over. Kernels are
normalized to Phi(theta, theta) = 1 whenever that diagonal is finite, and
``parse_potential`` builds one from its string id.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonDifferentiablePoint,
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
# kernels
# ---------------------------------------------------------------------------


class Potential:
    """Base similarity kernel.

    Every kernel is one function of one pair argument s: the separation r on
    Euclidean space, the inner product rho on the unit sphere. Subclasses
    state the kernel once, in ``phi_and_dphi(s)``: the value together with
    its slope in s. Next to it, ``d2phi(s)`` states the second derivative,
    which only the Hessian reads, so the value-and-slope path of descent and
    init does no work for it.
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

    def d2phi(self, s):
        """Second derivative phi''(s) of the kernel in its pair argument."""
        raise NotImplementedError(f"{self.name} states no second derivative")

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

    def _zero_separation(self, s):
        """Mask of the Euclidean pair arguments at zero separation (None on
        the sphere, whose kernels check their own kinks). Raises
        NonDifferentiablePoint there unless the kernel is smooth at the
        origin."""
        if self.manifold == SPHERE:
            return None
        near = s < _COLLISION_GUARD
        if near.any() and not self.smooth_origin:
            raise NonDifferentiablePoint(f"{self.name}: zero separation at a kernel kink/singularity")
        return near

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
        near = self._zero_separation(s)
        k, dphi = self.phi_and_dphi(s)
        if near is None:
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

    def pairwise_hess(self, x, y=None):
        """Second-derivative blocks of the kernel, next to ``pairwise_grad``.

        Returns (H, X), each of shape (n, m, d, d): H[i, j] is the Hessian of
        Phi(x_i, y_j) in x_i and X[i, j] the mixed block d^2 Phi / dx_i dy_j^T.
        In Euclidean space H = phi'' u u^T + phi'/r (I - u u^T), with u the
        unit separation, and X = -H; on the sphere H = phi''(rho) y_j y_j^T
        and X = phi''(rho) y_j x_i^T + phi'(rho) I (ambient, not yet
        projected). Self-pairs contribute zero. Zero separation follows
        ``pairwise_grad``: NonDifferentiablePoint unless the kernel is smooth
        there, where H takes its limit phi''(0) I.
        """
        s = self._pair_arguments(x, y)
        ys = x if y is None else y
        near = self._zero_separation(s)
        dphi = np.asarray(self.phi_and_dphi(s)[1], dtype=float)[..., None, None]
        d2 = np.asarray(self.d2phi(s), dtype=float)[..., None, None]
        eye = np.eye(x.shape[1])
        if near is None:
            h = d2 * (ys[:, :, None] * ys[:, None, :])
            mixed = d2 * (ys[:, :, None] * x[:, None, None, :]) + dphi * eye
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                across = np.where(near[..., None, None], d2, dphi / s[..., None, None])
                u = np.where(near[..., None], 0.0, (x[:, None, :] - ys[None, :, :]) / s[..., None])
            uu = u[..., :, None] * u[..., None, :]
            h = eye - uu
            h *= across
            uu *= d2
            h += uu
            mixed = -h
        if y is None:
            diag = np.arange(len(x))
            h[diag, diag] = 0.0
            mixed[diag, diag] = 0.0
        return h, mixed

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

    # defined at the kinks rho = +-1, where the derivatives raise
    def phi(self, rho):
        return 1.0 - 2.0 * np.arccos(np.clip(rho, -1.0, 1.0)) / np.pi

    @staticmethod
    def _check_kinks(rho):
        if np.any(1.0 - np.abs(rho) < 1e-12):
            raise NonDifferentiablePoint("sign kernel has kinks at rho = +/-1")

    def phi_and_dphi(self, rho):
        self._check_kinks(rho)
        return self.phi(rho), 2.0 / (np.pi * np.sqrt(1.0 - rho * rho))

    def d2phi(self, rho):
        self._check_kinks(rho)
        q = 1.0 - rho * rho
        return 2.0 * rho / (np.pi * q * np.sqrt(q))


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

    def d2phi(self, r):
        rr = np.square(np.minimum(r, self._r_cap))
        return self.c * (self.c * rr - 1.0) * np.exp(rr * (-0.5 * self.c))


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

    def d2phi(self, rho):
        # l = 1 is linear: 0 * rho^0, no 0 * rho^-1
        return self.l * (self.l - 1) * np.asarray(rho) ** max(self.l - 2, 0)


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

    def d2phi(self, r):
        return self.s * self.s * np.exp(-self.s * np.minimum(r, self._r_cap))


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
        # +inf and -inf, silently, at r = 0 and where a power of r underflows; at d = 3
        # the slope squares 1 / r, which numpy rounds alike with and without AVX-512
        with np.errstate(divide="ignore", over="ignore"):
            return r ** (2 - self.d), (2 - self.d) * (1.0 / r) ** (self.d - 1)

    def d2phi(self, r):
        r = np.asarray(r, dtype=float)
        if self.d == 1:  # phi = r, without 0 * inf at r = 0
            return np.zeros_like(r)
        # (2-d)(1-d) / r^d, the power of 1 / r times 1 / r: at d = 3 a square
        # and a product, which round alike with and without AVX-512
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / r
            return (2 - self.d) * (1 - self.d) * inv ** (self.d - 1) * inv


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

    def d2phi(self, r):
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / np.asarray(r, dtype=float)
            return inv * inv


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

"""Radial eigenfunctions of the Laplacian and their bounded tabulated approximations.

The centerpiece kernel family solves ``laplacian(phi) = lam * phi`` away from the
origin with the closed form ``phi(r) = p(r) * exp(-sqrt(lam)*r) / r**(d-2)``.
Because that form blows up at r = 0 it cannot serve as a similarity kernel
directly; :func:`build_almost_harmonic` replaces it below a matching radius
``eps`` by a positive combination of ball-overlap kernels, which keeps the
eigenrelation for ``r >= eps`` while staying bounded at the origin. The
combination is a cone there (its slope at r = 0 is negative), and the
tabulation holds it flat at value 1 below its first positive knot.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EvenDimension,
    GridTooCoarse,
    QuadratureNotConverged,
    TooCloseToOrigin,
    UnsupportedDimension,
)

# the cache file layout and the knot constants below; bump when either changes
SCHEMA_VERSION = 2

# exp(-x) rounds to 0.0 for every x >= this (the smallest subnormal is e^-744.4)
_EXP_UNDERFLOW = 746.0
# absolute agreement between successive Simpson doublings of the construction
_QUADRATURE_TOL = 1e-10

# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------


def _poly_eval(coeffs, r):
    """Horner evaluation; works for numpy arrays and plain scalars."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def _shift_poly(coeffs, m, s):
    """Coefficients of q where d/dr [p(r) e^{-sr} r^{-m}] = -q(r) e^{-sr} r^{-(m+1)}.

    q = (m + s*r) * p - r * p', degree deg(p) + 1, non-negative whenever p is
    and deg(p) < m.
    """
    p = np.asarray(coeffs, dtype=float)
    q = np.zeros(len(p) + 1)
    q[: len(p)] += m * p
    q[1 : len(p) + 1] += s * p
    for i in range(1, len(p)):
        q[i] -= i * p[i]
    return q


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature with interval-halving convergence control
# ---------------------------------------------------------------------------


def _simpson_nodes(a, b, n):
    """Nodes and composite-Simpson weights for n (even) panels on [a, b]."""
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return x, w * (b - a) / (3.0 * n)


def _simpson_doubling(f, a, b, tol, n0, max_doublings):
    """Panel count at which composite Simpson on [a, b], doubling from ``n0``
    panels, first agrees with the previous estimate within ``tol`` (absolute,
    componentwise). ``f`` maps a node array of shape (n,) to values of shape
    (..., n). Raises QuadratureNotConverged otherwise.
    """
    n = n0
    prev = None
    for _ in range(max_doublings):
        x, w = _simpson_nodes(a, b, n)
        est = np.asarray(f(x), dtype=float) @ w
        if prev is not None and np.max(np.abs(est - prev)) <= tol:
            return n
        prev = est
        n *= 2
    raise QuadratureNotConverged(
        f"Simpson on [{a}, {b}] did not reach tol={tol} within {max_doublings} doublings"
    )


# ---------------------------------------------------------------------------
# the exact radial eigenfunction family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaHarmonicRadial:
    """phi(r) = p(r) exp(-sqrt(lam) r) / r^(d-2) with laplacian(phi) = lam*phi for r > 0."""

    d: int
    lam: float
    coeffs: np.ndarray  # ascending, coeffs[0] == 1, length (d-3)/2 + 1

    @property
    def s(self):
        return float(np.sqrt(self.lam))

    def _capped(self, r):
        """(r capped where exp(-s r) becomes 0, exp(-s r)), for lam > 0. The
        factors other than the exp take the capped r, so r = inf gives +-0
        rather than inf * 0, and no power of r overflows."""
        r = np.asarray(r, dtype=float)
        s = self.s
        return np.minimum(r, _EXP_UNDERFLOW / s), np.exp(-s * r)

    def phi(self, r):
        return self.phi_and_deriv(r)[0]

    def phi_and_deriv(self, r):
        """(phi, phi') sharing one exp(-s r)."""
        if self.lam == 0:
            # p = 1: the harmonic r^(2-d), which underflows to 0 unaided
            r = np.asarray(r, dtype=float)
            return r ** (2 - self.d), (2 - self.d) * r ** (1 - self.d)
        r, e = self._capped(r)
        val = _poly_eval(self.coeffs, r) * e / r ** (self.d - 2)
        return val, -_poly_eval(self._slope_poly, r) * e / r ** (self.d - 1)

    @cached_property
    def _slope_poly(self):
        return self.nth_deriv_poly(1)

    def nth_deriv_poly(self, n):
        """Coefficients q_n with phi^(n)(r) = (-1)^n q_n(r) e^{-s r} / r^{d-2+n}."""
        q = np.asarray(self.coeffs, dtype=float)
        for j in range(n):
            q = _shift_poly(q, self.d - 2 + j, self.s)
        return q

    def ode_residual_coeffs(self):
        """Coefficients of r p'' - (d-3 + 2 s r) p' + s (d-3) p; zero iff eigenrelation holds."""
        p = np.asarray(self.coeffs, dtype=float)
        dp = np.polynomial.polynomial.polyder(p)
        ddp = np.polynomial.polynomial.polyder(p, 2)
        n = len(p) + 1
        res = np.zeros(n)
        res[1 : 1 + len(ddp)] += ddp  # r * p''
        res[: len(dp)] -= (self.d - 3) * dp
        res[1 : 1 + len(dp)] -= 2.0 * self.s * dp  # 2 s r p'
        res[: len(p)] += self.s * (self.d - 3) * p
        return res


def lambda_harmonic_poly(d, lam):
    """Build the degree-(d-3)/2 polynomial factor by the coefficient recurrence.

    a_{i+1} (i+1)(i - (d-3)) = a_i sqrt(lam) (2i - (d-3)), a_0 = 1.
    """
    if d % 2 == 0:
        raise EvenDimension(f"odd dimension required, got d={d}")
    if d < 3:
        raise UnsupportedDimension(f"d >= 3 required, got d={d}")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    s = float(np.sqrt(lam))
    k = (d - 3) // 2
    a = np.zeros(k + 1)
    a[0] = 1.0
    for i in range(k):
        a[i + 1] = a[i] * s * (2 * i - (d - 3)) / ((i + 1) * (i - (d - 3)))
    return LambdaHarmonicRadial(d=d, lam=float(lam), coeffs=a)


def radial_laplacian(f, r, d, h):
    """Central-difference estimate of f''(r) + (d-1)/r * f'(r), error O(h^2).

    Plain arithmetic only, so ``f`` may return any numeric type supporting
    +,-,*,/ (floats, mpmath.mpf, ...).
    """
    if r <= 2 * h:
        raise TooCloseToOrigin(f"need r > 2h, got r={r}, h={h}")
    fp = f(r + h)
    fm = f(r - h)
    f0 = f(r)
    second = (fp - 2 * f0 + fm) / (h * h)
    first = (fp - fm) / (2 * h)
    return second + (d - 1) * first / r


# ---------------------------------------------------------------------------
# the bounded construction: exact eigenfunction outside eps, bounded inside
# ---------------------------------------------------------------------------


_KNOTS = 4096
_INNER_FACTOR = 0.01  # first positive knot at eps * _INNER_FACTOR
_R_MAX = 20.0


def _knots(eps):
    """r = 0, then ``_KNOTS`` geometric knots up to ``_R_MAX`` with eps among them."""
    pos = np.geomspace(eps * _INNER_FACTOR, _R_MAX, _KNOTS)
    # eps must be a knot: the kernel is a Laplacian eigenfunction only on
    # one side of it, and an interpolation interval straddling the seam
    # would blend the two regimes.
    spacing = eps * (np.log(_R_MAX / (eps * _INNER_FACTOR)) / (_KNOTS - 1))
    pos = pos[np.abs(pos - eps) > 0.25 * spacing]
    return np.concatenate([[0.0], np.sort(np.append(pos, eps))])


def _base_value(x, eps, r):
    """Matched ball-overlap integral kernel value at r <= eps, diameter parameter x >= eps.

    Closed form obtained by twice integrating the piecewise-linear profile
    {(x-eps)/eps * r on [0,eps], x - r on [eps,x], 0 beyond} down from r = x.
    """
    a = x - eps
    return a**3 / 6.0 + a * a * (eps - r) / 2.0 + a / (2.0 * eps) * (
        eps * eps * (eps - r) - (eps**3 - r**3) / 3.0
    )


def _base_deriv(x, eps, r):
    a = x - eps
    return -(a * (eps * eps - r * r) / (2.0 * eps) + a * a / 2.0)


def _base_tails(eps, r, c, x_hi, m):
    """The integrals over [x_hi, inf) of c x^-m times :func:`_base_value` and
    times :func:`_base_deriv`, from their ascending coefficients in x (a cubic
    and a quadratic, expanded from the a = x - eps forms); needs m > 4."""
    value = [-r**3 / 6.0, (r**3 / eps - eps * eps) / 6.0 + eps * r / 2.0, -r / 2.0, 1.0 / 6.0]
    deriv = [-r * r / 2.0, (eps * eps + r * r) / (2.0 * eps), -0.5]
    # c times the integral of x^(k-m) over [x_hi, inf)
    moments = [c * x_hi ** (k + 1 - m) / (m - 1 - k) for k in range(4)]
    return [sum(p * w for p, w in zip(P, moments)) for P in (value, deriv)]


@dataclass
class TabulatedPotential:
    """Radial kernel tabulation: eigenfunction tail, bounded core.

    Values are normalized so value(0) = 1; ``z`` is the un-normalized value at
    the origin. Evaluation interpolates log(value) against log(r) with a cubic
    Hermite using the tabulated exact slopes, falls back to the closed form
    beyond the last knot, and extends constantly below the first positive knot.
    A cubic whose interval midpoint leaves the range of its knots raises
    GridTooCoarse.

    ``nonincreasing`` certifies that the kernel never rises with r: the knot
    values do not rise and every log-log cubic passes the Fritsch-Carlson test
    (alpha, beta >= 0 and alpha^2 + beta^2 <= 9, a sufficient condition for
    a monotone cubic Hermite). The closed-form tail cannot rise: its
    coefficients are non-negative for every odd d >= 3 and lam >= 0.
    """

    d: int
    eps: float
    lam: float
    r_grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    z: float

    def __post_init__(self):
        r = self.r_grid[1:]
        v = self.values[1:]
        x = np.log(r)
        y = np.log(v)
        # slope in log-log space: d log(v) / d log(r) = r * v' / v
        dydx = r * self.derivs[1:] / v
        coeffs = self._hermite_coeffs(x, y, dydx)
        probe_t = 0.5 * np.diff(x)
        mid = ((coeffs[3, :] * probe_t + coeffs[2, :]) * probe_t + coeffs[1, :]) * probe_t + coeffs[0, :]
        if np.any(y[:-1] - mid < -1e-12) or np.any(mid - y[1:] < -1e-12):
            raise GridTooCoarse("log-log cubic overshoots between knots")
        # derived lookup state, kept out of the dataclass fields
        self._x = x
        self._c = coeffs
        self._tail = lambda_harmonic_poly(self.d, self.lam)
        # Fritsch-Carlson on every log-log cubic, times the secant slope s
        # so a flat interval needs no case: alpha = m0 / s and beta = m1 / s
        # non-negative with alpha^2 + beta^2 <= 9
        s = np.diff(y) / np.diff(x)
        m0, m1 = dydx[:-1], dydx[1:]
        self.nonincreasing = bool(
            np.all(np.diff(self.values) <= 0.0)
            and np.all((m0 * s >= 0.0) & (m1 * s >= 0.0) & (m0 * m0 + m1 * m1 <= 9.0 * s * s))
        )

    @staticmethod
    def _hermite_coeffs(x, y, m):
        """Per-interval cubic coefficients (ascending in t = x - x_k)."""
        h = np.diff(x)
        dy = np.diff(y) / h
        c0 = y[:-1]
        c1 = m[:-1]
        c2 = (3.0 * dy - 2.0 * m[:-1] - m[1:]) / h
        c3 = (m[:-1] + m[1:] - 2.0 * dy) / (h * h)
        return np.stack([c0, c1, c2, c3])

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, r):
        """(value, d value / d r): the constant below the first positive
        knot, the log-log cubic up to the last knot, the closed-form tail
        beyond it and for NaN. Every region is evaluated at every radius
        (clamped into its range) and ``where`` picks per radius."""
        r = np.asarray(r, dtype=float)
        g = self.r_grid
        rc = np.minimum(np.maximum(r, g[1]), g[-1])
        x = np.log(rc)
        # the top knot falls in the last interval
        idx = np.minimum(self._x.searchsorted(x, side="right") - 1, self._x.size - 2)
        t = x - self._x[idx]
        c0, c1, c2, c3 = self._c.take(idx, axis=1)
        v = np.exp(((c3 * t + c2) * t + c1) * t + c0)
        dv = v * ((3.0 * c3 * t + 2.0 * c2) * t + c1) / rc
        tail, slope = self._tail.phi_and_deriv(np.maximum(r, g[-1]))
        below, on_grid = r < g[1], r <= g[-1]
        val = np.where(below, self.values[0], np.where(on_grid, v, tail / self.z))
        der = np.where(below, 0.0, np.where(on_grid, dv, slope / self.z))
        if val.ndim == 0:
            return float(val), float(der)
        return val, der

    def value(self, r):
        """Normalized kernel value; a float for scalar ``r``, else ``r``'s shape."""
        return self._evaluate(r)[0]

    def value_and_deriv(self, r):
        """(value, d value / d r) in one pass."""
        return self._evaluate(r)

    # -- serialization -----------------------------------------------------

    def save(self, path):
        data = {
            "schema_version": SCHEMA_VERSION,
            "d": self.d,
            "eps": self.eps,
            "lam": self.lam,
            "z": self.z,
            "r_grid": self.r_grid.tolist(),
            "values": self.values.tolist(),
            "derivs": self.derivs.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        return cls(
            d=int(data["d"]),
            eps=float(data["eps"]),
            lam=float(data["lam"]),
            r_grid=np.asarray(data["r_grid"], dtype=float),
            values=np.asarray(data["values"], dtype=float),
            derivs=np.asarray(data["derivs"], dtype=float),
            z=float(data["z"]),
        )


def build_almost_harmonic(d, eps, lam=1.0):
    """Tabulate the bounded kernel that is an exact Laplacian eigenfunction for r >= eps.

    Inside [0, eps) the kernel is the weight-(d+1)-derivative mixture of
    matched ball-overlap bases; outside it coincides with
    p(r) e^{-sqrt(lam) r} / r^(d-2) up to the common normalization z.
    """
    if d != 3:
        raise UnsupportedDimension(
            "construction weight uses the closed-form fourth derivative; only d=3 is tabulated"
        )
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    radial = lambda_harmonic_poly(d, lam)
    s = radial.s
    q_weight = radial.nth_deriv_poly(d + 1)  # phi^(d+1) = q e^{-sr}/r^{2d-1}, positive

    def weight(x):
        return _poly_eval(q_weight, x) * np.exp(-s * x) / x ** (2 * d - 1)

    # Truncate where the whole integrand (weight times the cubically growing
    # base value) is negligible; thresholding the weight alone would drop
    # O(1e-4) of tail mass.
    def tail_envelope(x):
        return weight(x) * (1.0 + (x - eps) ** 3 / 6.0)

    g_eps = tail_envelope(eps)
    x_hi = 2.0 * eps
    while tail_envelope(x_hi) > 1e-16 * g_eps:
        x_hi *= 2.0
    knots = _knots(eps)
    below = knots[knots < eps]  # includes r = 0

    # The weight spikes like x^-(2d-1) at eps, so integrate in u = log x where
    # the integrand is smooth. Panel count is established on cheap probe rows
    # (r = 0 and the seam r = eps, which bracket the integrand shapes), then
    # the full knot matrix is evaluated once at that resolution.
    u_lo, u_hi = np.log(eps), np.log(x_hi)

    def probe(u):
        x = np.exp(u)
        wx = weight(x) * x
        return np.stack([wx * _base_value(x, eps, 0.0), wx * _base_value(x, eps, eps)])

    n = _simpson_doubling(probe, u_lo, u_hi, _QUADRATURE_TOL, 512, 8)
    u, wq = _simpson_nodes(u_lo, u_hi, n)
    x = np.exp(u)
    wx = weight(x) * x
    vals_below = (wx[None, :] * _base_value(x[None, :], eps, below[:, None])) @ wq
    derivs_below = (wx[None, :] * _base_deriv(x[None, :], eps, below[:, None])) @ wq

    seam = (wx * _base_value(x, eps, eps)) @ wq
    if s == 0.0:
        # Without the exp factor the integrand decays only like x^-2, so the
        # cut at x_hi drops a mass of order 1/x_hi. Past x_hi the weight is
        # c x^-(2d-1) and each base a polynomial in x: add that tail exactly.
        value_tail, deriv_tail = _base_tails(eps, np.append(below, eps), q_weight[0], x_hi, 2 * d - 1)
        vals_below += value_tail[:-1]
        derivs_below += deriv_tail[:-1]
        seam += value_tail[-1]

    above = knots[knots >= eps]
    vals_above, derivs_above = radial.phi_and_deriv(above)

    # seam consistency: the quadrature must reproduce the closed form at eps
    if abs(seam - radial.phi(eps)) > 1e-6 * abs(radial.phi(eps)):
        raise QuadratureNotConverged(
            f"construction seam mismatch at eps: {seam} vs {radial.phi(eps)}"
        )

    z = float(vals_below[0])
    values = np.concatenate([vals_below, vals_above]) / z
    derivs = np.concatenate([derivs_below, derivs_above]) / z
    if np.any(np.diff(values) > 1e-12) or np.any(derivs > 1e-12):
        raise QuadratureNotConverged("tabulated kernel lost monotonicity")
    return TabulatedPotential(
        d=d,
        eps=float(eps),
        lam=float(lam),
        r_grid=knots,
        values=values,
        derivs=derivs,
        z=z,
    )


# ---------------------------------------------------------------------------
# construction cache
# ---------------------------------------------------------------------------


def cache_dir():
    return os.environ.get(
        "CHARGEFLOW_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "chargeflow")
    )


def cache_key(d, eps, lam):
    blob = json.dumps({"d": d, "eps": eps, "lam": lam, "version": SCHEMA_VERSION}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_or_build_almost_harmonic(d, eps, lam=1.0):
    """Fetch the tabulation from the on-disk cache (``CHARGEFLOW_CACHE_DIR``),
    building and storing on miss."""
    directory = cache_dir()
    path = os.path.join(directory, f"almost_{cache_key(d, eps, lam)}.json")
    if os.path.exists(path):
        return TabulatedPotential.load(path)
    tab = build_almost_harmonic(d, eps, lam)
    os.makedirs(directory, exist_ok=True)
    # a temp file per writer: builds that overlap each move their own file
    # into place, and the last one wins
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        tab.save(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return tab

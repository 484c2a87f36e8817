import dataclasses
import json
import warnings

import mpmath
import numpy as np
import pytest

from chargeflow.errors import (
    EvenDimension,
    GridTooCoarse,
    TooCloseToOrigin,
    UnsupportedDimension,
)
from chargeflow import harmonic
from chargeflow.harmonic import (
    TabulatedPotential,
    build_almost_harmonic,
    cache_key,
    lambda_harmonic_poly,
    load_or_build_almost_harmonic,
    radial_laplacian,
)


class TestRecurrence:
    def test_d3_is_constant(self):
        pot = lambda_harmonic_poly(3, 1.0)
        np.testing.assert_array_equal(pot.coeffs, [1.0])
        r = np.linspace(0.2, 4, 10)
        np.testing.assert_allclose(pot.phi(r), np.exp(-r) / r)

    def test_d7_lam1(self):
        pot = lambda_harmonic_poly(7, 1.0)
        np.testing.assert_allclose(pot.coeffs, [1.0, 1.0, 1.0 / 3.0])

    def test_d7_lam4(self):
        pot = lambda_harmonic_poly(7, 4.0)
        np.testing.assert_allclose(pot.coeffs, [1.0, 2.0, 4.0 / 3.0])

    @pytest.mark.parametrize("d,lam", [(3, 1.0), (5, 2.0), (7, 1.0), (7, 4.0), (11, 1.0), (15, 0.5)])
    def test_ode_residual_vanishes(self, d, lam):
        pot = lambda_harmonic_poly(d, lam)
        np.testing.assert_allclose(pot.ode_residual_coeffs(), 0.0, atol=1e-12)

    def test_coefficients_positive_and_ratio_bounded(self):
        pot = lambda_harmonic_poly(11, 2.0)
        c = pot.coeffs
        assert np.all(c > 0)
        assert np.all(c[1:] <= np.sqrt(2.0) * c[:-1] + 1e-15)

    def test_even_dimension_rejected(self):
        with pytest.raises(EvenDimension):
            lambda_harmonic_poly(4, 1.0)

    def test_derivative_matches_fd(self):
        r = np.linspace(0.3, 5, 20)
        h = 1e-6
        for lam in (2.0, 0.0):  # lam = 0: the harmonic r^-5, no exp cap
            pot = lambda_harmonic_poly(7, lam)
            fd = (pot.phi(r + h) - pot.phi(r - h)) / (2 * h)
            np.testing.assert_allclose(pot.phi_and_deriv(r)[1], fd, rtol=1e-7)


class TestRadialLaplacian:
    def test_quadratic(self):
        # |x|^2 has Laplacian 2d
        assert radial_laplacian(lambda r: r * r, 1.0, 3, 1e-4) == pytest.approx(6.0, abs=1e-6)

    def test_coulomb_harmonic(self):
        assert radial_laplacian(lambda r: 1.0 / r, 2.0, 3, 1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_eigenfunction_value(self):
        f = lambda r: np.exp(-r) / r
        val = radial_laplacian(f, 2.0, 3, 1e-4)
        assert val == pytest.approx(np.exp(-2.0) / 2.0, abs=1e-5)
        assert val == pytest.approx(0.067668, abs=1e-5)

    def test_origin_guard(self):
        with pytest.raises(TooCloseToOrigin):
            radial_laplacian(lambda r: r, 0.1, 3, 0.06)

    def test_second_order_convergence(self):
        f = lambda r: np.exp(-r) / r
        exact = np.exp(-1.5) / 1.5
        errs = [abs(radial_laplacian(f, 1.5, 3, h) - exact) for h in (2e-3, 1e-3)]
        assert errs[1] < errs[0] / 3.0  # O(h^2): halving h quarters the error


class TestConstruction:
    def test_normalized_at_origin(self, almost_table):
        assert almost_table.value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_eigenfunction_tail_ratio(self, almost_table):
        ratio = almost_table.value(1.0) / almost_table.value(2.0)
        assert ratio == pytest.approx(2.0 * np.e, abs=1e-3)

    def test_eigenrelation_outside_eps(self, almost_table):
        tab = almost_table
        lam, eps = tab.lam, tab.eps
        radii = np.concatenate(
            [eps + (10 * eps - eps) * np.arange(1, 51) / 51.0, np.linspace(1.0, 5.0, 50)]
        )
        for r in radii:
            h = min(0.01 * max(1.0, r), (r - eps) / 2.0)
            lap = radial_laplacian(tab.value, r, tab.d, h)
            val = tab.value(r)
            assert abs(lap - lam * val) <= 1e-3 * max(1.0, lam * val)

    def test_monotone_and_nonpositive_slope(self, almost_table):
        assert np.all(np.diff(almost_table.values) <= 1e-12)
        assert np.all(almost_table.derivs <= 1e-12)

    def test_envelope_bound(self, almost_table):
        # normalized tail bound with explicit constant 1 at d=3, lam=1
        tab = almost_table
        r = tab.r_grid[tab.r_grid >= tab.eps]
        vals = tab.values[tab.r_grid >= tab.eps]
        bound = (1.0 + r) ** 3 * np.exp(1.0 - r) / r
        assert np.all(vals <= bound)

    def test_constant_extension_below_grid(self, almost_table):
        tiny = almost_table.r_grid[1] / 4.0
        assert almost_table.value(tiny) == almost_table.values[0]
        assert almost_table.value_and_deriv(tiny)[1] == 0.0

    def test_analytic_tail_beyond_grid(self, almost_table):
        r = almost_table.r_grid[-1] + 4.0
        expected = np.exp(-r) / r / almost_table.z
        assert almost_table.value(r) == pytest.approx(expected, rel=1e-12)

    def test_value_is_value_and_deriv_value(self, almost_table):
        # below r_grid[1], on every knot, at eps, at r_grid[-1] and beyond
        tab = almost_table
        rng = np.random.default_rng(3)
        r = np.concatenate(
            [
                [0.0, tab.r_grid[1] / 2.0, tab.eps, tab.r_grid[-1], tab.r_grid[-1] + 1.0],
                tab.r_grid,
                np.exp(rng.uniform(np.log(tab.r_grid[1]), np.log(tab.r_grid[-1]), 5000)),
                tab.r_grid[-1] + rng.uniform(0.0, 30.0, 500),
            ]
        )
        for x in r[:5]:
            value = tab.value(x)
            assert type(value) is float
            assert value == tab.value_and_deriv(x)[0]
        value = tab.value(np.array(0.5))
        assert type(value) is float
        assert value == tab.value_and_deriv(np.array(0.5))[0] == tab.value(0.5)
        for grid in (r[: 2 * (r.size // 2)].reshape(2, -1), np.empty((0, 3))):
            value, deriv = tab.value_and_deriv(grid)
            assert value.shape == deriv.shape == grid.shape
            np.testing.assert_array_equal(tab.value(grid), value)

    def test_interpolant_derivative_consistency(self, almost_table):
        probe = np.linspace(0.25, 4.0, 100)
        h = 1e-6
        fd = (almost_table.value(probe + h) - almost_table.value(probe - h)) / (2 * h)
        np.testing.assert_allclose(almost_table.value_and_deriv(probe)[1], fd, atol=1e-8)

    def test_matching_radius_is_knot(self, almost_table):
        assert np.any(almost_table.r_grid == almost_table.eps)

    def test_dimension_guards(self):
        with pytest.raises(UnsupportedDimension):
            build_almost_harmonic(5, 0.1)
        with pytest.raises(UnsupportedDimension):
            build_almost_harmonic(7, 0.1)  # weight needs the d=3 closed form
        with pytest.raises(ValueError):
            build_almost_harmonic(3, 1.5)

    def test_lambda_scaling(self):
        tab = build_almost_harmonic(3, 0.1, 4.0)
        # tail is e^{-2r}/r up to normalization
        ratio = tab.value(1.0) / tab.value(2.0)
        assert ratio == pytest.approx((np.exp(-2.0) / 1.0) / (np.exp(-4.0) / 2.0), rel=1e-6)


class TestHarmonicConstruction:
    """lam = 0: the construction whose tail is the harmonic 1/r itself."""

    @pytest.fixture(scope="class", params=[0.1, 0.05])
    def table(self, request):
        return build_almost_harmonic(3, request.param, 0.0)

    def test_origin_value_closed_form(self, table):
        # z * eps = 24 * int_1^inf t^-5 [(t-1)^3/6 + (t-1)^2/2 + (t-1)/3] dt = 8/3
        integrand = lambda t: 24 * t**-5 * ((t - 1) ** 3 / 6 + (t - 1) ** 2 / 2 + (t - 1) / 3)
        exact = mpmath.quad(integrand, [1, mpmath.inf])
        assert abs(exact - mpmath.mpf(8) / 3) < 1e-30
        assert table.z * table.eps == pytest.approx(float(exact), abs=1e-9)

    def test_harmonic_outside_eps(self, table):
        eps = table.eps
        radii = np.concatenate(
            [eps + (10 * eps - eps) * np.arange(1, 51) / 51.0, np.linspace(1.0, 5.0, 50)]
        )
        for r in radii:
            h = min(0.01 * max(1.0, r), (r - eps) / 2.0)
            assert abs(radial_laplacian(table.value, r, table.d, h)) <= 1e-3

    def test_monotone_and_normalized(self, table):
        assert np.all(np.diff(table.values) <= 1e-12)
        assert table.value(0.0) == pytest.approx(1.0, abs=1e-12)


def searchsorted_evaluate(tab, r, deriv):
    """The evaluator the bucketed knot index replaced, kept as an oracle:
    ``searchsorted`` over the log-knots, the column-per-coefficient cubic and
    the closed-form tail, each with its own exp."""
    x = np.log(tab.r_grid[1:])
    y = np.log(tab.values[1:])
    m = tab.r_grid[1:] * tab.derivs[1:] / tab.values[1:]
    c = TabulatedPotential._hermite_coeffs(x, y, m)
    radial = lambda_harmonic_poly(tab.d, tab.lam)
    q1 = radial.nth_deriv_poly(1)
    r = np.asarray(r, dtype=float)
    val = np.empty_like(r)
    der = np.zeros_like(r)
    lo = r < tab.r_grid[1]
    hi = r > tab.r_grid[-1]
    mid = ~lo & ~hi
    val[lo] = tab.values[0]
    q = np.log(r[mid])
    idx = np.minimum(x.searchsorted(q, side="right") - 1, x.size - 2)
    t = q - x[idx]
    c0, c1, c2, c3 = c[:, idx]
    v = np.exp(((c3 * t + c2) * t + c1) * t + c0)
    val[mid] = v
    der[mid] = v * ((3.0 * c3 * t + 2.0 * c2) * t + c1) / r[mid]
    rt = r[hi]
    val[hi] = np.polynomial.polynomial.polyval(rt, radial.coeffs) * np.exp(-radial.s * rt) / rt / tab.z
    der[hi] = -np.polynomial.polynomial.polyval(rt, q1) * np.exp(-radial.s * rt) / rt**2 / tab.z
    return val if not deriv else (val, der)


class TestKnotLookup:
    """The evaluator against an independent ``searchsorted`` oracle; every
    comparison is exact."""

    @pytest.fixture(scope="class")
    def tables(self, almost_table):
        return [almost_table, build_almost_harmonic(3, 0.3, 4.0)]

    def test_evaluator_matches_searchsorted_oracle(self, tables):
        rng = np.random.default_rng(12)
        for tab in tables:
            g = tab.r_grid
            kinds = {
                "below": np.array([0.0, 5e-324, 1e-300, g[1] / 2.0, np.nextafter(g[1], 0.0)]),
                "ends": np.array([g[1], g[-1]]),
                "in-grid": np.concatenate(
                    [
                        g[1:],
                        np.nextafter(g[2:], 0.0),
                        np.nextafter(g[1:-1], np.inf),
                        np.exp(rng.uniform(np.log(g[1]), np.log(g[-1]), 200_000)),
                    ]
                ),
                "tail": np.concatenate(
                    [[np.nextafter(g[-1], np.inf), 1e3, 1e5], g[-1] + rng.exponential(20.0, 20_000)]
                ),
            }
            for kind, r in kinds.items():
                want_val, want_der = searchsorted_evaluate(tab, r, deriv=True)
                np.testing.assert_array_equal(tab.value(r), want_val, err_msg=kind)
                val, der = tab.value_and_deriv(r)
                np.testing.assert_array_equal(val, want_val, err_msg=kind)
                np.testing.assert_array_equal(der, want_der, err_msg=kind)
                for i in range(0, r.size, max(1, r.size // 7)):
                    assert tab.value(r[i]) == want_val[i]
                    assert tab.value_and_deriv(r[i]) == (want_val[i], want_der[i])

    def test_non_finite_radii(self, almost_table):
        tab = almost_table
        r = np.array([np.nan, 0.5, np.inf, 30.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = tab.value(r)
            val2, der = tab.value_and_deriv(r)
            assert np.isnan(tab.value(np.nan))
            beyond = (np.inf, 1e160, 1e300)
            for far in beyond:
                assert tab.value_and_deriv(far) == (0.0, 0.0)
            for d in (3, 7, 11):
                radial = lambda_harmonic_poly(d, 1.0)
                assert np.isnan(radial.phi(np.nan))
                for far in beyond:
                    assert radial.phi(far) == 0.0 and radial.phi_and_deriv(far) == (0.0, 0.0)
            for d in (3, 5, 7):
                # lam = 0: the harmonic r^(2-d), no exp cap
                radial = lambda_harmonic_poly(d, 0.0)
                assert radial.phi(np.inf) == 0.0
                val_inf, der_inf = radial.phi_and_deriv(np.inf)
                assert val_inf == 0.0 and der_inf == 0.0 and np.signbit(der_inf)
                far = np.array([1e10, 1e100, 1e150, 1e300])
                want = [1e-10 ** (d - 2), 1e-100 ** (d - 2), 1e-150 ** (d - 2), 0.0]
                if d == 3:
                    want[-1] = 1e-300
                    assert radial.phi(1e300) == 1e-300
                np.testing.assert_allclose(radial.phi(far), want, rtol=1e-14, atol=0)
                np.testing.assert_array_equal(radial.phi_and_deriv(far)[0], radial.phi(far))
        np.testing.assert_array_equal(val, val2)
        assert np.isnan(val[[0, 4]]).all() and np.isnan(der[[0, 4]]).all()
        assert val[2] == 0.0 and der[2] == 0.0
        finite = [1, 3]
        np.testing.assert_array_equal(val[finite], tab.value(r[finite]))
        np.testing.assert_array_equal(der[finite], tab.value_and_deriv(r[finite])[1])


class TestMonotoneCertificate:
    """``nonincreasing``, the property exact init pruning rests on."""

    @pytest.mark.parametrize("eps,lam", [(0.1, 1.0), (0.05, 1.0), (0.1, 0.0)])
    def test_built_tables_certified(self, eps, lam, almost_table, almost_table_fine):
        tables = {(0.1, 1.0): almost_table, (0.05, 1.0): almost_table_fine}
        tab = tables.get((eps, lam)) or build_almost_harmonic(3, eps, lam)
        assert tab.nonincreasing
        # the certificate's claim, on a fine grid across the seam and r_max
        assert np.all(np.diff(tab.value(np.linspace(0.0, 25.0, 200_001))) <= 0.0)

    def test_steep_slopes_fail_fritsch_carlson(self, almost_table):
        # slopes 4x the secants keep every cubic's midpoint at the knots'
        # mean (the overshoot check passes) while the cubic rises inside
        tab = dataclasses.replace(almost_table, derivs=4.0 * almost_table.derivs)
        assert not tab.nonincreasing
        assert np.any(np.diff(tab.value(np.linspace(0.0, 10.0, 100_001))) > 0.0)

    def test_rising_knot_uncertified(self, almost_table):
        # a knot value raised past its left neighbour (the cubics still pass
        # the overshoot check: the raised knot's slope is kept)
        values = almost_table.values.copy()
        values[1] = values[0] * 1.01
        assert not dataclasses.replace(almost_table, values=values).nonincreasing


class TestSerializationAndCache:
    def test_round_trip(self, almost_table, tmp_path):
        path = tmp_path / "tab.json"
        almost_table.save(path)
        again = TabulatedPotential.load(path)
        probe = np.linspace(0.0, 6.0, 50)
        np.testing.assert_array_equal(again.value(probe), almost_table.value(probe))
        np.testing.assert_array_equal(
            again.value_and_deriv(probe)[1], almost_table.value_and_deriv(probe)[1]
        )
        assert again.z == almost_table.z

    @pytest.mark.parametrize("key,bad,error", [("d", 4, EvenDimension), ("lam", -1.0, ValueError)])
    def test_load_validates_the_tail(self, almost_table, tmp_path, key, bad, error):
        # the closed-form tail is rebuilt from (d, lam), which checks them
        path = tmp_path / "tab.json"
        almost_table.save(path)
        data = json.loads(path.read_text())
        data[key] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(error):
            TabulatedPotential.load(path)

    def test_overshooting_slopes_rejected(self, almost_table):
        # one knot's slope scaled past 5x its neighbours' pushes the cubic's
        # midpoint, y_mid = (y0 + y1)/2 + h (m0 - m1)/8, outside [y1, y0]
        derivs = almost_table.derivs.copy()
        derivs[derivs.size // 2] *= 10.0
        with pytest.raises(GridTooCoarse, match="log-log cubic overshoots between knots"):
            dataclasses.replace(almost_table, derivs=derivs)

    def test_cache_key_sensitivity(self, monkeypatch):
        base = cache_key(3, 0.1, 1.0)
        assert cache_key(3, 0.2, 1.0) != base
        assert cache_key(3, 0.1, 2.0) != base
        # the schema version stands for the knot constants
        monkeypatch.setattr(harmonic, "SCHEMA_VERSION", harmonic.SCHEMA_VERSION + 1)
        assert cache_key(3, 0.1, 1.0) != base

    def test_load_or_build_uses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEFLOW_CACHE_DIR", str(tmp_path))
        first = load_or_build_almost_harmonic(3, 0.2, 1.0)
        assert len(list(tmp_path.iterdir())) == 1
        second = load_or_build_almost_harmonic(3, 0.2, 1.0)
        np.testing.assert_array_equal(first.values, second.values)

    def test_overlapping_cold_builds(self, tmp_path, monkeypatch):
        # a second build of the same kernel starts and finishes while the
        # first is writing; each must move its own file into place
        monkeypatch.setenv("CHARGEFLOW_CACHE_DIR", str(tmp_path))
        save = TabulatedPotential.save
        nested = []

        def save_then_build(tab, path):
            save(tab, path)
            # the second build writes through the plain save
            monkeypatch.setattr(TabulatedPotential, "save", save)
            nested.append(load_or_build_almost_harmonic(3, 0.2, 1.0))

        monkeypatch.setattr(TabulatedPotential, "save", save_then_build)
        first = load_or_build_almost_harmonic(3, 0.2, 1.0)
        assert [p.name for p in tmp_path.iterdir()] == [f"almost_{cache_key(3, 0.2, 1.0)}.json"]
        np.testing.assert_array_equal(first.values, nested[0].values)
        np.testing.assert_array_equal(TabulatedPotential.load(next(tmp_path.iterdir())).values, first.values)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEFLOW_CACHE_DIR", str(tmp_path))
        def fail(tab, path):
            with open(path, "w") as fh:
                fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(TabulatedPotential, "save", fail)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_almost_harmonic(3, 0.2, 1.0)
        assert list(tmp_path.iterdir()) == []

import numpy as np
import pytest

from chargeflow import harmonic
from chargeflow.errors import (
    DimensionMismatch,
    GridTooCoarse,
    NegativeCoefficient,
    NonDifferentiablePoint,
    NonFiniteSample,
    OffManifold,
    SingularDiagonal,
    UnsupportedDimension,
)
from chargeflow.harmonic import LambdaHarmonicRadial
from chargeflow.potentials import (
    BesselK0Activation,
    BesselK1RadialActivation,
    GaussianActivation,
    GaussianPotential,
    HermiteActivation,
    HermiteDualPotential,
    LaplaceExpPotential,
    PolynomialPotential,
    SignActivation,
    SignPotential,
    activation_from_potential_taylor,
    dual_from_hermite,
    empirical_dual,
    hermite_eval,
    min_separation,
    pair_distances,
    parse_potential,
    realizability_certificate_radial,
)

from conftest import README_KERNEL_IDS, eval_potential, separated_points


def unit(v):
    return v / np.linalg.norm(v)


def sphere_pair(rng, d, rho):
    """Unit vectors with prescribed inner product."""
    u = unit(rng.standard_normal(d))
    x = rng.standard_normal(d)
    x -= (x @ u) * u
    x = unit(x)
    return u, rho * u + np.sqrt(1.0 - rho * rho) * x


class TestEvalPotential:
    def test_sign_identical(self):
        th = np.array([1.0, 0.0, 0.0])
        assert eval_potential(SignPotential(), th, th) == 1.0

    def test_sign_orthogonal(self):
        th = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        assert eval_potential(SignPotential(), th, w) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_unit_separation(self):
        val = eval_potential(GaussianPotential(1.0), np.zeros(3), np.array([1.0, 0, 0]))
        assert val == pytest.approx(0.60653, abs=5e-6)

    def test_raw_eigenfunction_diagonal_raises(self):
        pot = LambdaHarmonicRadial(3, 1.0)
        th = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularDiagonal):
            eval_potential(pot, th, th)
        assert pot.finite_diagonal  # the loss takes the normalized limit 1.0

    def test_off_manifold(self):
        with pytest.raises(OffManifold):
            eval_potential(SignPotential(), np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_potential(GaussianPotential(), np.zeros(3), np.zeros(4))

    def test_symmetry(self, almost_table):
        rng = np.random.default_rng(12)
        kinds = [
            GaussianPotential(0.7),
            LambdaHarmonicRadial(3, 1.0),
            almost_table,
            LaplaceExpPotential(1.0),
        ]
        for pot in kinds:
            for _ in range(1000):
                th, w = rng.standard_normal((2, 3))
                assert abs(
                    eval_potential(pot, th, w) - eval_potential(pot, w, th)
                ) <= 1e-12
        for pot in [SignPotential(), PolynomialPotential(3), HermiteDualPotential([1, 2, 0.5])]:
            for _ in range(1000):
                th = unit(rng.standard_normal(3))
                w = unit(rng.standard_normal(3))
                assert abs(
                    eval_potential(pot, th, w) - eval_potential(pot, w, th)
                ) <= 1e-12

    def test_sign_gradient_kink(self):
        th = np.array([1.0, 0.0])
        with pytest.raises(NonDifferentiablePoint):
            SignPotential().grad_theta(th, th)


class TestHermiteDuality:
    def test_constant(self):
        np.testing.assert_array_equal(dual_from_hermite([1.0]), [1.0])

    def test_linear(self):
        np.testing.assert_array_equal(dual_from_hermite([0.0, 1.0]), [0.0, 1.0])

    def test_squares(self):
        np.testing.assert_array_equal(dual_from_hermite([1.0, 2.0]), [1.0, 4.0])

    def test_inverse_examples(self):
        np.testing.assert_array_equal(
            activation_from_potential_taylor([0.0, 0.0, 0.0, 1.0]), [0.0, 0.0, 0.0, 1.0]
        )
        np.testing.assert_array_equal(activation_from_potential_taylor([1.0]), [1.0])
        np.testing.assert_array_equal(
            activation_from_potential_taylor([0.25, 0.0, 0.09]), [0.5, 0.0, 0.3]
        )

    def test_negative_coefficient(self):
        with pytest.raises(NegativeCoefficient) as err:
            activation_from_potential_taylor([0.5, -0.25, 1.0])
        assert err.value.index == 1

    def test_round_trip_exact_on_dyadics(self):
        rng = np.random.default_rng(3)
        # coefficients that are exact squares of dyadic rationals
        base = rng.integers(0, 64, size=8) / 32.0
        coeffs = base * base
        np.testing.assert_array_equal(
            dual_from_hermite(activation_from_potential_taylor(coeffs)), coeffs
        )

    def test_orthonormal_hermite_normalization(self):
        # E[h_i(X)^2] = 1 under the standard normal
        rng = np.random.default_rng(4)
        x = rng.standard_normal(400_000)
        for i in range(5):
            coeffs = np.zeros(i + 1)
            coeffs[i] = 1.0
            vals = hermite_eval(coeffs, x)
            assert np.mean(vals * vals) == pytest.approx(1.0, abs=2e-2)


class TestEmpiricalDual:
    def test_sign_closed_form(self):
        rng = np.random.default_rng(0)
        th, w = sphere_pair(rng, 3, 0.5)
        est, se = empirical_dual(SignActivation(3), th, w, 400_000, seed=7)
        assert abs(est - (1.0 / 3.0)) <= 4 * se

    def test_diagonal_normalization(self):
        th = unit(np.array([0.3, -1.2, 0.5]))
        est, se = empirical_dual(SignActivation(3), th, th, 10_000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)  # sign^2 == 1 exactly

    def test_gaussian_identity_1d(self):
        act = GaussianActivation(c=1.0, d=1)
        est, se = empirical_dual(act, np.array([0.0]), np.array([1.0]), 400_000, seed=2)
        assert abs(est - np.exp(-0.5)) <= 4 * se

    def test_gaussian_3d_constant_validates_dimension_exponent(self):
        # the (4c)^{d/4} normalization is what makes the d=3 diagonal equal 1
        act = GaussianActivation(c=2.0, d=3)
        th = np.array([0.2, -0.1, 0.4])
        est, se = empirical_dual(act, th, th, 300_000, seed=3)
        assert abs(est - 1.0) <= 4 * se

    def test_bessel_pair_1d(self):
        act = BesselK0Activation()
        est, se = empirical_dual(act, np.array([0.3]), np.array([-0.4]), 300_000, seed=5)
        assert abs(est - np.exp(-0.7)) <= 4 * se

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        th, w = sphere_pair(rng, 3, -0.2)
        act = HermiteActivation([0.0, 1.0], 3)
        assert empirical_dual(act, th, w, 250_000, seed=11) == empirical_dual(
            act, th, w, 250_000, seed=11
        )

    def test_non_finite_detection(self):
        class Overflowing:
            name = "overflow"
            manifold = "euclidean"
            d = 1

            def eval(self, x, weight):
                return np.exp(np.sum(x * x, axis=-1) * 500.0)

        with pytest.raises(NonFiniteSample):
            empirical_dual(Overflowing(), np.zeros(1), np.zeros(1), 50_000, seed=0)

    def test_paired_form_used_for_gaussian(self):
        # the log-sum form against the direct product on the same Philox draws
        # (one chunk, so the estimate is the plain mean of the products)
        act = GaussianActivation(c=1.0, d=2)
        th = np.array([0.1, 0.2])
        w = np.array([-0.3, 0.4])
        n = 100_000
        rng = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
        x = rng.standard_normal((n, 2))
        direct = act.eval(x, th) * act.eval(x, w)
        est, se = empirical_dual(act, th, w, n, seed=4)
        assert est == pytest.approx(direct.mean(), rel=1e-12)
        assert se == pytest.approx(direct.std(ddof=1) / np.sqrt(n), rel=1e-9)


class TestGramPositivity:
    @pytest.mark.parametrize(
        "kind",
        ["gauss", "sign", "poly", "hermite", "exp1d", "almost"],
    )
    def test_min_eigenvalue(self, kind, almost_table):
        rng = np.random.default_rng(17)
        for _ in range(10):
            if kind in ("sign", "poly", "hermite"):
                pts = rng.standard_normal((8, 3))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                pot = {
                    "sign": SignPotential(),
                    "poly": PolynomialPotential(2),
                    "hermite": HermiteDualPotential([0.5, 1.0, 0.25]),
                }[kind]
            else:
                pts = rng.standard_normal((8, 3)) * 1.5
                pot = {
                    "gauss": GaussianPotential(1.0),
                    "exp1d": LaplaceExpPotential(1.0),
                    "almost": almost_table,
                }[kind]
            gram = pot.pairwise(pts, pts)
            np.fill_diagonal(gram, 1.0)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-8


class TestPairCore:
    """pairwise/pairwise_grad against the scalar eval_potential path, with
    central differences as the gradient oracle."""

    IDS = ["gauss:c=0.7", "exp1d:lambda=1", "almost:eps=0.1,lambda=1,d=3",
           "explh:lambda=1,d=3", "coulomb:d=3", "log", "sign", "poly:l=3", "hermite-dual"]

    @staticmethod
    def kernel(kind):
        if kind == "hermite-dual":
            return HermiteDualPotential([0.2, 1.0, 0.4])
        return parse_potential(kind)

    @staticmethod
    def fd_grad(pot, x, y, h=1e-6):
        """Central differences of eval_potential in x; on the sphere along an
        orthonormal tangent basis, moving x on the sphere."""
        if pot.manifold == "sphere":
            q, _ = np.linalg.qr(np.column_stack([x, np.eye(len(x))]))
            basis = q[:, 1:].T
            move = lambda t, e: unit(x + t * e)
        else:
            basis = np.eye(len(x))
            move = lambda t, e: x + t * e
        fd = np.array([(eval_potential(pot, move(h, e), y) - eval_potential(pot, move(-h, e), y)) / (2 * h)
                       for e in basis])
        return basis, fd

    @pytest.mark.parametrize("kind", IDS + ["explh:lambda=1,d=7"])
    def test_value_and_slope_contract(self, kind):
        # phi_and_dphi's value is phi's, bit for bit; its slope matches
        # central differences of phi in the pair argument
        pot = self.kernel(kind)
        s = np.linspace(-0.9, 0.9, 37) if pot.manifold == "sphere" else np.linspace(0.3, 25.0, 60)
        val, slope = pot.phi_and_dphi(s)
        np.testing.assert_array_equal(val, pot.phi(s))
        h = 1e-6
        fd = (pot.phi(s + h) - pot.phi(s - h)) / (2 * h)
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize(
        "kind", README_KERNEL_IDS + ("exp1d:lambda=0", "explh:lambda=0,d=3", "coulomb:d=1", "hermite-dual")
    )
    def test_phi_is_the_value_of_phi_and_dphi(self, kind, almost_table):
        # byte for byte, signed zeros and NaN included, for arrays and scalars
        pot = self.kernel(kind)
        if pot.manifold == "sphere":
            s = np.concatenate([[0.0, 5e-324, -5e-324, np.nan], np.linspace(-1.0, 1.0, 4097)])
            if kind == "sign":
                s = s[np.isnan(s) | (np.abs(s) < 1.0 - 1e-12)]
        else:
            g = almost_table.r_grid
            s = np.concatenate([[0.0, 5e-324, g[-1], 1e200, np.inf, np.nan], g])
        for arg in (s, *s[:6]):
            value, want = pot.phi(arg), pot.phi_and_dphi(arg)[0]
            assert type(value) is type(want)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes()

    def test_sign_phi_is_defined_at_its_kinks(self):
        pot = SignPotential()
        np.testing.assert_array_equal(pot.phi(np.array([-1.0, 1.0])), [-1.0, 1.0])
        for rho in (-1.0, 1.0):
            with pytest.raises(NonDifferentiablePoint):
                pot.phi_and_dphi(rho)

    @pytest.mark.parametrize("kind", ["explh:lambda=1,d=3", "coulomb:d=3", "log", "coulomb:d=1"])
    def test_raw_singular_kernels_are_silent_near_zero(self, kind):
        # a RuntimeWarning (divide by zero, overflow) fails the test as an error
        pot = parse_potential(kind)
        r = np.array([0.0, 5e-324, 1e-300])
        val, slope = pot.phi_and_dphi(r)
        assert not np.isnan(val).any() and not np.isnan(slope).any()
        np.testing.assert_array_equal(pot.phi(r), val)
        if kind == "coulomb:d=1":
            np.testing.assert_array_equal(val, r)
            np.testing.assert_array_equal(slope, 1.0)
        else:
            assert val[0] == np.inf and slope[0] == -np.inf
        # the block paths still refuse zero separation with a typed error
        x = np.zeros((1, pot.d))
        with pytest.raises(SingularDiagonal):
            pot.pairwise(x, x + 1e-12)

    @pytest.mark.parametrize(
        "kind",
        [i for i in README_KERNEL_IDS if i.partition(":")[0] not in ("sign", "poly")]
        + ["exp1d:lambda=0", "explh:lambda=0,d=3"],
    )
    def test_far_tail_is_not_nan(self, kind):
        # a RuntimeWarning (overflow, inf * 0) fails the test as an error
        pot = parse_potential(kind)
        r = np.array([1e200, np.inf])
        val, slope = pot.phi_and_dphi(r)
        assert not np.isnan(pot.phi(r)).any()
        assert not np.isnan(val).any() and not np.isnan(slope).any()

    @pytest.mark.parametrize("kind", IDS)
    def test_blocks_match_scalar_oracle(self, kind):
        pot = self.kernel(kind)
        rng = np.random.default_rng(31)
        d = getattr(pot, "d", 3)
        if pot.manifold == "sphere":
            pts = rng.standard_normal((7, d))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        else:
            pts = separated_points(rng, 7, d, scale=2.0, min_sep=0.5)
        x, y = pts[:3], pts[3:]
        for block_y, self_pairs in ((y, False), (x, True)):
            k, g = pot.pairwise_grad(x, None if self_pairs else y)
            np.testing.assert_array_equal(pot.pairwise(x, None if self_pairs else y), k)
            assert g.shape == (len(x), len(block_y), d)
            for i in range(len(x)):
                for j in range(len(block_y)):
                    if self_pairs and i == j:
                        assert k[i, j] == 0.0 and not np.any(g[i, j])
                        continue
                    assert k[i, j] == pytest.approx(eval_potential(pot, x[i], block_y[j]), rel=1e-12)
                    basis, fd = self.fd_grad(pot, x[i], block_y[j])
                    np.testing.assert_allclose(basis @ g[i, j], fd, rtol=1e-6, atol=1e-8)


class TestRetract:
    @pytest.mark.parametrize("kind", TestPairCore.IDS)
    def test_unit_rows_on_the_sphere_identity_off_it(self, kind):
        pot = TestPairCore.kernel(kind)
        x = np.random.default_rng(12).standard_normal((5, 3)) * 3.0
        if pot.manifold != "sphere":
            assert pot.retract(x) is x
            return
        out = pot.retract(x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.sum(out * x, axis=1), np.linalg.norm(x, axis=1), rtol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(pot.retract(x[0])), 1.0, rtol=0, atol=1e-15)


class TestPairDistances:
    @staticmethod
    def block_oracle(x, y):
        vec = x[:, None, :] - y[None, :, :]
        return np.sqrt(np.sum(vec * vec, axis=-1))

    def test_bit_equal_at_d3(self):
        rng = np.random.default_rng(41)
        x, y = rng.standard_normal((2000, 3)) * 7.0, rng.standard_normal((5, 3)) * 3.0
        np.testing.assert_array_equal(pair_distances(x, y), self.block_oracle(x, y))
        pot = GaussianPotential(0.3)
        np.testing.assert_array_equal(pot.pairwise(x, y), pot.phi(self.block_oracle(x, y)))
        k, g = pot.pairwise_grad(x[:40], y)
        np.testing.assert_array_equal(k, pot.pairwise(x[:40], y))
        dist = self.block_oracle(x[:40], y)
        vec = x[:40, None, :] - y[None, :, :]
        np.testing.assert_array_equal(g, (pot.phi_and_dphi(dist)[1] / dist)[:, :, None] * vec)

    def test_far_points_are_inf_apart(self):
        # an overflow RuntimeWarning would fail the test as an error
        for axis in range(3):
            far = np.zeros((1, 3))
            far[0, axis] = 1e200
            np.testing.assert_array_equal(pair_distances(np.zeros((1, 3)), far), [[np.inf]])
            assert min_separation(np.vstack([np.zeros((1, 3)), far])) == np.inf

    def test_close_at_d10(self):
        rng = np.random.default_rng(42)
        x, y = rng.standard_normal((300, 10)), rng.standard_normal((7, 10))
        np.testing.assert_allclose(pair_distances(x, y), self.block_oracle(x, y), rtol=1e-14)
        oracle = self.block_oracle(x, x)
        np.fill_diagonal(oracle, np.inf)
        assert min_separation(x) == pytest.approx(oracle.min(), rel=1e-14)


class TestRealizabilityCertificate:
    def test_gaussian_d3(self):
        r = np.linspace(1e-4, 40.0, 2**14)
        cert = realizability_certificate_radial(r, np.exp(-r * r / 2.0), 3)
        assert cert.realizable

    def test_eigenfunction_d3(self):
        r = np.linspace(1e-4, 40.0, 2**14)
        cert = realizability_certificate_radial(r, np.exp(-r) / r, 3)
        assert cert.realizable

    def test_damped_cosine_d1(self):
        # The transform of cos(r) e^{-0.01 r} is a pair of narrow positive
        # Lorentzians at frequency 1; on a properly decayed grid the
        # certificate comes out Realizable (verified analytically:
        # a/(a^2+(w-1)^2) + a/(a^2+(w+1)^2) > 0).
        r = np.linspace(0.0, 1400.0, 2**14)
        cert = realizability_certificate_radial(r, np.cos(r) * np.exp(-0.01 * r), 1)
        assert cert.realizable

    def test_offset_bump_not_certified(self):
        r = np.linspace(0.0, 40.0, 2**14)
        cert = realizability_certificate_radial(r, np.exp(-((r - 2.0) ** 2)), 1)
        assert not cert.realizable
        assert cert.min_transform < -1e-2
        assert cert.omega_min > 0

    def test_tail_decay_guard(self):
        r = np.linspace(0.0, 3.0, 2**10)
        with pytest.raises(GridTooCoarse):
            realizability_certificate_radial(r, np.exp(-r), 1)  # e^-3 tail too fat

    def test_nyquist_guard(self):
        r = np.linspace(0.0, 40.0, 2**12)
        h = r[1] - r[0]
        with pytest.raises(GridTooCoarse):
            realizability_certificate_radial(
                r, np.exp(-r * r), 1, omega=np.linspace(0, 2 * np.pi / h, 64)
            )

    def test_unsupported_dimension(self):
        r = np.linspace(0.0, 40.0, 2**12)
        with pytest.raises(UnsupportedDimension):
            realizability_certificate_radial(r, np.exp(-r * r), 2)


class TestRegistry:
    @pytest.mark.parametrize(
        "ident,cls",
        [
            ("sign", SignPotential),
            ("gauss:c=2.0", GaussianPotential),
            ("explh:lambda=1,d=3", LambdaHarmonicRadial),
            ("poly:l=3", PolynomialPotential),
            ("exp1d:lambda=1", LaplaceExpPotential),
        ],
    )
    def test_parse(self, ident, cls):
        assert isinstance(parse_potential(ident), cls)

    def test_parse_almost_uses_loader(self, almost_table, monkeypatch):
        # the cache loader is the one way an "almost" id gets its tabulation
        calls = []

        def load(d, eps, lam):
            calls.append((d, eps, lam))
            return almost_table

        monkeypatch.setattr(harmonic, "load_or_build_almost_harmonic", load)
        pot = parse_potential("almost:eps=0.1,lambda=1,d=3")
        assert pot is almost_table
        assert calls == [(3, 0.1, 1.0)]

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_potential("mystery:x=1")

    def test_kernels_compare_by_identity(self):
        # as every kernel class does; field-wise equality would compare arrays
        pots = [parse_potential(ident) for ident in README_KERNEL_IDS + ("explh:lambda=1,d=5",)]
        assert len(set(pots)) == len(pots)
        assert all(p == p and p != parse_potential(p.name) for p in pots)

    @pytest.mark.parametrize("ident", README_KERNEL_IDS)
    def test_name_is_an_id_of_the_same_kernel(self, ident):
        name = parse_potential(ident).name
        assert parse_potential(name).name == name

    @pytest.mark.parametrize(
        "kind,name",
        [
            ("sign", "sign"),
            ("gauss", "gauss:c=1"),
            ("explh", "explh:lambda=1,d=3"),
            ("poly", "poly:l=1"),
            ("almost", "almost:eps=0.1,lambda=1,d=3"),
            ("exp1d", "exp1d:lambda=1"),
            ("coulomb", "coulomb:d=3"),
            ("log", "log"),
        ],
    )
    def test_bare_kind_builds_its_default(self, kind, name):
        assert parse_potential(kind).name == name

    @pytest.mark.parametrize(
        "build,key",
        [
            ("explh:lamda=4,d=3", "lamda"),
            ("gauss:sigma=3", "sigma"),
            ("gauss:c=1,c=2", "c"),
            ("gauss:c", "c"),
            ("poly:l=2.5", "l"),
            ("coulomb:d=3.5", "d"),
            ("coulomb:d=0", "d"),
            ("coulomb:d=-1", "d"),
            ("gauss:c=-1", "c"),
            ("gauss:c=nan", "c"),
            ("exp1d:lambda=-1", "lambda"),
            ("explh:lambda=inf,d=3", "lambda"),
            (lambda: GaussianPotential(np.inf), "c"),
            (lambda: LaplaceExpPotential(-1.0), "lambda"),
            (lambda: LambdaHarmonicRadial(3, np.nan), "lambda"),
            (lambda: LambdaHarmonicRadial(3.5, 1.0), "d"),
        ],
    )
    def test_bad_parameter_names_the_key(self, build, key):
        # an id goes through parse_potential; a callable is a library call
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            parse_potential(build) if isinstance(build, str) else build()


class TestBesselK1:
    def test_matches_eigenfunction_kernel_loosely(self):
        # heavy-tailed estimator: only a coarse agreement check; the pair is
        # properly certified through the Fourier route
        act = BesselK1RadialActivation()
        est, _ = empirical_dual(act, np.zeros(3), np.array([1.0, 0, 0]), 500_000, seed=13)
        assert abs(est - np.exp(-1.0)) < 0.05

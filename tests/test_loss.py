import numpy as np
import pytest

from chargeflow.descent import min_eigpair
from chargeflow.errors import (
    DimensionMismatch,
    NonDifferentiablePoint,
    NonFiniteSample,
    OffManifold,
    SingularDiagonal,
)
from chargeflow.harmonic import LambdaHarmonicRadial, TabulatedPotential
from chargeflow.landscape import poly_orthonormal_check
from chargeflow.loss import (
    Hypothesis,
    NodeObjective,
    Objective,
    TargetNetwork,
    VectorObjective,
    fd_hessian,
    theta_laplacian,
)
from chargeflow.potentials import (
    CoulombPotential,
    GaussianPotential,
    HermiteDualPotential,
    LogPotential,
    PolynomialPotential,
    SignPotential,
    parse_potential,
)

from conftest import fd_gradient, separated_points


def packed_hessian(obj, hyp, h):
    """The loss Hessian over the packed (a, theta) vector."""
    vec = VectorObjective(obj, hyp.k, hyp.d)
    return vec.hess(vec.pack(hyp), h)


def rand_objective(rng, k=3, d=3, c=0.7, reg="none"):
    tgt = TargetNetwork(w=rng.standard_normal((k, d)), b=rng.uniform(-1, 1, k))
    return Objective(GaussianPotential(c), tgt, regularization=reg)


class TestLossValue:
    def test_matched_minimum_is_zero(self):
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.zeros((1, 3)), b=[1.0]))
        assert obj.loss(Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])) == 0.0

    def test_block_expansion(self):
        # phi = 0.5 cross term, unit diagonals: 1 + 2*0.5 + 1 = 3
        r = np.sqrt(2.0 * np.log(2.0))
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.zeros((1, 3)), b=[1.0]))
        hyp = Hypothesis(theta=np.array([[r, 0.0, 0.0]]), a=[1.0])
        assert obj.loss(hyp) == pytest.approx(3.0, abs=1e-12)

    def test_zero_hypothesis_baseline(self):
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.zeros((1, 3)), b=[1.0]))
        assert obj.baseline() == 1.0
        hyp = Hypothesis(theta=np.ones((1, 3)), a=[0.0])
        assert obj.loss(hyp) == obj.baseline()

    def test_charge_regularization_adds_norm(self):
        rng = np.random.default_rng(0)
        plain = rand_objective(rng, reg="none")
        reg = Objective(plain.potential, plain.target, regularization="charge")
        hyp = Hypothesis(theta=rng.standard_normal((3, 3)), a=rng.uniform(-1, 1, 3))
        assert reg.loss(hyp) == pytest.approx(plain.loss(hyp) + float(hyp.a @ hyp.a), abs=1e-12)

    @pytest.mark.parametrize("kind", ["gauss", "sign", "poly", "hermite"])
    def test_nonnegative_for_realizable_kernels(self, kind):
        rng = np.random.default_rng(1)
        pots = {
            "gauss": GaussianPotential(1.3),
            "sign": SignPotential(),
            "poly": PolynomialPotential(2),
            "hermite": HermiteDualPotential([0.2, 1.0, 0.4]),
        }
        pot = pots[kind]
        sphere = pot.manifold == "sphere"
        for _ in range(1000):
            w = rng.standard_normal((2, 3))
            th = rng.standard_normal((2, 3))
            if sphere:
                w /= np.linalg.norm(w, axis=1, keepdims=True)
                th /= np.linalg.norm(th, axis=1, keepdims=True)
            obj = Objective(pot, TargetNetwork(w=w, b=rng.uniform(-1, 1, 2)))
            val = obj.loss(Hypothesis(theta=th, a=rng.uniform(-1, 1, 2)))
            assert val >= -1e-9

    def test_permutation_invariance(self):
        # the identity is exact; the evaluation reassociates sums under the
        # permutation, so equality holds to machine rounding
        rng = np.random.default_rng(2)
        obj = rand_objective(rng)
        theta = rng.standard_normal((4, 3))
        a = rng.uniform(-1, 1, 4)
        perm = np.array([2, 0, 3, 1])
        v1 = obj.loss(Hypothesis(theta=theta, a=a))
        v2 = obj.loss(Hypothesis(theta=theta[perm], a=a[perm]))
        assert abs(v1 - v2) <= 4 * np.finfo(float).eps * max(1.0, abs(v1))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        obj = rand_objective(rng, d=3)
        with pytest.raises(DimensionMismatch):
            obj.loss(Hypothesis(theta=np.zeros((1, 4)), a=[1.0]))

    @pytest.mark.parametrize(
        "ident,d", [("explh:lambda=1,d=3", 5), ("coulomb:d=3", 2), ("log", 3)]
    )
    def test_kernel_of_another_dimension(self, ident, d):
        # the same check, and message, as eval_potential
        with pytest.raises(DimensionMismatch, match=rf"expects dimension \d, got {d}"):
            Objective(parse_potential(ident), TargetNetwork(w=np.ones((1, d)), b=[1.0]))

    def test_non_unit_sphere_target(self):
        # the same unit-norm check, and error type, as eval_potential
        with pytest.raises(OffManifold, match="poly:l=3"):
            Objective(parse_potential("poly:l=3"), TargetNetwork(w=[[0.6, 0.8, 0.1]], b=[1.0]))

    def test_singular_kernel_collision(self):
        pot = LambdaHarmonicRadial(3, 1.0)
        w = np.array([[1.0, 0.0, 0.0]])
        obj = Objective(pot, TargetNetwork(w=w, b=[1.0]))
        with pytest.raises(SingularDiagonal):
            obj.loss(Hypothesis(theta=w.copy(), a=[-1.0]))


class TestGradient:
    def test_matched_minimum_gradient_vanishes(self):
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.zeros((1, 3)), b=[1.0]))
        ga, gt = obj.grad(Hypothesis(theta=np.zeros((1, 3)), a=[-1.0]))
        np.testing.assert_allclose(ga, 0.0, atol=1e-14)
        np.testing.assert_allclose(gt, 0.0, atol=1e-14)

    @pytest.mark.parametrize("reg", ["none", "charge"])
    def test_finite_difference_agreement(self, reg, almost_table):
        rng = np.random.default_rng(4)
        pots = [GaussianPotential(0.8), almost_table]
        for pot in pots:
            tgt = TargetNetwork(w=rng.standard_normal((3, 3)) * 2, b=rng.uniform(-1, 1, 3))
            obj = Objective(pot, tgt, regularization=reg)
            vec = VectorObjective(obj, 2, 3)
            for _ in range(25):
                x = rng.standard_normal(vec.dim)
                _, g = vec.value_and_grad(x)
                g_fd = fd_gradient(lambda y: vec.value_and_grad(y)[0], x)
                denom = max(1.0, float(np.max(np.abs(g))))
                assert np.max(np.abs(g - g_fd)) / denom <= 1e-5

    def test_regularized_single_node_outer_gradient(self):
        # d/da of the regularized loss at one node: 4a + 2 sum_j b_j K(theta, w_j)
        rng = np.random.default_rng(5)
        tgt = TargetNetwork(w=rng.standard_normal((4, 3)), b=rng.uniform(-1, 1, 4))
        obj = Objective(GaussianPotential(1.0), tgt, regularization="charge")
        theta = rng.standard_normal((1, 3))
        a = 0.37
        ga, _ = obj.grad(Hypothesis(theta=theta, a=[a]))
        s = float((obj.cross_block(theta[0]) @ tgt.b)[0])
        assert ga[0] == pytest.approx(4 * a + 2 * s, abs=1e-12)

    def test_sphere_gradients_tangent(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        obj = Objective(PolynomialPotential(3), TargetNetwork(w=w, b=rng.uniform(-1, 1, 3)))
        th = rng.standard_normal((2, 4))
        th /= np.linalg.norm(th, axis=1, keepdims=True)
        _, gt = obj.grad(Hypothesis(theta=th, a=rng.uniform(-1, 1, 2)))
        np.testing.assert_allclose(np.sum(gt * th, axis=1), 0.0, atol=1e-14)

    def test_kink_collision_raises(self):
        pot = SignPotential()
        w = np.array([[1.0, 0.0]])
        obj = Objective(pot, TargetNetwork(w=w, b=[1.0]))
        with pytest.raises(NonDifferentiablePoint):
            obj.grad(Hypothesis(theta=w.copy(), a=[-1.0]))

    @pytest.mark.parametrize("k", [1, 3])
    def test_sign_kernel_gradient(self, k):
        # the sign kernel is differentiable away from rho = +/-1; compare with
        # central differences of the loss, projected to the tangent spaces
        rng = np.random.default_rng(40 + k)
        w = rng.standard_normal((3, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        obj = Objective(SignPotential(), TargetNetwork(w=w, b=rng.uniform(-1, 1, 3)))
        vec = VectorObjective(obj, k, 4)
        for _ in range(5):
            th = rng.standard_normal((k, 4))
            th /= np.linalg.norm(th, axis=1, keepdims=True)
            x = vec.pack(Hypothesis(theta=th, a=rng.uniform(-1, 1, k)))
            g_fd = fd_gradient(lambda y: vec.value_and_grad(y)[0], x)
            gt_fd = g_fd[k:].reshape(k, 4)
            g_fd[k:] = (gt_fd - np.sum(gt_fd * th, axis=1, keepdims=True) * th).ravel()
            _, g = vec.value_and_grad(x)
            assert np.max(np.abs(g - g_fd)) / max(1.0, float(np.max(np.abs(g)))) <= 1e-5

    @pytest.mark.parametrize("kind", ["coulomb", "log"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_fused_matches_separate_infinite_diagonal(self, kind, k):
        # the self-energy is omitted for these kernels on every path
        rng = np.random.default_rng(50 + k)
        pot, d = (CoulombPotential(3), 3) if kind == "coulomb" else (LogPotential(), 2)
        pts = separated_points(rng, k + 3, d, scale=2.0, min_sep=0.5)
        obj = Objective(pot, TargetNetwork(w=pts[k:], b=rng.uniform(-1, 1, 3)))
        hyp = Hypothesis(theta=pts[:k], a=rng.uniform(-1, 1, k))
        val, ga, gt = obj.loss_and_grad(hyp)
        assert val == pytest.approx(obj.loss(hyp), rel=1e-12, abs=1e-12)
        ga2, gt2 = obj.grad(hyp)
        np.testing.assert_array_equal(ga, ga2)
        np.testing.assert_array_equal(gt, gt2)

    @pytest.mark.parametrize("reg", ["none", "charge"])
    def test_loss_is_the_fused_value(self, reg):
        # one assembly of the outer-weight quadratic serves both
        rng = np.random.default_rng(14)
        for d in (3, 10):
            obj = rand_objective(rng, d=d, reg=reg)
            for k in (1, 2, 3, 5):
                hyp = Hypothesis(theta=rng.standard_normal((k, d)), a=rng.uniform(-1, 1, k))
                assert obj.loss(hyp) == obj.loss_and_grad(hyp)[0]

    def test_fused_matches_separate(self):
        rng = np.random.default_rng(7)
        obj = rand_objective(rng, reg="charge")
        hyp = Hypothesis(theta=rng.standard_normal((3, 3)), a=rng.uniform(-1, 1, 3))
        val, ga, gt = obj.loss_and_grad(hyp)
        assert val == pytest.approx(obj.loss(hyp), abs=1e-12)
        ga2, gt2 = obj.grad(hyp)
        np.testing.assert_allclose(ga, ga2, atol=1e-12)
        np.testing.assert_allclose(gt, gt2, atol=1e-12)


class TestProject:
    @pytest.mark.parametrize("pot", [SignPotential(), PolynomialPotential(3)], ids=["sign", "poly"])
    def test_sphere_rows_divided_by_their_norms(self, pot):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((2, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        vec = VectorObjective(Objective(pot, TargetNetwork(w=w, b=[1.0, -0.5])), 3, 4)
        for _ in range(50):
            x = rng.standard_normal(vec.dim) * rng.uniform(0.5, 2.0)
            want = x.copy()
            theta = want[3:].reshape(3, 4)
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            np.testing.assert_array_equal(vec.project(x), want)

    def test_identity_off_the_sphere(self):
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.eye(3), b=[1.0, 0.5, -1.0]))
        vec = VectorObjective(obj, 2, 3)
        x = np.arange(8.0)
        assert vec.project(x) is x


class TestNodeObjective:
    @pytest.mark.parametrize("reg", ["none", "charge"])
    @pytest.mark.parametrize("kind", ["gauss:c=1", "exp1d:lambda=1", "almost:eps=0.1,lambda=1,d=3"])
    def test_grad_matches_differences_of_block_loss(self, kind, reg):
        # the oracle is Objective.loss, which runs the pair-core block path
        pot = parse_potential(kind)
        rng = np.random.default_rng(71)
        for _ in range(5):
            pts = separated_points(rng, 4, 3, scale=2.0, min_sep=0.5)
            obj = Objective(pot, TargetNetwork(w=pts[1:], b=rng.uniform(-1, 1, 3)), regularization=reg)
            node = NodeObjective(obj)
            x = np.concatenate([rng.uniform(-1, 1, 1), pts[0]])
            block_loss = lambda y: obj.loss(Hypothesis(theta=y[None, 1:], a=y[:1]))
            val, g = node.value_and_grad(x)
            assert val == pytest.approx(block_loss(x), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(g, fd_gradient(block_loss, x, h=1e-6), rtol=1e-6, atol=1e-8)

    def test_zero_separation(self):
        w = np.array([[1.0, 0.0, 0.0]])
        x = np.array([-0.5, 1.0, 0.0, 0.0])
        kinked = NodeObjective(Objective(parse_potential("exp1d:lambda=1"), TargetNetwork(w=w, b=[1.0])))
        with pytest.raises(NonDifferentiablePoint):
            kinked.value_and_grad(x)
        smooth = NodeObjective(Objective(GaussianPotential(1.0), TargetNetwork(w=w, b=[1.0])))
        val, g = smooth.value_and_grad(x)
        assert val == 0.25 and np.all(g[1:] == 0.0)

    def test_tabulated_kernel_reaches_patched_lookups(self, almost_table, monkeypatch):
        # tracers replace these two methods on the class; the kernel's phi and
        # phi_and_dphi must call the replacements, not keep the originals
        calls = []
        for attr in ("value", "value_and_deriv"):

            def counted(self, r, _original=getattr(TabulatedPotential, attr), _attr=attr):
                calls.append(_attr)
                return _original(self, r)

            monkeypatch.setattr(TabulatedPotential, attr, counted)
        obj = Objective(almost_table, TargetNetwork(w=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], b=[0.7, -0.4]))
        calls.clear()  # the fixed-fixed block built with the objective
        obj.cross_block(np.array([[0.5, 0.5, 0.0], [-1.0, 0.0, 1.0]]))
        assert calls == ["value"]
        calls.clear()
        NodeObjective(obj).value_and_grad(np.array([0.3, 0.5, 0.5, 0.0]))
        assert calls == ["value_and_deriv"]


class TestOptimalOuterWeight:
    def test_exact_cancellation(self):
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=np.zeros((1, 3)), b=[1.0]))
        a, change = obj.optimal_outer_weight(np.zeros(3))
        assert a == pytest.approx(-1.0, abs=1e-12)
        assert change == pytest.approx(-1.0, abs=1e-12)

    def test_regularized_half_rule(self):
        # sum b_j K = 0.6 -> a* = -0.3, change = -0.18
        r = np.sqrt(-2.0 * np.log(0.6))
        tgt = TargetNetwork(w=np.array([[r, 0.0, 0.0]]), b=[1.0])
        obj = Objective(GaussianPotential(1.0), tgt, regularization="charge")
        a, change = obj.optimal_outer_weight(np.zeros(3))
        assert a == pytest.approx(-0.3, abs=1e-12)
        assert change == pytest.approx(-0.18, abs=1e-12)

    def test_change_formula_at_origin(self):
        rng = np.random.default_rng(8)
        tgt = TargetNetwork(w=rng.standard_normal((4, 3)), b=rng.uniform(-1, 1, 4))
        obj = Objective(GaussianPotential(1.0), tgt, regularization="charge")
        s = float((obj.cross_block(np.zeros(3)) @ tgt.b)[0])
        _, change = obj.optimal_outer_weight(np.zeros(3))
        assert change == pytest.approx(-0.5 * s * s, abs=1e-12)
        # and the change is realized by the actual loss difference
        a, _ = obj.optimal_outer_weight(np.zeros(3))
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[a])
        assert obj.loss(hyp) - obj.baseline() == pytest.approx(change, abs=1e-12)

    @pytest.mark.parametrize("reg", ["none", "charge"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_equals_per_point_calls(self, k, reg):
        rng = np.random.default_rng(12)
        obj = rand_objective(rng, k=k, reg=reg)
        pts = rng.standard_normal((64, 3)) * 2.0
        a, change = obj.optimal_outer_weight(pts)
        assert a.shape == change.shape == (64,)
        singles = [obj.optimal_outer_weight(p) for p in pts]
        assert all(type(v) is float for pair in singles for v in pair)
        if k == 1:
            np.testing.assert_array_equal(a, [pair[0] for pair in singles])
            np.testing.assert_array_equal(change, [pair[1] for pair in singles])
        else:
            # numpy sends a one-row block through BLAS dot and a batch through
            # gemv, which may round the k-term sum S differently in the last bit
            np.testing.assert_allclose(a, [pair[0] for pair in singles], rtol=0, atol=1e-15)
            np.testing.assert_allclose(change, [pair[1] for pair in singles], rtol=0, atol=1e-15)

    def test_outer_curvature_is_the_a_squared_coefficient(self):
        rng = np.random.default_rng(13)
        assert rand_objective(rng, reg="none").outer_curvature() == 1.0
        assert rand_objective(rng, reg="charge").outer_curvature() == 2.0
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[1.0, -1.0])
        for reg in ("none", "charge"):
            with pytest.raises(SingularDiagonal):
                Objective(CoulombPotential(3), tgt, regularization=reg).outer_curvature()

    def test_solve_optimal_a_zeroes_outer_gradient(self):
        rng = np.random.default_rng(9)
        for reg in ("none", "charge"):
            obj = rand_objective(rng, reg=reg)
            theta = rng.standard_normal((3, 3))
            a = obj.solve_optimal_a(theta)
            ga, _ = obj.grad(Hypothesis(theta=theta, a=a))
            np.testing.assert_allclose(ga, 0.0, atol=1e-9)


class TestHessian:
    def test_outer_block_is_twice_gram(self):
        rng = np.random.default_rng(10)
        obj = rand_objective(rng, k=2)
        theta = rng.standard_normal((2, 3))
        hyp = Hypothesis(theta=theta, a=rng.uniform(-1, 1, 2))
        h = packed_hessian(obj, hyp, h=1e-4)
        gram = obj.potential.pairwise(theta, theta)
        np.fill_diagonal(gram, 1.0)
        np.testing.assert_allclose(h[:2, :2], 2.0 * gram, atol=1e-6)

    def test_charge_regularization_shifts_outer_block(self):
        rng = np.random.default_rng(11)
        plain = rand_objective(rng, k=2, reg="none")
        reg = Objective(plain.potential, plain.target, regularization="charge")
        hyp = Hypothesis(theta=rng.standard_normal((2, 3)), a=rng.uniform(-1, 1, 2))
        h0 = packed_hessian(plain, hyp, h=1e-4)
        h1 = packed_hessian(reg, hyp, h=1e-4)
        np.testing.assert_allclose(h1[:2, :2] - h0[:2, :2], 2.0 * np.eye(2), atol=1e-6)

    def test_fd_hessian_on_quadratic(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 4))
        m = m + m.T
        x0 = rng.standard_normal(4)
        np.testing.assert_allclose(fd_hessian(lambda x: m @ x, x0, 1e-4), m, atol=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        obj = rand_objective(rng, k=2)
        hyp = Hypothesis(theta=rng.standard_normal((2, 3)), a=rng.uniform(-1, 1, 2))
        h = packed_hessian(obj, hyp, h=1e-4)
        np.testing.assert_array_equal(h, h.T)

    @pytest.mark.parametrize(
        "kind",
        ["gauss:c=0.7", "exp1d:lambda=1", "almost:eps=0.1,lambda=1,d=3", "coulomb:d=3",
         "log", "explh:lambda=1,d=3", "poly:l=3", "sign"],
    )
    def test_quadratic_form_matches_second_difference_of_loss(self, kind):
        # v^T H v against the second difference of the loss value along a
        # straight line, or on the sphere along a geodesic of each hidden
        # vector, where the tangent-gradient Jacobian is the Riemannian Hessian
        pot = parse_potential(kind)
        sphere = pot.manifold == "sphere"
        rng = np.random.default_rng(61)
        k, d, h = 2, getattr(pot, "d", 3), 1e-4
        if sphere:
            pts = rng.standard_normal((k + 3, d))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        else:
            pts = separated_points(rng, k + 3, d, scale=2.0, min_sep=0.5)
        obj = Objective(pot, TargetNetwork(w=pts[k:], b=rng.uniform(-1, 1, 3)))
        theta, a = pts[:k], rng.uniform(-1, 1, k)
        hess = packed_hessian(obj, Hypothesis(theta=theta, a=a), h=h)
        for _ in range(5):
            va, vt = rng.standard_normal(k), rng.standard_normal((k, d))
            if sphere:
                vt -= np.sum(vt * theta, axis=1, keepdims=True) * theta
                speed = np.linalg.norm(vt, axis=1, keepdims=True)
                move = lambda t: np.cos(t * speed) * theta + np.sin(t * speed) * vt / speed
            else:
                move = lambda t: theta + t * vt
            path = lambda t: obj.loss(Hypothesis(theta=move(t), a=a + t * va))
            second = (path(h) - 2.0 * path(0.0) + path(-h)) / (h * h)
            v = np.concatenate([va, vt.ravel()])
            assert abs(v @ hess @ v - second) <= 1e-6 * max(1.0, abs(second))


class TestSphereCurvature:
    """On the sphere, ``VectorObjective.hess`` measures curvature on the
    tangent space: the ambient finite-difference Hessian's smallest
    eigenpair leans on the normal directions, which the retraction undoes."""

    @staticmethod
    def poly_point(rng, k=2, d=3):
        pot = PolynomialPotential(3)
        w = pot.retract(rng.standard_normal((k, d)))
        obj = Objective(pot, TargetNetwork(w=w, b=rng.uniform(-1, 1, k)))
        vec = VectorObjective(obj, k, d)
        hyp = Hypothesis(theta=pot.retract(rng.standard_normal((k, d))), a=rng.uniform(-1, 1, k))
        return vec, vec.pack(hyp)

    def test_eigenvector_is_tangent_and_matches_second_difference(self):
        # the second difference of the loss along the retracted eigenvector
        # path; the sphere's metric projection is a second-order retraction,
        # so it is the Riemannian Hessian's quadratic form at any point
        rng = np.random.default_rng(70)
        t = 1e-3
        for _ in range(5):
            vec, x = self.poly_point(rng)
            lam, v = min_eigpair(vec.hess(x))
            theta, vt = x[2:].reshape(2, 3), v[2:].reshape(2, 3)
            assert np.max(np.abs(np.sum(theta * vt, axis=1))) <= 1e-12
            f = [vec.value_and_grad(vec.project(x + s * v))[0] for s in (t, 0.0, -t)]
            second = (f[0] - 2.0 * f[1] + f[2]) / t**2
            assert lam == pytest.approx(second, rel=1e-5, abs=1e-6)
            # the ambient eigenvalue is strictly lower (interlacing): the
            # normal directions it included carry no loss change
            ambient = np.linalg.eigvalsh(fd_hessian(lambda z: vec.value_and_grad(z)[1], x))[0]
            assert ambient < lam - 1e-3

    def test_orthonormal_witness_is_the_smallest_eigenvalue(self):
        # theta = (e_0 + e_1)/sqrt(2) with equal charges there is a critical
        # point; the tangent curvature is the witness -2 (l-2) l a^2 along
        # e_0 - e_1, +6 S^2 along e_2 and 2 along a, so lambda_min is the witness
        l, b = 3, np.array([0.9, 0.9, -0.4])
        theta = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        verdict = poly_orthonormal_check(l, theta, b)
        assert verdict.passed
        predicted = verdict.measured["predicted"]
        obj = Objective(PolynomialPotential(l), TargetNetwork(w=np.eye(3), b=b))
        vec = VectorObjective(obj, 1, 3)
        lam, v = min_eigpair(vec.hess(vec.pack(Hypothesis(theta=[theta], a=[verdict.measured["a"]]))))
        assert lam == pytest.approx(predicted, rel=1e-6)
        np.testing.assert_allclose(np.abs(v), [0.0, np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-6)

    def test_euclidean_hessian_is_the_symmetrized_jacobian(self):
        rng = np.random.default_rng(71)
        obj = rand_objective(rng, k=2)
        vec = VectorObjective(obj, 2, 3)
        x = vec.pack(Hypothesis(theta=rng.standard_normal((2, 3)), a=rng.uniform(-1, 1, 2)))
        want = fd_hessian(lambda z: vec.value_and_grad(z)[1], x)
        np.testing.assert_array_equal(vec.hess(x), want)


class TestNonFiniteInputs:
    """A non-finite mobile weight raises NonFiniteSample instead of giving a
    NaN loss."""

    @staticmethod
    def objective():
        return Objective(GaussianPotential(1.0), TargetNetwork(w=[[1.0, 0.0, 0.0]], b=[1.0]))

    @pytest.mark.parametrize(
        "theta,a",
        [([[np.nan, 0.0, 0.0]], [1.0]), ([[0.0, np.inf, 0.0]], [1.0]), ([[0.0, 0.0, 0.0]], [np.nan])],
    )
    def test_loss_and_loss_and_grad_refuse(self, theta, a):
        obj = self.objective()
        with pytest.raises(NonFiniteSample):
            obj.loss(Hypothesis(theta=theta, a=a))
        with pytest.raises(NonFiniteSample):
            obj.loss_and_grad(Hypothesis(theta=theta, a=a))

    def test_vector_objective_refuses(self):
        vec = VectorObjective(self.objective(), 1, 3)
        with pytest.raises(NonFiniteSample):
            vec.value_and_grad(np.array([1.0, 0.0, np.nan, 0.0]))


class TestThetaLaplacian:
    def test_coulomb_harmonic(self):
        rng = np.random.default_rng(14)
        pts = separated_points(rng, 6, 3, scale=3.0, min_sep=1.0)
        tgt = TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3))
        obj = Objective(CoulombPotential(3), tgt)
        hyp = Hypothesis(theta=pts[:3], a=rng.uniform(-1, 1, 3))
        assert theta_laplacian(obj, hyp, 0, h=5e-4) == pytest.approx(0.0, abs=1e-5)

    def test_gaussian_sign_beyond_threshold(self):
        # kernel Laplacian flips sign at r^2 = d/c; read it off the loss trace
        # with unit positive charge product (2 a b Delta Phi)
        obj2 = Objective(GaussianPotential(1.0), TargetNetwork(w=np.array([[2.0, 0.0, 0.0]]), b=[1.0]))
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[1.0])
        assert theta_laplacian(obj2, hyp, 0, h=1e-4) > 0  # r^2 = 4 > 3
        obj1 = Objective(GaussianPotential(1.0), TargetNetwork(w=np.array([[1.0, 0.0, 0.0]]), b=[1.0]))
        assert theta_laplacian(obj1, hyp, 0, h=1e-4) < 0  # r^2 = 1 < 3

    def test_eigen_identity_on_cross_terms(self):
        # lam=1 kernel: Laplacian of the cross terms equals the cross-term sum
        rng = np.random.default_rng(15)
        pts = separated_points(rng, 3, 3, scale=2.0, min_sep=0.8)
        tgt = TargetNetwork(w=pts[1:], b=rng.uniform(-1, 1, 2))
        obj = Objective(LambdaHarmonicRadial(3, 1.0), tgt)
        a = rng.uniform(0.5, 1.0)
        hyp = Hypothesis(theta=pts[:1], a=[a])
        cross_sum = 2.0 * a * float((obj.cross_block(pts[0]) @ tgt.b)[0])
        lap = theta_laplacian(obj, hyp, 0, h=1e-4)
        assert lap == pytest.approx(cross_sum, rel=1e-4, abs=1e-6)


class TestEigIdentity:
    def test_exact_optimum_translation_laplacian(self):
        # correlated translation of the first node's (singleton) coincidence
        # class at the exact outer optimum: Laplacian = -2 lam a_0^2
        rng = np.random.default_rng(16)
        lam = 1.0
        for _ in range(10):
            pts = separated_points(rng, 6, 3, scale=2.0, min_sep=0.8)
            tgt = TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3))
            obj = Objective(LambdaHarmonicRadial(3, lam), tgt)
            theta = pts[:3]
            a = obj.solve_optimal_a(theta)

            def shifted(v):
                moved = theta.copy()
                moved[0] = theta[0] + v
                return obj.loss(Hypothesis(theta=moved, a=a))

            h = 1e-3
            lap = 0.0
            f0 = shifted(np.zeros(3))
            for m in range(3):
                e = np.zeros(3)
                e[m] = h
                lap += (shifted(e) - 2 * f0 + shifted(-e)) / h**2
            predicted = -2.0 * lam * a[0] ** 2
            assert abs(lap - predicted) <= 1e-3 * max(abs(predicted), 1e-6)

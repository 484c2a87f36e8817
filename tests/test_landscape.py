import numpy as np
import pytest

from chargeflow.errors import (
    DegenerateCluster,
    NotACriticalPoint,
    OffManifold,
    TooCloseToSingularity,
)
from chargeflow.landscape import (
    earnshaw_trace_check,
    eigstrict_laplacian_check,
    poly_orthonormal_check,
    sign_circle_scan,
    subharmonic_sign_check,
)
from chargeflow.loss import Hypothesis, TargetNetwork
from chargeflow.potentials import CoulombPotential, GaussianPotential, LogPotential

from conftest import radial_laplacian, separated_points


def config(rng, k, d, scale=3.0, min_sep=1.0):
    pts = separated_points(rng, 2 * k, d, scale=scale, min_sep=min_sep)
    target = TargetNetwork(w=pts[k:], b=rng.uniform(-1, 1, k))
    hyp = Hypothesis(theta=pts[:k], a=rng.uniform(-1, 1, k))
    return target, hyp


class TestEarnshaw:
    def test_coulomb_trace_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            target, hyp = config(rng, 3, 3)
            v = earnshaw_trace_check(CoulombPotential(3), target, hyp, 0)
            assert v.passed and not v.expected_fail and v.ok

    def test_log_kernel_d2(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            target, hyp = config(rng, 2, 2)
            v = earnshaw_trace_check(LogPotential(), target, hyp, 0)
            assert v.passed and v.ok

    def test_gaussian_control_expected_fail(self):
        target = TargetNetwork(w=np.array([[2.0, 0.0, 0.0]]), b=[1.0])
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])
        v = earnshaw_trace_check(GaussianPotential(1.0), target, hyp, 0, tol=1e-2)
        assert not v.passed and v.expected_fail and v.ok
        assert abs(v.measured["trace"]) > 1e-2

    def test_singularity_guard(self):
        target = TargetNetwork(w=np.array([[1e-4, 0.0, 0.0]]), b=[1.0])
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])
        with pytest.raises(TooCloseToSingularity):
            earnshaw_trace_check(CoulombPotential(3), target, hyp, 0)

    def test_residual_second_order_in_step(self):
        # halving the step quarters the finite-difference residual; measured
        # where truncation dominates roundoff (electron near one proton)
        target = TargetNetwork(w=np.array([[0.5, 0.0, 0.0]]), b=[1.0])
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])
        big = earnshaw_trace_check(CoulombPotential(3), target, hyp, 0, tol=1.0, h=8e-3)
        small = earnshaw_trace_check(CoulombPotential(3), target, hyp, 0, tol=1.0, h=4e-3)
        r_big = abs(big.measured["trace"])
        r_small = abs(small.measured["trace"])
        assert r_small < r_big / 3.0

    def test_verdict_digest_depends_on_config(self):
        rng = np.random.default_rng(3)
        t1, h1 = config(rng, 2, 3)
        t2, h2 = config(rng, 2, 3)
        v1 = earnshaw_trace_check(CoulombPotential(3), t1, h1, 0)
        v2 = earnshaw_trace_check(CoulombPotential(3), t2, h2, 0)
        assert v1.digest != v2.digest
        v1b = earnshaw_trace_check(CoulombPotential(3), t1, h1, 0)
        assert v1.digest == v1b.digest


class TestEigStrict:
    def test_random_configs_match_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = separated_points(rng, 6, 3, scale=2.0, min_sep=0.8)
            target = TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3))
            v = eigstrict_laplacian_check(1.0, target, pts[:3])
            assert v.passed

    def test_lambda_scaling(self):
        rng = np.random.default_rng(5)
        pts = separated_points(rng, 4, 3, scale=2.0, min_sep=0.8)
        target = TargetNetwork(w=pts[1:], b=rng.uniform(-1, 1, 3))
        v = eigstrict_laplacian_check(4.0, target, pts[:1])
        assert v.passed
        assert v.measured["predicted"] == pytest.approx(-8.0 * v.measured["a0"] ** 2)

    def test_single_node_strict_negativity(self):
        rng = np.random.default_rng(6)
        pts = separated_points(rng, 2, 3, scale=1.5, min_sep=1.0)
        target = TargetNetwork(w=pts[1:], b=[0.9])
        v = eigstrict_laplacian_check(1.0, target, pts[:1])
        assert v.passed
        assert v.measured["predicted"] < 0  # not a minimum unless matched

    def test_zero_charge_gives_zero_laplacian(self):
        # mirror-symmetric fixed charges with opposite weights: the optimal
        # outer weight at the midpoint axis is 0, the identity's zero case
        target = TargetNetwork(
            w=np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), b=[0.5, -0.5]
        )
        theta = np.array([[-1.0, 0.0, 0.0]])
        v = eigstrict_laplacian_check(1.0, target, theta)
        assert v.measured["a0"] == pytest.approx(0.0, abs=1e-14)
        assert abs(v.measured["laplacian"]) <= 1e-6
        assert v.passed

    def test_degenerate_cluster_rejected(self):
        target = TargetNetwork(w=np.array([[5.0, 0.0, 0.0]]), b=[1.0])
        theta = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCluster):
            eigstrict_laplacian_check(1.0, target, theta)


class TestSubharmonic:
    def test_value_beyond_threshold(self):
        assert subharmonic_sign_check(1.0, 3, 2.0) == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_zero_at_threshold(self):
        assert subharmonic_sign_check(1.0, 3, np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_origin_value(self):
        assert subharmonic_sign_check(1.0, 3, 0.0) == -3.0
        assert subharmonic_sign_check(2.0, 5, 0.0) == -10.0

    def test_flip_location_scales_with_c(self):
        c, d = 2.0, 3
        r_star = np.sqrt(d / c)
        assert subharmonic_sign_check(c, d, r_star * 0.99) < 0
        assert subharmonic_sign_check(c, d, r_star * 1.01) > 0

    def test_matches_fd_laplacian_of_kernel(self):
        # central-difference radial Laplacian of e^{-c r^2/2} agrees
        c, d = 1.5, 3
        phi = lambda r: np.exp(-c * r * r / 2.0)
        for r in (0.5, 1.0, 2.0):
            fd = radial_laplacian(phi, r, d, 1e-4)
            assert subharmonic_sign_check(c, d, r) == pytest.approx(fd, abs=1e-5)


class TestSignCircleScan:
    def test_single_target_minima_at_kink_pair(self):
        # with the outer weight optimized per angle the scanned loss is
        # -S(phi)^2, minimized both at the target direction and its antipode
        # (the kernel kink set): both are legitimate detections
        target = TargetNetwork(w=np.array([[1.0, 0.0]]), b=[1.0])
        res = sign_circle_scan(target, 1024)
        assert res.all_matched
        assert len(res.minima) == 2
        assert min(res.minima[0], 2 * np.pi - res.minima[0]) <= res.resolution
        assert abs(res.minima[1] - np.pi) <= res.resolution

    def test_random_targets_minima_at_kinks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = 3
            angles = rng.uniform(0, 2 * np.pi, k)
            w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            target = TargetNetwork(w=w, b=rng.uniform(-1, 1, k))
            res = sign_circle_scan(target, 2048)
            assert len(res.minima) >= 1
            assert res.all_matched

    def test_refinement_stability(self):
        rng = np.random.default_rng(8)
        angles = rng.uniform(0, 2 * np.pi, 3)
        w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = TargetNetwork(w=w, b=rng.uniform(-1, 1, 3))
        coarse = sign_circle_scan(target, 2048)
        fine = sign_circle_scan(target, 4096)
        assert len(coarse.minima) == len(fine.minima)
        for angle in coarse.minima:
            assert np.min(np.abs(fine.minima - angle)) <= coarse.resolution

    def test_global_rotation_equivariance(self):
        rng = np.random.default_rng(9)
        angles = rng.uniform(0, 2 * np.pi, 3)
        b = rng.uniform(-1, 1, 3)
        shift = 2.0 * np.pi * 200 / 2048  # whole number of grid cells
        res_a = sign_circle_scan(
            TargetNetwork(w=np.stack([np.cos(angles), np.sin(angles)], 1), b=b), 2048
        )
        res_b = sign_circle_scan(
            TargetNetwork(
                w=np.stack([np.cos(angles + shift), np.sin(angles + shift)], 1), b=b
            ),
            2048,
        )
        shifted = np.sort((res_a.minima + shift) % (2 * np.pi))
        np.testing.assert_allclose(np.sort(res_b.minima), shifted, atol=1e-9)

    def test_minima_match_the_closed_form(self):
        # oracle: the sign kernel is linear in the angle, 1 - 2 delta / pi,
        # and the optimal outer weight leaves the loss change -S^2
        rng = np.random.default_rng(10)
        for trial in range(60):
            k, n_grid = 1 + trial % 5, (1024, 2048, 4096)[trial % 3]
            angles = rng.uniform(0, 2 * np.pi, k)
            w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            b = rng.uniform(-1, 1, k)
            phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
            w_angles = np.arctan2(w[:, 1], w[:, 0])
            delta = np.abs(((phis[:, None] - w_angles[None, :]) + np.pi) % (2.0 * np.pi) - np.pi)
            scan = -np.square((1.0 - 2.0 * delta / np.pi) @ b)
            want = phis[(scan < np.roll(scan, 1)) & (scan < np.roll(scan, -1))]
            res = sign_circle_scan(TargetNetwork(w=w, b=b), n_grid)
            np.testing.assert_array_equal(res.minima, want)

    def test_target_off_the_circle(self):
        with pytest.raises(OffManifold):
            sign_circle_scan(TargetNetwork(w=[[1.0, 0.0], [0.0, 1.1]], b=[1.0, 0.5]), 1024)


class TestPolyOrthonormal:
    def test_two_coordinate_witness(self):
        theta = np.zeros(4)
        theta[:2] = 1.0 / np.sqrt(2.0)
        v = poly_orthonormal_check(3, theta, np.ones(4))
        assert v.passed
        a = v.measured["a"]
        assert v.measured["predicted"] == pytest.approx(-2.0 * 1.0 * 3.0 * a * a)
        assert v.measured["curvature"] == pytest.approx(v.measured["predicted"], rel=1e-4)

    def test_basis_vector_needs_no_witness(self):
        theta = np.zeros(4)
        theta[0] = 1.0
        v = poly_orthonormal_check(3, theta, np.ones(4))
        assert v.passed
        assert "no witness" in v.note

    def test_higher_degree(self):
        theta = np.zeros(5)
        theta[:3] = 1.0 / np.sqrt(3.0)
        v = poly_orthonormal_check(5, theta, np.ones(5))
        assert v.passed
        a = v.measured["a"]
        assert v.measured["predicted"] == pytest.approx(-2.0 * 3.0 * 5.0 * a * a)

    def test_zero_charge_measure_zero_case(self):
        # b chosen so the optimal outer weight vanishes at this direction
        theta = np.zeros(4)
        theta[:2] = 1.0 / np.sqrt(2.0)
        b = np.array([1.0, -1.0, 0.0, 0.0])
        v = poly_orthonormal_check(3, theta, b)
        assert v.passed
        assert "probability zero" in v.note

    def test_non_critical_point_rejected(self):
        theta = np.zeros(4)
        theta[:2] = [0.9, np.sqrt(1 - 0.81)]  # unequal support, equal b
        with pytest.raises(NotACriticalPoint):
            poly_orthonormal_check(3, theta, np.ones(4))

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            poly_orthonormal_check(2, np.ones(4) / 2.0, np.ones(4))

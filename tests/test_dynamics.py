import json

import numpy as np
import pytest

from chargeflow.dynamics import (
    ParticleSystem,
    run_trajectory,
    step,
    system_from_objective,
    velocity_field,
)
from chargeflow.errors import CollisionSingularity, DimensionMismatch, NonFiniteSample, OffManifold
from chargeflow.harness import write_jsonl
from chargeflow.loss import Hypothesis, Objective, TargetNetwork
from chargeflow.potentials import (
    GaussianPotential,
    PolynomialPotential,
    SignPotential,
)

from conftest import gradient_flow_field


def gaussian_system(positions, charges, fixed=()):
    return ParticleSystem(
        positions=np.asarray(positions, dtype=float),
        charges=np.asarray(charges, dtype=float),
        fixed=frozenset(fixed),
        potential=GaussianPotential(1.0),
    )


class TestNetForce:
    """The net force on a particle is its row of ``velocity_field``."""

    def test_opposite_charges_attract(self):
        sys_ = gaussian_system([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], fixed={1})
        v = velocity_field(sys_)[0]
        # velocity points from the mobile particle toward the opposite charge
        assert v[0] > 0 and abs(v[1]) < 1e-15

    def test_single_particle_zero(self):
        sys_ = gaussian_system([[0.5, 0.5]], [1.0])
        np.testing.assert_array_equal(velocity_field(sys_)[0], np.zeros(2))

    def test_collinear_cancellation(self):
        sys_ = gaussian_system(
            [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0]
        )
        np.testing.assert_allclose(velocity_field(sys_)[1], 0.0, atol=1e-15)

    def test_collision_guard_for_kinked_kernel(self, almost_table):
        sys_ = ParticleSystem(
            positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-12]]),
            charges=np.array([1.0, -1.0]),
            fixed=frozenset(),
            potential=almost_table,
        )
        with pytest.raises(CollisionSingularity):
            velocity_field(sys_)

    def test_kernel_of_another_dimension(self, almost_table):
        with pytest.raises(DimensionMismatch, match="expects dimension 3, got 2"):
            ParticleSystem(
                positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
                charges=np.array([1.0, -1.0]),
                fixed=frozenset(),
                potential=almost_table,
            )

    def test_sphere_kernel_off_the_sphere(self):
        # unchecked, the first step's retraction would move the fixed particle
        # from (0, 3, 0) to (0, 1, 0)
        with pytest.raises(OffManifold, match="sign particle positions"):
            ParticleSystem(
                positions=[[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]],
                charges=[1.0, -1.0],
                fixed={1},
                potential=SignPotential(),
            )


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "positions,charges",
        [([[0.0, np.nan], [1.0, 0.0]], [1.0, -1.0]), ([[0.0, 0.0], [1.0, 0.0]], [np.inf, -1.0])],
    )
    def test_system_refuses(self, positions, charges):
        # before, velocity_field returned NaN rows for such a system
        with pytest.raises(NonFiniteSample):
            velocity_field(gaussian_system(positions, charges, fixed={1}))

    def test_step_to_infinity_raises(self):
        # one Euler step of size 1e308 at speed about 60 leaves the float range
        sys_ = gaussian_system([[0.0, 0.0], [1.0, 0.0]], [10.0, -10.0], fixed={1})
        with pytest.raises(NonFiniteSample):
            step(sys_, 1e308, scheme="euler")

    def test_rk4_step_to_infinity_raises_without_warnings(self):
        # the RK4 stages overflow and then meet inf - inf; the suite's
        # RuntimeWarning filter turns any of those warnings into an error
        sys_ = gaussian_system([[0.0, 0.0], [1.0, 0.0]], [10.0, -10.0], fixed={1})
        with pytest.raises(NonFiniteSample):
            step(sys_, 1e308, scheme="rk4")


class TestStep:
    def test_zero_force_fixed_point(self):
        sys_ = gaussian_system([[0.5, 0.5]], [1.0])
        after = step(sys_, 0.1, "euler")
        np.testing.assert_array_equal(after.positions, sys_.positions)
        assert after.time == pytest.approx(0.1)

    def test_euler_definition(self):
        sys_ = gaussian_system([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], fixed={1})
        dt = 0.01
        v = velocity_field(sys_)
        after = step(sys_, dt, "euler")
        np.testing.assert_array_equal(after.positions, sys_.positions + dt * v)

    def test_fixed_particles_never_move(self):
        rng = np.random.default_rng(0)
        sys_ = gaussian_system(rng.standard_normal((4, 3)), [1.0, -1.0, 0.5, -0.5], fixed={2, 3})
        state = sys_
        for _ in range(20):
            state = step(state, 0.05, "rk4")
        np.testing.assert_array_equal(state.positions[2:], sys_.positions[2:])
        np.testing.assert_array_equal(state.charges, sys_.charges)

    def test_rk4_attraction_matches_scalar_ode(self):
        # one mobile charge attracted to a fixed opposite charge: under the
        # pair-motion definition the radius obeys dr/dt = -c |ab| r e^{-c r^2/2}
        # (simulating under the doubled kernel would double the rate);
        # integrate the 1-d ODE with fine Euler as the oracle
        a, b, c = 1.0, -1.0, 1.0
        sys_ = gaussian_system([[2.0, 0.0], [0.0, 0.0]], [a, b], fixed={1})
        dt = 0.01
        state = sys_
        r = 2.0
        speed = lambda rr: -c * abs(a * b) * rr * np.exp(-c * rr * rr / 2.0)
        for _ in range(100):
            state = step(state, dt, "rk4")
            sub = dt / 64.0
            for _ in range(64):  # midpoint oracle, O(sub^2)
                r_mid = r + 0.5 * sub * speed(r)
                r = r + sub * speed(r_mid)
        assert state.positions[0, 0] == pytest.approx(r, abs=1e-6)

    def test_rk4_distance_strictly_decreases(self):
        sys_ = gaussian_system([[1.5, 0.0], [0.0, 0.0]], [1.0, -1.0], fixed={1})
        state = sys_
        prev = 1.5
        for _ in range(200):
            state = step(state, 0.01, "rk4")
            cur = float(np.linalg.norm(state.positions[0]))
            assert cur < prev
            prev = cur

    @pytest.mark.parametrize("dt", [-1.0, np.nan, np.inf])
    def test_bad_dt_rejected(self, dt):
        sys_ = gaussian_system([[0.0, 0.0], [1.0, 0.0]], [1.0, -1.0], fixed={1})
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            step(sys_, dt, "euler")

    def test_unknown_scheme(self):
        sys_ = gaussian_system([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            step(sys_, 0.1, "leapfrog")

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", ["sign", "poly"])
    def test_sphere_flow_stays_on_the_sphere(self, kind, scheme):
        # without the retraction a step at dt 0.1 leaves the sphere
        rng = np.random.default_rng(70)
        pot = SignPotential() if kind == "sign" else PolynomialPotential(3)
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        obj = Objective(pot, TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3)))
        sys_ = system_from_objective(obj, Hypothesis(theta=pts[:3], a=rng.uniform(-1, 1, 3)))
        _, records = run_trajectory(sys_, 20, 0.1, scheme=scheme)
        assert len(records) == 21
        for rec in records:
            norms = np.linalg.norm(rec["positions"], axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12, rec["step"]


class TestGradientFlowEquivalence:
    def test_field_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tgt = TargetNetwork(w=rng.standard_normal((3, 3)), b=rng.uniform(-1, 1, 3))
            obj = Objective(GaussianPotential(1.0), tgt)
            hyp = Hypothesis(theta=rng.standard_normal((3, 3)), a=rng.uniform(-1, 1, 3))
            flow = gradient_flow_field(obj, hyp)
            particles = velocity_field(system_from_objective(obj, hyp))[:3]
            assert np.max(np.abs(flow - particles)) <= 1e-12

    @pytest.mark.parametrize("kind", ["sign", "poly"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_sphere_field_equivalence(self, kind, k):
        rng = np.random.default_rng(60 + k)
        pot = SignPotential() if kind == "sign" else PolynomialPotential(3)
        pts = rng.standard_normal((k + 3, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        obj = Objective(pot, TargetNetwork(w=pts[k:], b=rng.uniform(-1, 1, 3)))
        hyp = Hypothesis(theta=pts[:k], a=rng.uniform(-1, 1, k))
        particles = velocity_field(system_from_objective(obj, hyp))
        assert np.max(np.abs(gradient_flow_field(obj, hyp) - particles[:k])) <= 1e-12
        np.testing.assert_allclose(np.sum(particles[:k] * hyp.theta, axis=1), 0.0, atol=1e-15)
        assert not np.any(particles[k:])

    def test_matched_minimum_is_stationary(self):
        w = np.zeros((1, 3))
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=w, b=[1.0]))
        hyp = Hypothesis(theta=w.copy(), a=[-1.0])
        np.testing.assert_allclose(gradient_flow_field(obj, hyp), 0.0, atol=1e-15)

    def test_single_pair_hand_expansion(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((1, 3))
        b = np.array([0.7])
        a = np.array([-0.4])
        theta = rng.standard_normal((1, 3))
        obj = Objective(GaussianPotential(1.0), TargetNetwork(w=w, b=b))
        flow = gradient_flow_field(obj, Hypothesis(theta=theta, a=a))
        # -a1 b1 grad Phi = a1 b1 c (theta - w) Phi
        diff = theta[0] - w[0]
        expected = a[0] * b[0] * diff * np.exp(-float(diff @ diff) / 2.0)
        np.testing.assert_allclose(flow[0], expected, atol=1e-14)

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((4, 3))
        charges = rng.uniform(-1, 1, 4)
        shift = rng.standard_normal(3)
        sys_a = gaussian_system(pos, charges, fixed={3})
        sys_b = gaussian_system(pos + shift, charges, fixed={3})
        # the identity is exact; shifted coordinates round the pair
        # differences at the last bit
        np.testing.assert_allclose(
            velocity_field(sys_a), velocity_field(sys_b), atol=4 * np.finfo(float).eps
        )

    def test_loss_never_increases_along_flow(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            tgt = TargetNetwork(w=rng.standard_normal((3, 3)), b=rng.uniform(-1, 1, 3))
            obj = Objective(GaussianPotential(1.0), tgt)
            hyp = Hypothesis(theta=rng.standard_normal((3, 3)), a=rng.uniform(-1, 1, 3))
            state = system_from_objective(obj, hyp)
            prev = obj.loss(hyp)
            for _ in range(1000):
                state = step(state, 1e-3, "rk4")
                cur = obj.loss(Hypothesis(theta=state.positions[:3], a=state.charges[:3]))
                assert cur <= prev + 1e-9
                prev = cur


class TestTrajectoryExport:
    def test_records_schema_and_stride(self, tmp_path):
        rng = np.random.default_rng(5)
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[1.0, -0.5])
        obj = Objective(GaussianPotential(1.0), tgt)
        hyp = Hypothesis(theta=rng.standard_normal((2, 3)), a=[0.3, -0.2])
        sys_ = system_from_objective(obj, hyp)
        _, records = run_trajectory(sys_, steps=40, dt=1e-3, stride=10, objective=obj, hypothesis_k=2)
        assert [r["step"] for r in records] == [0, 10, 20, 30, 40]
        assert all({"schema_version", "t", "positions", "loss"} <= set(r) for r in records)
        path = tmp_path / "traj.jsonl"
        write_jsonl(records, path)
        parsed = [json.loads(line) for line in open(path)]
        assert parsed[0]["schema_version"] == 1
        assert len(parsed) == 5

    def test_negative_steps_rejected(self):
        sys_ = gaussian_system([[0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            run_trajectory(sys_, steps=-1, dt=1e-3)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf])
    def test_bad_dt_rejected_before_any_record(self, dt):
        sys_ = gaussian_system([[0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            run_trajectory(sys_, steps=0, dt=dt)

import dataclasses

import numpy as np
import pytest

from chargeflow.descent import (
    DescentConfig,
    DescentReport,
    FunctionObjective,
    IterationRecord,
    RandomBallInit,
    gd,
    hessian_descent_step,
    initialize_node,
    min_eigpair,
    node_wise_descent,
    second_gd,
    stationarity_check,
)
from chargeflow.errors import (
    ChargeflowError,
    DimensionMismatch,
    EigenSolveFailure,
    InitializationFailed,
    NonDifferentiablePoint,
)
from chargeflow import descent
from chargeflow.loss import Objective, TargetNetwork, VectorObjective
from chargeflow.potentials import (
    GaussianPotential,
    LaplaceExpPotential,
    parse_potential,
)


def quadratic_objective(m, q=None):
    m = np.asarray(m, dtype=float)
    q = np.zeros(m.shape[0]) if q is None else np.asarray(q, dtype=float)
    return FunctionObjective(
        lambda x: 0.5 * float(x @ m @ x) + float(q @ x),
        grad=lambda x: m @ x + q,
        hess=lambda x: m,
    )


saddle = FunctionObjective(
    lambda x: float(x[0] ** 2 - x[1] ** 2),
    grad=lambda x: np.array([2.0 * x[0], -2.0 * x[1]]),
    hess=lambda x: np.diag([2.0, -2.0]),
)


class CountingObjective:
    """Forwards the descent contract and counts the value_and_grad and hess
    calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.hess_calls = 0

    def value_and_grad(self, x):
        self.calls += 1
        return self.inner.value_and_grad(x)

    def hess(self, x):
        self.hess_calls += 1
        return self.inner.hess(x)

    def project(self, x):
        return self.inner.project(x)


def two_call_gd(objective, x0, cfg):
    """The former gd loop, value and gradient from separate calls; returns
    (iteration, value, grad_norm, decrease) rows and the final point."""
    value = lambda x: objective.value_and_grad(x)[0]
    grad = lambda x: objective.value_and_grad(x)[1]
    x = np.asarray(x0, dtype=float).copy()
    v = value(x)
    rows = []
    for it in range(1, cfg.T + 1):
        g = grad(x)
        x_new = objective.project(x - cfg.alpha * g)
        v_new = value(x_new)
        rows.append((it, v_new, float(np.linalg.norm(g)), v - v_new))
        x, v = x_new, v_new
    return rows, x


def former_second_gd(objective, x0, cfg):
    """The former second_gd loop, written out on its own."""
    x_prev = np.asarray(x0, dtype=float).copy()
    report = DescentReport()
    v_prev, g = objective.value_and_grad(x_prev)
    threshold = cfg.min_decrease()
    for it in range(1, cfg.T + 1):
        gnorm = float(np.linalg.norm(g))
        lam_min = float("nan")
        try:
            if gnorm >= cfg.eta:
                branch = "grad"
                x_new = x_prev - cfg.alpha * g
            else:
                branch = "hessian"
                x_new, lam_min = hessian_descent_step(objective, x_prev, g, cfg)
            x_new = objective.project(x_new)
            v_new, g_new = objective.value_and_grad(x_new)
        except ChargeflowError as exc:
            report.termination = "error"
            report.error = str(exc)
            break
        decrease = v_prev - v_new
        report.iterations = it
        if it % cfg.trace_stride == 0 or v_new >= v_prev - threshold or it == cfg.T:
            report.rows.append(
                IterationRecord(
                    iteration=it,
                    value=v_new,
                    grad_norm=gnorm,
                    lambda_min=lam_min,
                    branch=branch,
                    decrease=decrease,
                )
            )
        if v_new >= v_prev - threshold:
            report.termination = "early_stop"
            break
        x_prev, v_prev, g = x_new, v_new, g_new
    report.final_x = x_prev
    report.final_value = v_prev
    return report


def kinked_square():
    """x . x whose gradient raises once x[0] drops below 0.5."""

    def kinked_grad(x):
        if x[0] < 0.5:
            raise NonDifferentiablePoint("kink reached")
        return 2.0 * x

    return FunctionObjective(lambda x: float(x @ x), grad=kinked_grad)


def gaussian_two_branch_run(trace_stride=1):
    """A Gaussian-kernel descent that takes both branches and early-stops."""
    rng = np.random.default_rng(4)
    tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[0.8, -0.6])
    vec = VectorObjective(Objective(GaussianPotential(1.0), tgt), 2, 3)
    x0 = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.standard_normal(6)])
    cfg = DescentConfig(T=2000, alpha=0.2, eta=0.05, gamma=0.1, trace_stride=trace_stride)
    return vec, x0, cfg


def spd_quadratic_runs():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = rng.standard_normal((4, 4))
        m = m @ m.T + 0.5 * np.eye(4)
        cfg = DescentConfig(T=2000, alpha=0.5 / np.linalg.norm(m, 2), eta=1e-2, gamma=1e-2)
        yield quadratic_objective(m, rng.standard_normal(4)), rng.standard_normal(4), cfg


def assert_matches_former_loop(objective, x0, cfg):
    """Run second_gd and check it against the former loop, bit for bit."""
    want = former_second_gd(objective, x0, cfg)
    rep = second_gd(objective, x0, cfg)
    assert rep.to_jsonl() == want.to_jsonl()  # rows, termination, iterations, error
    np.testing.assert_array_equal(rep.final_x, want.final_x)
    assert rep.final_value == want.final_value
    return rep


def nan_beyond_three(where):
    """-x0 with gradient (-1, 0), so every step adds alpha to x0; from
    x0 >= 3 on, the value (``where="value"``) or the gradient turns NaN."""

    def f(x):
        return float("nan") if where == "value" and x[0] >= 3.0 else -float(x[0])

    def grad(x):
        return np.array([float("nan") if where == "grad" and x[0] >= 3.0 else -1.0, 0.0])

    return FunctionObjective(f, grad=grad)


class TestOneLoop:
    """second_gd against the former loop on each way a run can end."""

    def test_spd_quadratics_early_stop(self):
        for objective, x0, cfg in spd_quadratic_runs():
            rep = assert_matches_former_loop(objective, x0, cfg)
            assert rep.termination == "early_stop" and rep.rows[-1].branch == "hessian"

    def test_kinked_gradient_ends_in_error(self):
        cfg = DescentConfig(T=50, alpha=0.2, eta=1e-6, gamma=1e-3)
        rep = assert_matches_former_loop(kinked_square(), np.array([1.0, 0.0]), cfg)
        assert rep.termination == "error"

    @pytest.mark.parametrize("driver", [gd, second_gd])
    @pytest.mark.parametrize("where", ["value", "grad"])
    def test_non_finite_step_ends_in_error(self, driver, where):
        # NaN passes every decrease test: both drivers used to run all T
        # steps and end at final_value=nan
        cfg = DescentConfig(T=200, alpha=0.5, eta=1e-3, gamma=1e-2)
        rep = driver(nan_beyond_three(where), np.array([0.0, 0.0]), cfg)
        assert rep.termination == "error"
        assert rep.error.startswith("non-finite value") and "at iteration 6" in rep.error
        assert rep.iterations == 5
        np.testing.assert_array_equal(rep.final_x, [2.5, 0.0])
        assert rep.final_value == -2.5
        assert [r.value for r in rep.rows] == [-0.5, -1.0, -1.5, -2.0, -2.5]

    def test_early_stop_between_strides(self):
        rep = assert_matches_former_loop(*gaussian_two_branch_run(trace_stride=7))
        assert rep.termination == "early_stop" and rep.iterations % 7 != 0
        assert rep.rows[-1].iteration == rep.iterations

    def test_gaussian_run_takes_both_branches(self):
        rep = assert_matches_former_loop(*gaussian_two_branch_run())
        branches = [r.branch for r in rep.rows]
        assert branches.count("hessian") > 1 and branches.count("grad") > 1
        assert all(np.isnan(r.lambda_min) == (r.branch == "grad") for r in rep.rows)

    def test_one_value_and_grad_per_attempt_and_hess_per_hessian_step(self):
        vec, x0, cfg = gaussian_two_branch_run()
        counted = CountingObjective(vec)
        rep = second_gd(counted, x0, cfg)
        assert counted.calls == rep.iterations + 1
        assert counted.hess_calls == sum(r.branch == "hessian" for r in rep.rows) > 0
        # the failed attempt made its call too
        counted = CountingObjective(kinked_square())
        rep = second_gd(counted, np.array([1.0, 0.0]), DescentConfig(T=50, alpha=0.2, eta=1e-6))
        assert rep.termination == "error"
        assert counted.calls == rep.iterations + 2 and counted.hess_calls == 0


class TestGD:
    def test_single_step_on_square(self):
        obj = FunctionObjective(lambda x: float(x[0] ** 2), grad=lambda x: 2.0 * x)
        rep = gd(obj, np.array([1.0]), DescentConfig(T=1, alpha=0.25))
        assert rep.final_x[0] == 0.5

    def test_fixed_point_at_minimum(self):
        tgt = TargetNetwork(w=np.zeros((1, 3)), b=[1.0])
        obj = Objective(GaussianPotential(1.0), tgt)
        vec = VectorObjective(obj, 1, 3)
        x0 = np.array([-1.0, 0.0, 0.0, 0.0])
        rep = gd(vec, x0, DescentConfig(T=10, alpha=0.1))
        np.testing.assert_array_equal(rep.final_x, x0)

    @pytest.mark.parametrize("driver", [gd, second_gd])
    def test_sphere_objective_stays_on_sphere(self, driver):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((2, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        obj = Objective(parse_potential("poly:l=3"), TargetNetwork(w=w, b=[0.9, -0.7]))
        vec = VectorObjective(obj, 2, 3)
        theta = rng.standard_normal((2, 3))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        x0 = np.concatenate([[0.5, -0.5], theta.ravel()])
        rep = driver(vec, x0, DescentConfig(T=4, alpha=0.1, eta=1e-8, gamma=1e-3))
        assert rep.iterations == 4
        norms = np.linalg.norm(vec.unpack(rep.final_x).theta, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_one_value_and_grad_call_per_iterate(self):
        # gd carries (value, grad) forward: T + 1 calls in all, and the same
        # iterates as the former loop with separate value and grad calls
        rng = np.random.default_rng(22)
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[0.8, -0.6])
        vec = VectorObjective(Objective(GaussianPotential(1.0), tgt), 2, 3)
        counted = CountingObjective(vec)
        x0 = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.standard_normal(6)])
        cfg = DescentConfig(T=40, alpha=0.05)
        rep = gd(counted, x0, cfg)
        assert counted.calls == cfg.T + 1
        rows, x = two_call_gd(vec, x0, cfg)
        assert [(r.iteration, r.value, r.grad_norm, r.decrease) for r in rep.rows] == rows
        np.testing.assert_array_equal(rep.final_x, x)

    def test_zero_trace_stride_rejected(self):
        with pytest.raises(ValueError, match="trace_stride"):
            DescentConfig(trace_stride=0)

    @pytest.mark.parametrize(
        "field,value",
        [("alpha", np.nan), ("alpha", np.inf), ("alpha", 0.0), ("eta", np.inf), ("eta", -1.0),
         ("gamma", np.nan), ("T", 0)],
    )
    def test_bad_step_parameters_rejected(self, field, value):
        # a nan alpha would otherwise run at alpha = 1 after the init-charge
        # rescale min(1, alpha / scale)
        with pytest.raises(ValueError, match="need T >= 1 and positive, finite alpha, eta, gamma"):
            DescentConfig(**{field: value})


class TestHessianDescentStep:
    def test_saddle_step(self):
        x1, lam = hessian_descent_step(saddle, np.zeros(2), np.zeros(2), DescentConfig(alpha=0.1))
        assert lam == pytest.approx(-2.0)
        assert abs(x1[1]) == pytest.approx(0.2)  # beta = -alpha*lam_min*sign(0->+1)
        assert x1[0] == 0.0
        assert saddle.value_and_grad(x1)[0] == pytest.approx(-0.04)

    def test_convex_formula_still_applies(self):
        obj = quadratic_objective(np.diag([2.0, 4.0]))
        x = np.array([1.0, 1.0])
        x1, lam = hessian_descent_step(obj, x, obj.value_and_grad(x)[1], DescentConfig(alpha=0.1))
        assert lam == pytest.approx(2.0)
        # beta = -0.1 * 2 * sign(g . v_min); |step| = 0.2 along v_min
        assert np.linalg.norm(x1 - x) == pytest.approx(0.2)

    def test_needs_only_hess(self):
        # the caller supplies the gradient; the objective is asked for hess only
        hess_only = type("HessOnly", (), {"hess": staticmethod(lambda x: np.diag([2.0, -2.0]))})()
        x = np.array([0.5, 0.0])
        x1, lam = hessian_descent_step(hess_only, x, np.array([1.0, 0.0]), DescentConfig(alpha=0.1))
        assert lam == -2.0
        np.testing.assert_allclose(np.abs(x1 - x), [0.0, 0.2])


class TestSecondGD:
    def test_square_early_stop(self):
        obj = FunctionObjective(
            lambda x: float(x[0] ** 2), grad=lambda x: 2.0 * x, hess=lambda x: np.array([[2.0]])
        )
        cfg = DescentConfig(T=100, alpha=0.25, eta=0.1, gamma=0.1)
        rep = second_gd(obj, np.array([1.0]), cfg)
        assert rep.termination == "early_stop"
        assert abs(rep.final_x[0]) <= 0.05
        assert all(r.branch == "grad" for r in rep.rows[:-1])

    def test_saddle_takes_hessian_branch_first(self):
        cfg = DescentConfig(T=5, alpha=0.1, eta=0.5, gamma=0.1)
        rep = assert_matches_former_loop(saddle, np.zeros(2), cfg)
        assert rep.rows[0].branch == "hessian"

    def test_every_recorded_nonterminal_iteration_decreases(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = m @ m.T + 0.5 * np.eye(4)
            obj = quadratic_objective(m, rng.standard_normal(4))
            cfg = DescentConfig(T=200, alpha=0.1 / np.linalg.norm(m, 2), eta=1e-3, gamma=1e-3)
            rep = second_gd(obj, rng.standard_normal(4), cfg)
            vals = np.array([r.value for r in rep.rows])
            cutoff = len(vals) - 1 if rep.termination == "early_stop" else len(vals)
            assert np.all(np.diff(vals[:cutoff]) <= 0)

    def test_early_stop_returns_previous_iterate(self):
        # on a flat function the first step cannot decrease; the returned
        # point must be x0 itself
        obj = FunctionObjective(lambda x: 1.0, grad=lambda x: np.zeros_like(x), hess=lambda x: np.eye(1))
        cfg = DescentConfig(T=10, alpha=0.5, eta=1e-3, gamma=1e-3)
        rep = second_gd(obj, np.array([3.0]), cfg)
        assert rep.termination == "early_stop"
        assert rep.final_x[0] == 3.0
        assert rep.iterations == 1

    def test_kink_mid_trajectory_truncates_with_error(self):
        cfg = DescentConfig(T=50, alpha=0.2, eta=1e-6, gamma=1e-3)
        for driver in (gd, second_gd):
            rep = driver(kinked_square(), np.array([1.0, 0.0]), cfg)
            assert rep.termination == "error"
            assert "kink" in rep.error
            assert rep.final_x[0] >= 0.3  # last good iterate, not the bad one

    def test_deterministic_reports(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        m = m @ m.T + np.eye(3)
        obj = quadratic_objective(m)
        cfg = DescentConfig(T=50, alpha=0.05, eta=1e-4, gamma=1e-3, seed=7)
        x0 = rng.standard_normal(3)
        r1 = second_gd(obj, x0.copy(), cfg)
        r2 = second_gd(obj, x0.copy(), cfg)
        assert r1.to_jsonl() == r2.to_jsonl()
        np.testing.assert_array_equal(r1.final_x, r2.final_x)

    def test_to_jsonl_text(self):
        rows = [
            IterationRecord(1, np.float64(1.5), 2.0, float("nan"), "grad", 0.25),
            IterationRecord(2, 1.25, 1e-08, -0.5, "hessian", np.float64(0.25)),
        ]
        rep = DescentReport(rows=rows, termination="early_stop", final_value=1.25, iterations=2)
        assert rep.to_jsonl() == (
            '{"schema_version": 1, "iteration": 1, "value": 1.5, "grad_norm": 2.0, '
            '"lambda_min": null, "branch": "grad", "decrease": 0.25}\n'
            '{"schema_version": 1, "iteration": 2, "value": 1.25, "grad_norm": 1e-08, '
            '"lambda_min": -0.5, "branch": "hessian", "decrease": 0.25}\n'
            '{"schema_version": 1, "termination": "early_stop", "iterations": 2, '
            '"final_value": 1.25, "error": ""}'
        )


class TestDecreaseGuarantees:
    def test_gradient_branch_on_quadratics(self):
        # alpha <= 1/B2 and |grad| >= eta imply decrease >= alpha eta^2 / 2
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = rng.integers(2, 6)
            m = rng.standard_normal((dim, dim))
            m = m @ m.T + 0.1 * np.eye(dim)
            b2 = np.linalg.norm(m, 2)
            obj = quadratic_objective(m, rng.standard_normal(dim))
            alpha = 1.0 / b2
            x = rng.standard_normal(dim)
            value, g = obj.value_and_grad(x)
            eta = np.linalg.norm(g)
            if eta < 1e-9:
                continue
            decrease = value - obj.value_and_grad(x - alpha * g)[0]
            assert decrease >= alpha * eta**2 / 2.0 - 1e-12

    def test_hessian_branch_on_saddles(self):
        # lambda_min <= -gamma and alpha <= 1/B3 imply decrease >= alpha^2 gamma^3 / 2
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = rng.integers(2, 6)
            m = rng.standard_normal((dim, dim))
            m = m + m.T
            vals = np.linalg.eigvalsh(m)
            if vals[0] > -0.2:
                m -= (vals[0] + 0.5) * np.eye(dim)
            obj = quadratic_objective(m, rng.standard_normal(dim))
            lam = np.linalg.eigvalsh(m)[0]
            gamma = -lam
            alpha = rng.uniform(0.01, 0.2)  # any alpha: B3 = 0 for quadratics
            x = rng.standard_normal(dim)
            cfg = DescentConfig(alpha=alpha)
            value, g = obj.value_and_grad(x)
            x1, lam_meas = hessian_descent_step(obj, x, g, cfg)
            assert lam_meas == pytest.approx(lam, abs=1e-9)
            decrease = value - obj.value_and_grad(x1)[0]
            assert decrease >= alpha**2 * gamma**3 / 2.0 - 1e-10


class TestMinEigpair:
    def test_dense_path(self):
        m = np.diag([3.0, -5.0, 6.0])
        lam, v = min_eigpair(m)
        assert lam == -5.0
        assert abs(v[1]) == pytest.approx(1.0)

    def test_beyond_former_dense_cutoff(self):
        rng = np.random.default_rng(4)
        n = 300
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.concatenate([[-2.0], np.linspace(-1.0, 5.0, n - 1)])
        m = (q * vals) @ q.T
        m = 0.5 * (m + m.T)
        lam, v = min_eigpair(m)
        assert lam == pytest.approx(-2.0, abs=1e-7)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-7

    def test_non_finite_entry_raises(self):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(EigenSolveFailure):
            min_eigpair(m)


class TestStationarity:
    def test_matched_minimum_is_member(self):
        tgt = TargetNetwork(w=np.zeros((1, 3)), b=[1.0])
        obj = Objective(GaussianPotential(1.0), tgt)
        vec = VectorObjective(obj, 1, 3)
        st = stationarity_check(vec, np.array([-1.0, 0.0, 0.0, 0.0]), eps=1e-8)
        assert st.member and st.grad_ok and st.hess_ok

    def test_strict_saddle_is_not(self):
        st = stationarity_check(saddle, np.zeros(2), eps=0.5)
        assert st.grad_ok and not st.hess_ok and not st.member
        assert st.lambda_min == pytest.approx(-2.0)


class TestEarlyStopStationarity:
    def test_early_stop_point_is_approximately_stationary(self):
        # when the combined descent stops on a smooth objective with a
        # conservative step, the returned iterate satisfies both membership
        # conditions at the tolerance implied by (eta, gamma)
        rng = np.random.default_rng(21)
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[0.8, -0.6])
        obj = Objective(GaussianPotential(1.0), tgt, regularization="charge")
        vec = VectorObjective(obj, 2, 3)
        eta, gamma = 1e-3, 1e-2
        cfg = DescentConfig(T=20_000, alpha=0.05, eta=eta, gamma=gamma)
        x0 = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.standard_normal(6) * 0.5])
        rep = second_gd(vec, x0, cfg)
        assert rep.termination == "early_stop"
        st = stationarity_check(vec, rep.final_x, eps=max(eta, gamma))
        assert st.member


class TestInitializeNode:
    def test_random_ball_improves_across_seeds(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((1, 3))
        tgt = TargetNetwork(w=w, b=[1.0])
        obj = Objective(GaussianPotential(1.0), tgt)
        radius = 2.0 * float(np.linalg.norm(w))
        for seed in range(20):
            a, theta, change = initialize_node(obj, RandomBallInit(radius, trials=500), seed=seed)
            assert change < 0

    def test_zero_target_fails(self):
        # a zero target leaves every trial's best change at exactly 0
        tgt = TargetNetwork(w=np.zeros((1, 3)), b=[0.0])
        obj = Objective(GaussianPotential(1.0), tgt)
        with pytest.raises(InitializationFailed, match="no strict decrease"):
            initialize_node(obj, RandomBallInit(2.0, trials=100), seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[0.5, -0.5])
        obj = Objective(GaussianPotential(1.0), tgt)
        p = RandomBallInit(3.0, trials=200)
        first = initialize_node(obj, p, seed=3)
        second = initialize_node(obj, p, seed=3)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])

    def test_best_point_is_a_copy(self):
        # the returned point must not pin its whole 2^19-trial chunk
        rng = np.random.default_rng(8)
        tgt = TargetNetwork(w=rng.standard_normal((2, 3)), b=[0.5, -0.5])
        obj = Objective(GaussianPotential(1.0), tgt)
        _, theta, _ = initialize_node(obj, RandomBallInit(3.0, trials=100), seed=0)
        assert theta.shape == (3,) and theta.base is None

    @pytest.mark.parametrize(
        "radius,trials", [(1.0, 0), (1.0, -5), (0.0, 10), (-1.0, 10), (np.inf, 10)]
    )
    def test_bad_policy_rejected(self, radius, trials):
        with pytest.raises(ValueError, match="need trials >= 1 and radius > 0 and finite"):
            RandomBallInit(radius, trials=trials)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def exhaustive_init(obj, policy, seed):
    """Oracle for initialize_node: replay the Philox (seed, 0) stream chunk
    by chunk, build every ball point, score every one with
    optimal_outer_weight and keep the first strict improvement."""
    rng = philox(seed)
    d = obj.target.d
    best = (None, None, np.inf)
    for start in range(0, policy.trials, 1 << 19):
        m = min(policy.trials - start, 1 << 19)
        pts = chunk_points(rng, m, d, policy.radius)
        a, changes = obj.optimal_outer_weight(pts)
        i = int(np.argmin(changes))
        if changes[i] < best[2]:
            best = (a[i], pts[i], changes[i])
    return best


def chunk_points(rng, m, d, radius):
    """One chunk of uniform ball points: m normals, then m uniforms."""
    z = rng.standard_normal((m, d))
    u = rng.uniform(size=m)
    return z / np.sqrt(np.sum(z * z, axis=1, keepdims=True)) * (radius * u ** (1.0 / d))[:, None]


def init_objectives(pot):
    """The full objective of a mixed-sign two-node target and its
    restriction with one frozen node."""
    w = np.array([[2.0, -1.0, 0.5], [-1.5, 0.5, 2.0]])
    full = Objective(pot, TargetNetwork(w=w, b=[0.8, -0.6]))
    return {"full": full, "restricted": full.restricted(np.array([[1.9, -1.1, 0.6]]), [-0.7])}


def uncertified_table(table):
    """The table with its slopes scaled 4x: the midpoint overshoot check
    still passes, but each log-log cubic now dips and rises again."""
    return dataclasses.replace(table, derivs=4.0 * table.derivs)


class TestPrunedInit:
    CHUNK = 1 << 19

    @pytest.fixture(params=["gauss", "almost"])
    def pot(self, request, almost_table):
        if request.param == "gauss":
            return parse_potential("gauss:c=1")
        return almost_table

    @pytest.fixture
    def kept(self, monkeypatch):
        """Reads the rows scored per chunk (the keep masks, which a first
        chunk extends by its prefix after the pruning test)."""
        masks = []
        may_beat = descent._may_beat

        def spy(*args):
            masks.append(may_beat(*args))
            return masks[-1]

        monkeypatch.setattr(descent, "_may_beat", spy)
        return lambda: [int(keep.sum()) for keep in masks]

    @pytest.mark.parametrize("which", ["full", "restricted"])
    # at seed 2 the winner of every case below lies in the second chunk
    @pytest.mark.parametrize("trials,seed", [(2 * CHUNK + 1000, 2), (1000, 3)])
    def test_equals_exhaustive_oracle(self, pot, which, trials, seed, kept):
        obj = init_objectives(pot)[which]
        policy = RandomBallInit(4.0, trials=trials)
        got = initialize_node(obj, policy, seed=seed)
        want = exhaustive_init(obj, policy, seed)
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])
        scored = kept()
        if trials > self.CHUNK:
            # every chunk after the first was pruned
            assert len(scored) == 3 and max(scored[1:]) < self.CHUNK // 2
        else:
            # a chunk below the prefix size is scored whole
            assert scored == [trials]

    def test_later_chunk_without_survivors(self, almost_table, kept):
        obj = init_objectives(almost_table)["restricted"]
        policy = RandomBallInit(4.0, trials=2 * self.CHUNK + 1000)
        got = initialize_node(obj, policy, seed=1)
        assert kept()[-1] == 0
        want = exhaustive_init(obj, policy, 1)
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])

    def test_lone_survivor_keeps_bulk_bits(self, monkeypatch):
        # K @ b on a one-row block can round differently from the product
        # over the whole chunk, so a lone kept row must still be scored
        # inside the full-chunk block
        obj = init_objectives(GaussianPotential(1.0))["full"]
        m, radius = 1 << 16, 4.0
        for seed in range(12):
            pts = chunk_points(philox(seed), m, 3, radius)
            a, changes = obj.optimal_outer_weight(pts)
            i = int(np.argmin(changes))
            lone = np.zeros(m, dtype=bool)
            lone[i] = True
            monkeypatch.setattr(descent, "_may_beat", lambda *args: lone.copy())
            # a threshold is given, so no prefix joins the patched mask
            got = descent._best_trial(obj, philox(seed), radius, m, top=1.0)
            assert got[0] == a[i] and got[2] == changes[i]
            assert np.array_equal(got[1], pts[i])

    @pytest.mark.parametrize("which", ["full", "restricted"])
    def test_keeps_every_row_that_can_reach_the_threshold(self, pot, which):
        obj = init_objectives(pot)[which]
        radius, m = 4.0, self.CHUNK
        rng = philox(5)
        z = rng.standard_normal((m, 3))
        u = rng.uniform(size=m)
        pts = z / np.sqrt(np.sum(z * z, axis=1, keepdims=True)) * (radius * u ** (1.0 / 3))[:, None]
        score = np.abs(obj.cross_block(pts) @ obj.target.b)
        # thresholds as a first chunk sets them and as later chunks see them
        for t in (np.max(score[:4096]), np.quantile(score, 0.9999)):
            keep = descent._may_beat(obj, z, u, radius, t)
            assert keep[score >= t * (1.0 - 1e-9)].all()
            assert keep.mean() < 0.5

    def test_uncertified_kernel_prunes_nothing(self, almost_table, kept):
        bumpy = uncertified_table(almost_table)
        r = np.linspace(0.0, 10.0, 100_001)
        assert np.any(np.diff(bumpy.value(r)) > 0.0)
        assert not bumpy.radially_nonincreasing
        obj = init_objectives(bumpy)["restricted"]
        policy = RandomBallInit(4.0, trials=self.CHUNK + 1000)
        got = initialize_node(obj, policy, seed=2)
        assert kept() == [self.CHUNK, 1000]
        want = exhaustive_init(obj, policy, 2)
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])

    def test_certified_kernels(self, almost_table):
        assert almost_table.radially_nonincreasing
        assert GaussianPotential(1.0).radially_nonincreasing
        assert LaplaceExpPotential(1.0).radially_nonincreasing
        for kind in ("explh:lambda=1,d=3", "coulomb:d=3", "log", "sign", "poly:l=3"):
            assert not parse_potential(kind).radially_nonincreasing


class TestNodeWise:
    def test_single_node_immediate_convergence(self):
        # init exactly at the target with the optimal weight: the descent has
        # nothing to do and the node is returned as-is
        w = np.array([[1.0, -2.0, 0.5]])
        tgt = TargetNetwork(w=w, b=[0.8])
        obj = Objective(GaussianPotential(1.0), tgt)

        vec = VectorObjective(obj, 1, 3)
        x0 = np.concatenate([[-0.8], w[0]])
        cfg = DescentConfig(T=50, alpha=0.05, eta=1e-6, gamma=1e-3)
        rep = second_gd(vec, x0, cfg)
        assert rep.termination == "early_stop"
        np.testing.assert_array_equal(rep.final_x, x0)

    def test_sphere_kernel_rejected_before_init(self):
        # ball initialization samples Euclidean space, so the node objective
        # refuses sphere kernels before any trial is scored
        obj = Objective(parse_potential("poly:l=3"), TargetNetwork(w=[[0.6, 0.8, 0.0]], b=[1.0]))
        with pytest.raises(DimensionMismatch, match="poly:l=3"):
            node_wise_descent(obj, RandomBallInit(radius=1.0, trials=100), DescentConfig(T=10))

    def test_two_well_separated_nodes_recovered(self, almost_table):
        rng = np.random.default_rng(8)
        w = np.array([[8.0, 0.0, 0.0], [-6.0, 5.0, 0.0]])
        tgt = TargetNetwork(w=w, b=[0.7, -0.6])
        obj = Objective(almost_table, tgt)
        cfg = DescentConfig(
            T=30_000, alpha=1e-5, eta=1e-7, gamma=1e-2, seed=0, alpha_scale="init-charge"
        )
        result = node_wise_descent(obj, RandomBallInit(radius=12.0, trials=1_000_000), cfg)
        dist = np.sqrt(((result.theta[:, None, :] - w[None, :, :]) ** 2).sum(-1))
        perm = np.argmin(dist, axis=1)
        assert sorted(perm.tolist()) == [0, 1]  # distinct matches
        assert all(dist[i, perm[i]] < 0.1 for i in range(2))
        assert all(abs(result.a[i] + tgt.b[perm[i]]) < 0.1 for i in range(2))

import itertools

import numpy as np
import pytest

from chargeflow import harmonic
from chargeflow.errors import DimensionMismatch, DivergedLoss, NonFiniteSample
from chargeflow.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    LayeredNetwork,
    config_from,
    generate_separated_target,
    generate_target,
    match_to_target,
    min_cost_assignment,
    parse_config_file,
    recovery_experiment,
    rows_to_csv,
    run_table,
    sgd_train,
    write_jsonl,
)
from chargeflow.loss import TargetNetwork


class TestGenerateTarget:
    def test_deterministic_per_seed(self):
        a = generate_target(10, 3, 7, seed=5)
        b = generate_target(10, 3, 7, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = generate_target(10, 3, 7, seed=6)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_shapes(self):
        net = generate_target(10, 4, 8, seed=0)
        assert len(net.weights) == 4
        assert [w.shape for w in net.weights] == [(8, 10), (8, 8), (8, 8), (1, 8)]

    def test_depth_two_counts(self):
        net = generate_target(6, 2, 9, seed=0)
        assert [w.shape for w in net.weights] == [(9, 6), (1, 9)]

    def test_separated_target_respects_floor(self):
        for seed in range(5):
            tgt = generate_separated_target(3, 3, seed, separation=10.0)
            diff = tgt.w[:, None, :] - tgt.w[None, :, :]
            dist = np.sqrt((diff**2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 10.0

    def test_unreachable_separation_raises(self):
        # twelve draws of N(0, 1) on a line essentially never lie pairwise 1 apart
        with pytest.raises(ValueError, match=r"12 hidden vectors in d=1 .*separation 1"):
            generate_separated_target(1, 12, 0, separation=1.0)

    @pytest.mark.parametrize(
        "separation,message",
        [
            (np.nan, "separation must be positive and finite, got nan"),
            (np.inf, "separation must be positive and finite, got inf"),
        ],
    )
    def test_bad_separation_rejected(self, separation, message):
        with pytest.raises(ValueError, match=message):
            generate_separated_target(3, 2, 0, separation=separation)


class TestSgdTrain:
    def test_zero_iterations_random_guess_band(self):
        cfg = ExperimentConfig(iters=0, n_train=2000, n_test=2000)
        for seed in (0, 1):
            target = generate_target(10, 2, 10, seed)
            row = sgd_train(cfg, target, 2, 10, seed)
            assert 0.5 <= row.test_err <= 2.0

    def test_identical_seeds_identical_errors(self):
        cfg = ExperimentConfig(iters=200, n_train=500, n_test=500)
        target = generate_target(10, 2, 5, 3)
        r1 = sgd_train(cfg, target, 2, 5, 3)
        r2 = sgd_train(cfg, target, 2, 5, 3)
        assert (r1.train_err, r1.test_err) == (r2.train_err, r2.test_err)

    def test_short_training_improves(self):
        cfg0 = ExperimentConfig(iters=0, n_train=2000, n_test=2000)
        cfg1 = ExperimentConfig(iters=5000, n_train=2000, n_test=2000)
        target = generate_target(10, 2, 5, 0)
        before = sgd_train(cfg0, target, 2, 5, 0)
        after = sgd_train(cfg1, target, 2, 5, 0)
        assert after.test_err < before.test_err / 2


def per_step_sgd(cfg, target, depth, width, seed):
    """Reference loop: one index draw, fancy indexing and one update per
    step, on the data and student sgd_train draws from the same seed."""
    rng = np.random.default_rng([seed, 1])
    xs = rng.standard_normal((cfg.n_train, cfg.d))
    ys = target.forward(xs)
    xt = rng.standard_normal((cfg.n_test, cfg.d))
    yt = target.forward(xt)
    dims = [cfg.d] + [width] * (depth - 1) + [1]
    student = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(depth)]
    for _ in range(cfg.iters):
        idx = rng.integers(0, cfg.n_train, cfg.batch)
        hs = [xs[idx]]
        for w in student:
            hs.append(np.tanh(hs[-1] @ w.T))
        err = hs[-1][:, 0] - ys[idx]
        delta = (2.0 / cfg.batch) * err[:, None] * (1.0 - hs[-1] ** 2)
        grads = []
        for li in range(depth - 1, -1, -1):
            grads.append(delta.T @ hs[li])
            if li > 0:
                delta = (delta @ student[li]) * (1.0 - hs[li] ** 2)
        for w, g in zip(student, reversed(grads)):
            w -= cfg.alpha * g
    trained = LayeredNetwork(weights=tuple(student))
    return (
        float(np.mean((trained.forward(xs) - ys) ** 2)),
        float(np.mean((trained.forward(xt) - yt) ** 2)),
    )


class TestSgdBlocks:
    @pytest.mark.parametrize("batch", [32, 7])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("iters", [0, 1, 1023, 1024, 1025, 2100])
    def test_bit_equal_to_per_step_loop(self, iters, depth, batch):
        cfg = ExperimentConfig(iters=iters, batch=batch, n_train=300, n_test=200)
        target = generate_target(10, depth, 5, 4)
        row = sgd_train(cfg, target, depth, 5, 4)
        assert (row.train_err, row.test_err) == per_step_sgd(cfg, target, depth, 5, 4)

    @pytest.mark.parametrize("iters", [50, 1500])
    def test_non_finite_teacher_raises_diverged_loss(self, iters):
        w1, w2 = generate_target(10, 2, 5, 0).weights
        w1 = w1.copy()
        w1[0, 0] = np.nan
        cfg = ExperimentConfig(iters=iters, n_train=300, n_test=200)
        with pytest.raises(DivergedLoss, match="non-finite weights"):
            sgd_train(cfg, LayeredNetwork(weights=(w1, w2)), 2, 5, 0)


class TestTableRunner:
    def test_grid_shape_and_csv(self):
        cfg = ExperimentConfig(
            depths=(2,), widths=(5, 10), seeds=(0, 1, 2), iters=50, n_train=300, n_test=300
        )
        rows = run_table(cfg)
        assert len(rows) == 6
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 7

    def test_determinism_excluding_wall_clock(self):
        cfg = ExperimentConfig(
            depths=(2,), widths=(5,), seeds=(0, 1), iters=100, n_train=300, n_test=300
        )
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]
        a = strip(rows_to_csv(run_table(cfg)))
        b = strip(rows_to_csv(run_table(cfg)))
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(
            depths=(2,), widths=(5,), seeds=(0, 1), iters=50, n_train=200, n_test=200
        )
        serial = [(r.depth, r.width, r.seed, r.train_err, r.test_err) for r in run_table(cfg)]
        par = [
            (r.depth, r.width, r.seed, r.train_err, r.test_err)
            for r in run_table(cfg, workers=2)
        ]
        assert serial == par


class TestMatching:
    def test_permutation_is_distinct_and_minimal(self):
        tgt = TargetNetwork(w=np.array([[10.0, 0, 0], [0.0, 10, 0], [0, 0, 10.0]]), b=[1.0, -0.5, 0.2])
        theta = np.array([[0.0, 9.9, 0], [0, 0, 10.05], [10.1, 0, 0]])
        a = np.array([0.5, -0.2, -1.0])
        perm, max_dist, max_charge = match_to_target(theta, a, tgt)
        assert sorted(perm.tolist()) == [0, 1, 2]
        assert perm.tolist() == [1, 2, 0]
        assert max_dist == pytest.approx(0.1, abs=1e-12)

    def test_known_assignment_beyond_brute_force_range(self):
        # k = 12 targets 10 apart, learned nodes = a known relabelling of them
        # plus noise well below half the separation
        rng = np.random.default_rng(21)
        w = 10.0 * np.arange(12.0)[:, None] * np.array([[1.0, 0.0, 0.0]])
        tgt = TargetNetwork(w=w, b=rng.uniform(-1, 1, 12))
        truth = rng.permutation(12)
        theta = w[truth] + rng.uniform(-0.5, 0.5, (12, 3))
        a = -tgt.b[truth] + rng.uniform(-0.01, 0.01, 12)
        perm, max_dist, max_charge = match_to_target(theta, a, tgt)
        assert perm.tolist() == truth.tolist()
        assert max_dist == pytest.approx(np.max(np.linalg.norm(theta - w[truth], axis=1)), abs=1e-12)
        assert max_charge == pytest.approx(np.max(np.abs(a + tgt.b[truth])), abs=1e-15)

    def test_nan_node_rejected(self):
        tgt = TargetNetwork(w=np.array([[10.0, 0, 0], [0.0, 10, 0], [0, 0, 10.0]]), b=[1.0, -0.5, 0.2])
        theta = tgt.w.copy()
        theta[1, 0] = np.nan
        with pytest.raises(NonFiniteSample):
            match_to_target(theta, -tgt.b, tgt)

    def test_fewer_nodes_than_targets_rejected(self):
        # a 2 x 3 distance matrix: no perfect matching
        tgt = TargetNetwork(w=np.array([[10.0, 0, 0], [0.0, 10, 0], [0, 0, 10.0]]), b=[1.0, -0.5, 0.2])
        with pytest.raises(DimensionMismatch, match="square"):
            match_to_target(tgt.w[:2], -tgt.b[:2], tgt)

    def test_nodes_of_another_dimension_rejected(self):
        # d = 2 nodes used to match d = 3 targets on their first two coordinates
        tgt = TargetNetwork(w=np.array([[10.0, 0, 0], [0.0, 10, 0]]), b=[1.0, -1.0])
        for theta in (np.array([[0.0, 10.0], [10.0, 0.0]]), np.zeros((2, 4))):
            with pytest.raises(DimensionMismatch, match="d=3"):
                match_to_target(theta, -tgt.b, tgt)


def assignment_cost(cost, perm):
    return float(cost[np.arange(len(perm)), perm].sum())


def assert_bijection(perm, k):
    assert perm.shape == (k,)
    assert sorted(perm.tolist()) == list(range(k))


class TestMinCostAssignment:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_optimal_against_brute_force(self, k):
        rng = np.random.default_rng(100 + k)
        perms = np.array(list(itertools.permutations(range(k))))
        rows = np.arange(k)
        # continuous costs, and small integers where many assignments tie
        cases = [rng.standard_normal((k, k)) for _ in range(20)]
        cases += [rng.integers(0, 3, (k, k)).astype(float) for _ in range(20)]
        cases += [np.zeros((k, k)), np.ones((k, k))]
        for cost in cases:
            perm = min_cost_assignment(cost)
            assert_bijection(perm, k)
            best = float(cost[rows, perms].sum(axis=1).min())
            assert assignment_cost(cost, perm) <= best + 1e-12

    def test_agrees_with_scipy(self):
        from scipy.optimize import linear_sum_assignment  # the test-only oracle

        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 5, 8, 12, 20, 30, 40):
            for cost in (rng.standard_normal((k, k)), rng.uniform(0.0, 50.0, (k, k)),
                         rng.integers(0, 4, (k, k)).astype(float)):
                perm = min_cost_assignment(cost)
                assert_bijection(perm, k)
                _, want = linear_sum_assignment(cost)
                assert assignment_cost(cost, perm) == pytest.approx(
                    assignment_cost(cost, want), rel=0, abs=1e-9
                )

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch, match="square"):
            min_cost_assignment(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch, match="square"):
            min_cost_assignment(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        cost = np.eye(3)
        cost[1, 2] = bad
        with pytest.raises(NonFiniteSample):
            min_cost_assignment(cost)


class TestWriteJsonl:
    def test_non_finite_number_writes_no_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError):
            write_jsonl([{"x": 1.0}, {"x": float("nan")}], path)
        assert not path.exists()


class TestRecovery:
    def test_single_node_quick(self):
        cfg = ExperimentConfig(
            experiment="recovery",
            k=1,
            seeds=(0, 1),
            trials=200_000,
            descent_T=15_000,
        )
        report = recovery_experiment(cfg)
        assert report["recovered_count"] == 2
        for rec in report["records"]:
            assert rec["distinct"]
            assert rec["max_position_err"] < 0.1
            assert rec["max_charge_err"] < 0.1


class TestRecoveryOptionsFailFast:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("descent_alpha", float("nan"), "alpha=nan"),
            ("descent_eta", float("inf"), "eta=inf"),
            ("descent_gamma", -1.0, "gamma=-1.0"),
            ("descent_T", 0, "T=0"),
            ("radius_mult", 0.0, "radius > 0"),
            ("radius_mult", float("inf"), "radius > 0 and finite"),
        ],
    )
    def test_rejected_before_the_tabulation(self, field, value, message, monkeypatch):
        def load(d, eps, lam):
            pytest.fail("the kernel tabulation was loaded before the options were checked")

        monkeypatch.setattr(harmonic, "load_or_build_almost_harmonic", load)
        cfg = ExperimentConfig(experiment="recovery", k=1, seeds=(0,), **{field: value})
        with pytest.raises(ValueError, match=message):
            recovery_experiment(cfg)


class TestRecoveryGaussianKernel:
    def test_moderate_separation(self):
        # the Gaussian kernel couples nodes only within a few sqrt(d/c) radii,
        # so the separation is set where its field is still alive
        cfg = ExperimentConfig(
            experiment="recovery",
            k=2,
            seeds=(0,),
            potential="gauss:c=1",
            separation=4.0,
            trials=500_000,
            descent_T=20_000,
            descent_alpha=3e-5,
            radius_mult=1.3,
        )
        report = recovery_experiment(cfg)
        assert report["recovered_count"] == 1


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "d = 6\n"
            "depths = 2,3\n"
            "widths = 5\n"
            "alpha = 0.125   # trailing comment\n"
            "seeds = 0,1,2\n"
            "full_scale = false\n"
        )
        values = parse_config_file(path)
        assert values == {
            "d": 6,
            "depths": (2, 3),
            "widths": (5,),
            "alpha": 0.125,
            "seeds": (0, 1, 2),
            "full_scale": False,
        }

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("d = 6\nwidth = 5\n")
        with pytest.raises(ValueError, match=r"typo\.cfg:2: unknown key 'width'"):
            parse_config_file(path)

    @pytest.mark.parametrize("val", ["maybe", "ture", "2", ""])
    def test_bool_value_must_be_a_truth_word(self, tmp_path, val):
        path = tmp_path / "exp.cfg"
        path.write_text(f"full_scale = {val}\n")
        with pytest.raises(ValueError, match=r"\bfull_scale\b"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "val,expected", [("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False), ("0", False)]
    )
    def test_bool_truth_words(self, tmp_path, val, expected):
        path = tmp_path / "exp.cfg"
        path.write_text(f"full_scale = {val}\n")
        assert parse_config_file(path) == {"full_scale": expected}

    def test_full_scale_resolution(self):
        cfg = ExperimentConfig(full_scale=True)
        resolved = cfg.resolved()
        assert resolved.iters == 1_000_000
        assert resolved.alpha == 1e-5

    @pytest.mark.parametrize(
        "file_values,flags",
        [({}, {"full_scale": True, "iters": 3}), ({"alpha": 0.5}, {"full_scale": True}),
         ({"full_scale": True}, {"iters": 3, "alpha": None})],
    )
    def test_full_scale_refuses_explicit_iters_or_alpha(self, file_values, flags):
        with pytest.raises(ValueError, match="full_scale sets iters and alpha"):
            config_from(file_values, flags)

    def test_full_scale_alone_resolves(self):
        cfg = config_from({"full_scale": True}, {"iters": None, "alpha": None})
        assert cfg.resolved().iters == 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(n_train=0)

    @pytest.mark.parametrize("field", ["k", "d"])
    def test_nonpositive_k_and_d_rejected(self, field):
        with pytest.raises(ValueError, match="need k >= 1 and d >= 1"):
            ExperimentConfig(**{field: 0})

    @pytest.mark.parametrize("widths", [(0,), (5, -1)])
    def test_width_below_one_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be >= 1"):
            ExperimentConfig(widths=widths)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_bad_sgd_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ExperimentConfig(alpha=alpha)

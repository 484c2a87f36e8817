import csv
import json

from chargeflow.cli import main


class TestTable:
    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "table",
                "--depths", "2",
                "--widths", "5,10",
                "--seeds", "0,1,2",
                "--iters", "50",
                "--n-train", "200",
                "--n-test", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert {r["width"] for r in rows} == {"5", "10"}
        assert all(float(r["test_err"]) >= 0 for r in rows)

    def test_bare_seed_count(self, tmp_path):
        # "--seeds 3" means three seeds: 2 widths x 3 seeds = 6 rows
        out = tmp_path / "rows.csv"
        code = main(
            [
                "table",
                "--depths", "2",
                "--widths", "5,10",
                "--seeds", "3",
                "--iters", "10",
                "--n-train", "100",
                "--n-test", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert {r["seed"] for r in rows} == {"0", "1", "2"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("depths = 2\nwidths = 5\nseeds = 0\niters = 20\nn_train = 100\nn_test = 100\n")
        out = tmp_path / "rows.csv"
        code = main(["table", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2  # flag overrode the file's single seed


class TestVerify:
    def test_single_check(self, capsys):
        assert main(["verify", "--check", "earnshaw"]) == 0
        text = capsys.readouterr().out
        assert "earnshaw-trace" in text
        assert "unexpected failures" in text

    def test_full_suite_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        assert main(["verify", "--check", "all", "--out", str(out)]) == 0
        records = [json.loads(line) for line in open(out)]
        assert any(r["check"] == "eigstrict-laplacian" for r in records)
        assert any(r["expected_fail"] for r in records)  # the control case
        assert all(r["passed"] or r["expected_fail"] for r in records)


class TestDynamics:
    def test_trajectory_file(self, tmp_path):
        out = tmp_path / "traj.jsonl"
        code = main(
            [
                "dynamics",
                "--potential", "gauss:c=1",
                "--k", "2",
                "--d", "3",
                "--dt", "1e-3",
                "--steps", "100",
                "--stride", "20",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in open(out)]
        assert [r["step"] for r in records] == [0, 20, 40, 60, 80, 100]
        losses = [r["loss"] for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


class TestBadInput:
    def test_config_key_typo(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("depths = 2\nwidth = 5\n")
        assert main(["table", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown key 'width'" in err

    def test_zero_trace_stride(self, capsys):
        argv = ["recovery", "--potential", "gauss:c=1", "--k", "1", "--seeds", "1", "--trace-stride", "0"]
        assert main(argv) == 1
        assert "error: trace_stride must be >= 1" in capsys.readouterr().err

    def test_zero_dynamics_stride(self, capsys):
        argv = ["dynamics", "--potential", "gauss:c=1", "--k", "1", "--steps", "2", "--stride", "0"]
        assert main(argv) == 1
        assert "error: stride must be >= 1" in capsys.readouterr().err


class TestMisc:
    def test_potential_info(self, capsys):
        assert main(["potential-info", "--potential", "gauss:c=1"]) == 0
        assert "euclidean" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_bad_potential_id_exit_code(self, capsys):
        assert main(["potential-info", "--potential", "nope"]) == 1

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import chargeflow
from chargeflow import cli
from chargeflow.cli import main
from chargeflow.harness import KEY_TYPES, ExperimentConfig
from chargeflow.landscape import LandscapeVerdict

from conftest import README_KERNEL_IDS


def test_import_loads_no_scipy():
    # every subcommand runs with scipy unimportable: a meta-path finder makes
    # any import of scipy or a scipy submodule raise ImportError, and records
    # the name, so an import attempt caught by a try/except fails the test
    # too. Recovery matches its nodes without scipy.optimize.
    src = os.path.dirname(os.path.dirname(chargeflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        ["verify", "--seed", "0"],
        *(["potential-info", "--potential", pid] for pid in README_KERNEL_IDS),
        ["table", "--depths", "2", "--widths", "2", "--seeds", "0,", "--iters", "1",
         "--n-train", "8", "--n-test", "8"],
        ["dynamics", "--potential", "poly:l=3", "--k", "2", "--d", "3", "--dt", "0.1", "--steps", "2"],
        ["recovery", "--k", "2", "--seeds", "0,", "--trials", "20000", "--descent-T", "300"],
    ]
    code = f"""
import contextlib, io, json, sys

blocked = []

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            blocked.append(name)
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
import chargeflow.cli
codes = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(chargeflow.cli.main(argv))
print(json.dumps([codes, blocked]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    codes, blocked = json.loads(out.stdout.strip().splitlines()[-1])
    assert dict(zip(map(" ".join, runs), codes)) == {" ".join(argv): 0 for argv in runs}
    assert blocked == []


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

    def test_stdout_is_the_csv(self, capsys):
        argv = ["table", "--depths", "2", "--widths", "5", "--seeds", "1", "--iters", "10",
                "--n-train", "100", "--n-test", "100"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 2 and all(len(row) == 6 for row in rows)
        assert "depth 2: mean test error" in captured.err

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

    def test_seed_selects_the_suite_draws(self, tmp_path):
        paths = {seed: tmp_path / f"seed{seed}.jsonl" for seed in (0, 3)}
        for seed, path in paths.items():
            assert main(["verify", "--check", "eigstrict", "--seed", str(seed), "--out", str(path)]) == 0
        assert paths[0].read_text() != paths[3].read_text()
        assert main(["verify", "--check", "eigstrict", "--out", str(tmp_path / "default.jsonl")]) == 0
        assert (tmp_path / "default.jsonl").read_text() == paths[0].read_text()

    def test_no_false_failures_from_loss_rounding(self, capsys):
        # second differences of the loss value, dominated by its constant
        # fixed-fixed block, failed the eigen-identity on these seeds
        for seed in (6, 66, 72, 90, 123, 129, 159, 171, 189):
            assert main(["verify", "--seed", str(seed)]) == 0, capsys.readouterr().out

    def test_seeds_is_a_usage_error(self, capsys):
        assert main(["verify", "--seeds", "3"]) == 2
        assert "unrecognized arguments: --seeds 3" in capsys.readouterr().err

    def test_full_suite_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        assert main(["verify", "--check", "all", "--out", str(out)]) == 0
        records = [json.loads(line) for line in open(out)]
        assert any(r["check"] == "eigstrict-laplacian" for r in records)
        assert any(r["expected_fail"] for r in records)  # the control case
        assert all(r["passed"] or r["expected_fail"] for r in records)

    def test_non_finite_measurement_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # NaN is not JSON: the run fails before the output file is opened
        verdict = LandscapeVerdict(
            check="earnshaw-trace", digest="x", measured={"trace": float("nan")}, passed=True, tol=1.0
        )
        monkeypatch.setattr(cli, "_verify_verdicts", lambda seed=0: [verdict])
        out = tmp_path / "verdicts.jsonl"
        assert main(["verify", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


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

    def test_config_bool_typo(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("full_scale = ture\n")
        # a tiny grid, so that a value read as false ends the run quickly
        tiny = ["--depths", "2", "--widths", "2", "--n-train", "8", "--n-test", "8", "--iters", "1", "--seeds", "0,"]
        assert main(["table", "--config", str(cfg)] + tiny) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "full_scale" in err

    def test_zero_trace_stride(self, capsys):
        argv = ["recovery", "--potential", "gauss:c=1", "--k", "1", "--seeds", "1", "--trace-stride", "0"]
        assert main(argv) == 1
        assert "error: trace_stride must be >= 1" in capsys.readouterr().err

    def test_zero_dynamics_stride(self, capsys):
        argv = ["dynamics", "--potential", "gauss:c=1", "--k", "1", "--steps", "2", "--stride", "0"]
        assert main(argv) == 1
        assert "error: stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["recovery", "--k", "1", "--trials", "0"], "error: need trials >= 1 and radius > 0"),
            (["recovery", "--k", "1", "--radius-mult", "0"], "error: need trials >= 1 and radius > 0"),
            (["recovery", "--k", "0"], "error: need k >= 1 and d >= 1"),
            (["dynamics", "--k", "1", "--steps", "-1"], "error: steps must be >= 0, got -1"),
            (["dynamics", "--k", "1", "--d", "0", "--steps", "2"], "error: need k >= 1 and d >= 1"),
            (["dynamics", "--k", "1", "--dt", "-1", "--steps", "0"], "error: dt must be positive and finite, got -1.0"),
            (["recovery", "--k", "1", "--separation", "-1"], "error: separation must be positive and finite, got -1.0"),
            (["recovery", "--k", "1", "--separation", "0"], "error: separation must be positive and finite, got 0.0"),
            (["recovery", "--k", "1", "--descent-alpha", "nan"], "alpha=nan"),
            (["recovery", "--k", "1", "--descent-eta", "inf"], "eta=inf"),
            (["recovery", "--k", "1", "--descent-gamma", "nan"], "gamma=nan"),
            (["recovery", "--k", "1", "--radius-mult", "inf"], "error: need trials >= 1 and radius > 0 and finite"),
        ],
    )
    def test_bad_counts_fail_fast(self, argv, message, capsys):
        assert main(argv + ["--potential", "gauss:c=1", "--seeds", "0,"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_table_workers_below_one(self, workers, capsys):
        argv = ["table", "--depths", "2", "--widths", "2", "--seeds", "0,", "--iters", "1", "--n-train", "8", "--n-test", "8"]
        assert main(argv + ["--workers", workers]) == 1
        assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_bad_list_value_is_a_usage_error(self, capsys):
        assert main(["table", "--depths", "2,x"]) == 2
        assert "argument --depths: invalid tuple value: '2,x'" in capsys.readouterr().err

    def test_bad_int_names_the_type(self, capsys):
        assert main(["recovery", "--k", "abc"]) == 2
        assert "argument --k: invalid int value: 'abc'" in capsys.readouterr().err

    def test_verify_takes_no_config(self, capsys):
        assert main(["verify", "--config", "x"]) == 2

    @pytest.mark.parametrize(
        "flags,message",
        [(["--widths", "0"], "error: widths must be >= 1, got (0,)"),
         (["--alpha", "-1"], "error: alpha must be positive and finite, got -1.0")],
    )
    def test_bad_table_values_fail_fast(self, flags, message, capsys):
        argv = ["table", "--depths", "2", "--widths", "2", "--seeds", "0,", "--iters", "1", "--n-train", "8", "--n-test", "8"]
        assert main(argv + flags) == 1
        assert message in capsys.readouterr().err


# a value per key type for the flag/config-file equivalence below; each differs
# from the ExperimentConfig default
_SAMPLE_TEXT = {
    "potential": "gauss:c=1", "scheme": "euler", "out": "x.out", "seeds": "4",
    "depths": "2,3", "widths": "5,7", int: "3", float: "0.5", bool: "true",
}


@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command, keys in cli._KEYS.items() for key in cli._COMMON_KEYS + keys],
)
def test_flag_matches_config_line(command, key, tmp_path):
    kind = KEY_TYPES[key]
    text = _SAMPLE_TEXT.get(key) or _SAMPLE_TEXT[kind]
    flag = "--" + key.replace("_", "-")
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = {text}\n")
    parser = cli._build_parser()
    from_flag = cli._config(parser.parse_args([command, flag] if kind is bool else [command, flag, text]))
    from_file = cli._config(parser.parse_args([command, "--config", str(path)]))
    assert from_flag == from_file
    assert getattr(from_flag, key) != getattr(ExperimentConfig(), key)


class TestMisc:
    def test_potential_info(self, capsys):
        assert main(["potential-info", "--potential", "gauss:c=1"]) == 0
        assert "euclidean" in capsys.readouterr().out

    @pytest.mark.parametrize("ident", README_KERNEL_IDS)
    def test_potential_info_on_readme_ids(self, ident, capsys):
        assert main(["potential-info", "--potential", ident]) == 0

    @pytest.mark.parametrize(
        "ident,certified",
        [
            ("almost:eps=0.1,lambda=1,d=3", True),
            ("gauss:c=1", True),
            ("sign", False),
            ("explh:lambda=1,d=3", False),
        ],
    )
    def test_potential_info_prints_the_pruning_certificate(self, ident, certified, capsys):
        assert main(["potential-info", "--potential", ident]) == 0
        assert f"radially non-increasing: {certified}\n" in capsys.readouterr().out

    def test_potential_info_on_harmonic_almost_kernel(self, capsys):
        # lambda = 0: the tabulated kernel whose tail is the harmonic 1/r
        assert main(["potential-info", "--potential", "almost:eps=0.1,lambda=0,d=3"]) == 0
        assert "phi(r=0.5) = " in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_bad_potential_id_exit_code(self, capsys):
        assert main(["potential-info", "--potential", "nope"]) == 1

    def test_bad_kernel_parameter_exit_code(self, capsys):
        assert main(["potential-info", "--potential", "exp1d:lambda=-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lambda" in err

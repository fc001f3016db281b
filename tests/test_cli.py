import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from breakeven import cli, trainer
from breakeven.cli import TRAIN_COLUMNS, build_parser, main, resolve_run_config
from breakeven.errors import InvalidConfigError, InvalidParamsError
from breakeven.netmodel import MlpSpec
from breakeven.trainer import METRIC_FIELDS, RunConfig, validate_metric_log

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def train_config(tmp_path):
    return write_json(
        tmp_path / "train.json",
        {
            "model": {"layer_sizes": [2, 8, 8, 2], "activation": "relu", "seed": 3},
            "dataset": {
                "kind": "gaussian_blobs", "n": 160, "classes": 2,
                "radius": 1.0, "sigma": 0.6, "seed": 1,
            },
            "eta": 0.05,
            "batch_size": 32,
            "epochs": 2,
            "eval_every": 2,
            "seed": 7,
            "spectra": {"n_gradient_samples": 6, "lanczos_iters": 10, "top_k": 2},
        },
    )


@pytest.fixture
def simulate_config(tmp_path):
    return write_json(
        tmp_path / "sim.json",
        {
            "etas": [0.5, 0.1, 0.02],
            "batch_sizes": [1, 10, 100],
            "alpha": 0.5,
            "psi": 1.0,
            "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 100, "seed": 0},
        },
    )


class TestSimulate:
    def test_full_batch_rows_equal_two_over_eta(self, simulate_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", simulate_config, "--out", str(out), "--quiet"]) == 0
        rows = (out / "breakeven_table.csv").read_text().splitlines()
        assert rows[0].startswith("# config_hash=")
        for line in rows[2:]:
            eta, s, n, *_rest, lam, flag = line.split(",")
            if s == n:
                assert abs(float(lam) - 2.0 / float(eta)) <= 1e-12 * (2.0 / float(eta))

    def test_alpha_zero_constant_in_batch_size(self, tmp_path):
        cfg = write_json(
            tmp_path / "sim0.json",
            {
                "etas": [0.1],
                "batch_sizes": [1, 5, 50],
                "alpha": 0.0,
                "psi": 1.0,
                "curvatures": {"kind": "constant", "value": 1.0, "count": 50},
            },
        )
        out = tmp_path / "out0"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lams = {
            line.split(",")[5]
            for line in (out / "breakeven_table.csv").read_text().splitlines()[2:]
        }
        assert len(lams) == 1

    def test_phase_diagram_eta_zero_breakeven(self, tmp_path):
        cfg = write_json(
            tmp_path / "simz.json",
            {
                "etas": [0.1],
                "batch_sizes": [10],
                "phase_grid": {"etas": [0.0, 0.1], "batch_sizes": [10]},
                "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 20, "seed": 0},
            },
        )
        out = tmp_path / "outz"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = [l.split(",") for l in (out / "phase_diagram.csv").read_text().splitlines()[2:]]
        assert rows[0][3] == "breakeven"  # eta = 0 cell

    def test_no_flip_exits_one_with_partial_output(self, tmp_path):
        cfg = write_json(
            tmp_path / "simflip.json",
            {
                "etas": [0.001],
                "batch_sizes": [100],
                "alpha": 0.0,
                "curvatures": {"kind": "constant", "value": 0.001, "count": 100},
                "growth": {
                    "direction": "increasing_from_stable",
                    "lambda0": 0.0001, "rho": 1.0001, "psi0": 1.0, "max_steps": 10,
                },
            },
        )
        out = tmp_path / "outflip"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert (out / "growth_dynamics.csv").exists()
        assert (out / "breakeven_table.csv").exists()

    def test_zero_max_steps_schema_error_exit_2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "simzero.json",
            {
                "etas": [0.1],
                "batch_sizes": [10],
                "curvatures": {"kind": "constant", "value": 1.0, "count": 10},
                "growth": {"lambda0": 0.1, "rho": 1.01, "max_steps": 0},
            },
        )
        out = tmp_path / "outzero"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "growth.max_steps" in capsys.readouterr().err
        assert not (out / "growth_dynamics.csv").exists()

    def test_mc_validation_close_to_closed_form(self, tmp_path):
        cfg = write_json(
            tmp_path / "simmc.json",
            {
                "etas": [0.1],
                "batch_sizes": [10],
                "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 60, "seed": 1},
                "monte_carlo": {"cases": 2, "steps": 150, "n_traj": 4000, "seed": 9},
            },
        )
        out = tmp_path / "outmc"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        for line in (out / "mc_validation.csv").read_text().splitlines()[2:]:
            assert float(line.split(",")[-1]) < 0.02

    def test_seed_flag_overrides_monte_carlo_seed(self, tmp_path):
        cfg = write_json(
            tmp_path / "simseed.json",
            {
                "etas": [0.1],
                "batch_sizes": [10],
                "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 40, "seed": 1},
                "monte_carlo": {"cases": 2, "steps": 40, "n_traj": 50, "seed": 9},
            },
        )

        def mc_bytes(seed, name):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", str(seed), "--quiet"]) == 0
            return (out / "mc_validation.csv").read_bytes()

        first = mc_bytes(1, "a")
        assert mc_bytes(1, "b") == first
        # the header carries the config hash, which --seed changes anyway
        assert mc_bytes(2, "c").splitlines()[2:] != first.splitlines()[2:]


class TestSimulateOnCpus:
    """The growth cells and Monte-Carlo cases run on one thread per CPU the
    process may use; ``os.sched_getaffinity`` is patched to set that count."""

    CONFIG = {
        "etas": [0.5, 0.1, 0.02],
        "batch_sizes": [1, 10, 40],
        "alpha": 0.5,
        "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 40, "seed": 2},
        "growth": {"direction": "increasing_from_stable", "lambda0": 0.05, "rho": 1.001, "psi0": 1.0},
        "monte_carlo": {"cases": 8, "steps": 30, "n_traj": 40, "seed": 5},
    }

    @staticmethod
    def simulate(tmp_path, monkeypatch, cpus, name):
        if cpus is not None:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write_json(tmp_path / "sim.json", TestSimulateOnCpus.CONFIG)
        out = tmp_path / name
        threads = threading.active_count()
        code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        assert threading.active_count() == threads  # no thread outlives main
        return code, out

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        outputs = []
        for cpus in (1, 4):
            code, out = self.simulate(tmp_path, monkeypatch, cpus, f"cpus{cpus}")
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["breakeven_table.csv", "growth_dynamics.csv", "mc_validation.csv",
                                      "phase_diagram.csv"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cpu_count", [None, 1, 4])
    def test_cpu_count_stands_in_for_a_missing_sched_getaffinity(self, cpu_count, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; os.cpu_count() may return None
        code, out = self.simulate(tmp_path, monkeypatch, 2, "affinity")
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
        fallback_code, fallback = self.simulate(tmp_path, monkeypatch, None, "cpu_count")
        assert code == fallback_code == 0
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (out, fallback)]
        assert files[0] == files[1]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_lowest_numbered_failing_case_is_reported(self, cpus, tmp_path, monkeypatch, capsys):
        # on 4 threads case 3 fails only after case 5 has failed on another
        # thread, so the error that reaches the CLI is the lower-numbered
        # one, not the first
        real = cli.ensemble_second_moments
        first_seed = self.CONFIG["monte_carlo"]["seed"]
        case_5_failed = threading.Event()

        def failing(model, setting, psi0, steps, n_traj, seed):
            case = seed - first_seed
            if case == 3 and cpus > 1:
                assert case_5_failed.wait(timeout=30)
            if case in (3, 5):
                if case == 5:
                    case_5_failed.set()
                raise InvalidParamsError(f"case {case} failed", "n_traj")
            return real(model, setting, psi0, steps, n_traj, seed)

        monkeypatch.setattr(cli, "ensemble_second_moments", failing)
        code, out = self.simulate(tmp_path, monkeypatch, cpus, "out")
        assert code == 2
        assert "error: monte_carlo.n_traj: case 3 failed" in capsys.readouterr().err
        assert not out.exists()


def test_import_leaves_concurrent_futures_unloaded():
    # the thread pools import it when they start, so a CLI start that runs
    # none does not pay for the import
    code = "import sys, breakeven.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestTrain:
    def test_exit_zero_and_valid_schema(self, train_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", train_config, "--out", str(out), "--quiet"]) == 0
        text = (out / "metrics.jsonl").read_text()
        validate_metric_log(text)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["diverged"] is False
        assert "config_hash" in summary

    def test_byte_identical_rerun(self, train_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", train_config, "--out", str(out1), "--quiet"])
        main(["train", "--config", train_config, "--out", str(out2), "--quiet"])
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_negative_eta_schema_error_exit_2(self, train_config, tmp_path):
        assert main(
            ["train", "--config", train_config, "--out", str(tmp_path / "x"), "--eta", "-0.1", "--quiet"]
        ) == 2

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "--quiet"]) == 3

    @pytest.mark.parametrize(
        "key, value", [("axis", {"name": "eta", "values": [0.02, 0.1]}), ("seeds", [0, 1])]
    )
    def test_sweep_only_key_exit_2_writes_nothing(self, key, value, train_config, tmp_path, capsys):
        cfg = json.loads(Path(train_config).read_text())
        cfg[key] = value
        path = write_json(tmp_path / "train_sweep_key.json", cfg)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", path, "--out", str(out), "--quiet"]) == 2
        assert f"{key}: only sweep reads this key" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_flag_overrides_echoed_in_metadata(self, train_config, tmp_path):
        out = tmp_path / "ov"
        main(["train", "--config", train_config, "--out", str(out), "--eta", "0.2",
              "--batch-size", "16", "--quiet"])
        meta = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
        assert meta["config"]["eta"] == 0.2
        assert meta["config"]["batch_size"] == 16


class TestStrictJson:
    """A NaN or ±inf that reaches a JSON writer fails the command with exit
    1, naming the file, and the file is not written: ``Infinity`` is not
    JSON."""

    def test_overflowing_full_batch_run_writes_valid_logs(self, tmp_path):
        # the desk benchmark model at full batch and eta 1.8: the loss grows
        # past 1e290 over 17 checkpoints, with Gram spectra near the float range
        cfg = write_json(
            tmp_path / "overflow.json",
            {
                "model": {"layer_sizes": [2, 32, 32, 2], "activation": "relu", "loss": "mse",
                          "init_gain": 0.6, "seed": 1},
                "dataset": {"kind": "gaussian_blobs", "n": 2000, "classes": 2, "radius": 1.0,
                            "sigma": 0.8, "val_fraction": 0.2, "seed": 1260921585},
                "eta": 1.8, "batch_size": 1600, "momentum": 0.0, "epochs": 400, "eval_every": 20,
                "eval_subset_fraction": 1.0, "seed": 1,
                "spectra": {"n_gradient_samples": 10, "gram_batch_size": 8, "lanczos_iters": 30},
            },
        )
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        text = (out / "metrics.jsonl").read_text()
        validate_metric_log(text)
        ratios = [json.loads(line)["g_ratio"] for line in text.splitlines()[1:]]
        assert len(ratios) == 17
        assert all(r is None or r >= 1.0 for r in ratios)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["indicators"]["lambda_k1_lambda_h1_pearson"] is None

    @staticmethod
    def refused(args, name, capsys):
        assert main(args + ["--quiet"]) == 1
        assert f"error: {name}: a value is not finite" in capsys.readouterr().err

    def test_metric_log(self, train_config, tmp_path, monkeypatch, capsys):
        real = cli.run_training

        def overflowed(*args, **kwargs):
            records, summary = real(*args, **kwargs)
            records[-1].delta_loss = -float("inf")
            return records, summary

        monkeypatch.setattr(cli, "run_training", overflowed)
        out = tmp_path / "out"
        self.refused(["train", "--config", train_config, "--out", str(out)], "metrics.jsonl", capsys)
        assert not out.exists()

    def test_summary(self, train_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "breakeven_indicators", lambda records: (0, None, float("inf")))
        out = tmp_path / "out"
        self.refused(["train", "--config", train_config, "--out", str(out)], "summary.json", capsys)
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("name", ["logs/cell_00_00.jsonl", "sweep_report.json"])
    def test_sweep_outputs(self, name, train_config, tmp_path, monkeypatch, capsys):
        real = cli.sweep

        def overflowed(*args, **kwargs):
            report = real(*args, **kwargs)
            if name == "sweep_report.json":
                report.seed_means["max_lambda_k1"][0] = float("nan")
            else:
                report.cells[0].records[0].lambda_k1 = float("inf")
            return report

        monkeypatch.setattr(cli, "sweep", overflowed)
        cfg = json.loads(Path(train_config).read_text())
        cfg["epochs"] = 1
        cfg["axis"] = {"name": "eta", "values": [0.02, 0.1]}
        path = write_json(tmp_path / "sweep.json", cfg)
        out = tmp_path / "out"
        self.refused(["sweep", "--config", path, "--out", str(out)], name, capsys)
        assert not (out / name).exists()


class TestSweepCli:
    def test_sweep_writes_cells_and_verdicts(self, tmp_path, train_config):
        cfg = json.loads(Path(train_config).read_text())
        cfg["axis"] = {"name": "eta", "values": [0.02, 0.1]}
        cfg["seeds"] = [0, 1]
        path = write_json(tmp_path / "sweep.json", cfg)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert set(report["verdicts"]) == {
            "variance_reduction_lambda_k1",
            "variance_reduction_lambda_h1",
            "variance_reduction_trace_k",
            "preconditioning_cond_ratio",
        }
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert (out / cell["log"]).exists()
            validate_metric_log((out / cell["log"]).read_text())

    def test_report_lists_each_sweep_verdict(self, tmp_path, train_config):
        cfg = json.loads(Path(train_config).read_text())
        cfg["axis"] = {"name": "eta", "values": [0.02, 0.1]}
        path = write_json(tmp_path / "sweep.json", cfg)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        rep = write_json(
            tmp_path / "rep.json",
            {"logs": [str(out / c["log"]) for c in report["cells"]], "panels": [{"y": "lambda_k1"}],
             "sweep_report": str(out / "sweep_report.json")},
        )
        assert main(["report", "--config", rep, "--out", str(tmp_path / "r"), "--quiet"]) == 0
        md = (tmp_path / "r" / "summary.md").read_text().splitlines()
        table = md[md.index("## Sweep verdicts (axis: eta)") + 2:]
        assert table[:2] == ["| check | verdict |", "|---|---|"]
        assert table[2:] == [f"| {check} | {report['verdicts'][check]} |" for check in sorted(report["verdicts"])]
        assert len(table[2:]) == 4

    def test_failed_cell_records_error_type(self, tmp_path, train_config):
        cfg = json.loads(Path(train_config).read_text())
        cfg["epochs"] = 1
        # the second cell cannot run: the batch exceeds the training split
        cfg["axis"] = {"name": "batch_size", "values": [32, 10_000]}
        path = write_json(tmp_path / "sweep_bad.json", cfg)
        out = tmp_path / "sweep_bad"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["schema_version"] == 2
        ok, bad = report["cells"]
        assert ok["error_type"] is None and not ok["diverged"]
        assert bad["error_type"] == "InvalidConfigError" and bad["diverged"]

    def test_repeated_values_and_seeds_write_one_log_per_cell(self, tmp_path, train_config):
        cfg = json.loads(Path(train_config).read_text())
        cfg["epochs"] = 1
        cfg["axis"] = {"name": "eta", "values": [0.05, 0.05]}
        cfg["seeds"] = [4, 4]
        path = write_json(tmp_path / "sweep_rep.json", cfg)
        out = tmp_path / "sweep_rep"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        names = [cell["log"] for cell in report["cells"]]
        assert names == [f"logs/cell_{v:02d}_{s:02d}.jsonl" for v in range(2) for s in range(2)]
        assert sorted(f"logs/{p.name}" for p in (out / "logs").iterdir()) == names
        # the cells repeat one (value, seed) pair, so their logs agree
        assert len({(out / name).read_bytes() for name in names}) == 1

    def test_diverging_cells_are_records_not_warnings(self, tmp_path, capsys):
        # the desk model at eta = 1.5 overflows within a few steps: its cells
        # end as diverged, and no RuntimeWarning reaches the user
        cfg = write_json(
            tmp_path / "diverge.json",
            {
                "model": {"layer_sizes": [2, 32, 32, 2], "activation": "relu", "loss": "mse",
                          "init_gain": 0.6, "seed": 0},
                "dataset": {"kind": "gaussian_blobs", "n": 2000, "classes": 2, "radius": 1.0,
                            "sigma": 0.8, "val_fraction": 0.2, "seed": 1},
                "eta": 1.0, "batch_size": 32, "momentum": 0.0, "epochs": 2, "eval_every": 25,
                "spectra": {"n_gradient_samples": 40, "gram_batch_size": 8, "lanczos_iters": 30},
                "axis": {"name": "eta", "values": [1.0, 1.5]},
                "seeds": [0, 1],
            },
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Warning" not in capsys.readouterr().err
        cells = json.loads((out / "sweep_report.json").read_text())["cells"]
        assert [(c["axis_value"], c["diverged"], c["error"]) for c in cells] == [
            (1.0, False, None), (1.0, False, None), (1.5, True, None), (1.5, True, None)
        ]

    def test_single_axis_value_exit_2(self, tmp_path, train_config):
        cfg = json.loads(Path(train_config).read_text())
        cfg["axis"] = {"name": "eta", "values": [0.05]}
        path = write_json(tmp_path / "sweep1.json", cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2


class TestReportCli:
    @pytest.fixture
    def log_dir(self, tmp_path, train_config):
        out = tmp_path / "run"
        main(["train", "--config", train_config, "--out", str(out), "--quiet"])
        return out

    def test_svg_golden_reproducibility(self, tmp_path, log_dir):
        repct = {
            "logs": [str(log_dir / "metrics.jsonl")],
            "panels": [{"y": "lambda_k1", "x": "step"}],
        }
        cfg = write_json(tmp_path / "rep.json", repct)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["report", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        a = (out1 / "panel_00_lambda_k1.svg").read_bytes()
        b = (out2 / "panel_00_lambda_k1.svg").read_bytes()
        assert a == b
        assert a.startswith(b"<!-- config_hash=")

    def test_unknown_metric_exit_2(self, tmp_path, log_dir):
        cfg = write_json(
            tmp_path / "rep2.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": [{"y": "nonsense"}]},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 2

    def test_empty_panels_exit_2(self, tmp_path, log_dir):
        cfg = write_json(
            tmp_path / "rep3.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": []},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 2

    def test_log_y_clamps_with_footnote(self, tmp_path, log_dir):
        cfg = write_json(
            tmp_path / "rep4.json",
            {
                "logs": [str(log_dir / "metrics.jsonl")],
                "panels": [{"y": "delta_loss", "x": "step", "log_y": True}],
            },
        )
        out = tmp_path / "r4"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        svg = (out / "panel_00_delta_loss.svg").read_text()
        # delta_loss takes both signs in general; when it does, the clamp
        # footnote must be present
        if "clamped" in svg:
            assert "non-positive" in svg

    def test_no_seed_flag(self, tmp_path, log_dir):
        cfg = write_json(
            tmp_path / "rep6.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": [{"y": "train_loss"}]},
        )
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", cfg, "--out", str(tmp_path / "r6"), "--seed", "1", "--quiet"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "lines, named",
        [
            (["not json"], "line 1: not JSON"),
            (["[1]"], "line 1: expected a JSON object"),
            (["{}", "", "[1]"], "line 3: expected a JSON object"),
            (["{}", '{"step": 1,'], "line 2: not JSON"),
            (['{"config": 5}'], "line 1: metadata config must be an object"),
            (["", '{"config": []}'], "line 2: metadata config must be an object"),
        ],
    )
    def test_corrupt_log_exit_2_names_file(self, lines, named, tmp_path, log_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_json(
            tmp_path / "rep7.json",
            {"logs": [str(log_dir / "metrics.jsonl"), str(bad)], "panels": [{"y": "train_loss"}]},
        )
        out = tmp_path / "r7"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"logs[1]: {bad}: {named}" in err
        assert not out.exists()

    def test_non_numeric_threshold_in_log_exit_2(self, tmp_path, log_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"config": {"accuracy_threshold": "high"}}\n')
        cfg = write_json(
            tmp_path / "rep8.json",
            {"logs": [str(log_dir / "metrics.jsonl"), str(bad)], "panels": [{"y": "train_loss"}]},
        )
        out = tmp_path / "r8"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "logs[1].config.accuracy_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_threshold_in_log_exit_2(self, tmp_path, log_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"config": {"accuracy_threshold": NaN}}\n')
        cfg = write_json(
            tmp_path / "rep9.json",
            {"logs": [str(log_dir / "metrics.jsonl"), str(bad)], "panels": [{"y": "train_loss"}]},
        )
        out = tmp_path / "r9"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "logs[1].config.accuracy_threshold: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_sweep_report_exit_2_names_it(self, text, tmp_path, log_dir, capsys):
        bad = tmp_path / "sweep_report.json"
        bad.write_text(text)
        cfg = write_json(
            tmp_path / "rep9.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": [{"y": "train_loss"}],
             "sweep_report": str(bad)},
        )
        out = tmp_path / "r9"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "sweep_report: " in err and "config: " not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "verdicts", [[1, 2], "holds", {"variance_reduction_lambda_k1": 1}, {"a": None}]
    )
    def test_verdicts_not_an_object_of_strings_exit_2_writes_nothing(
        self, verdicts, tmp_path, log_dir, capsys
    ):
        bad = tmp_path / "sweep_report.json"
        bad.write_text(json.dumps({"axis_name": "eta", "verdicts": verdicts}))
        cfg = write_json(
            tmp_path / "rep10.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": [{"y": "train_loss"}],
             "sweep_report": str(bad)},
        )
        out = tmp_path / "r10"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "sweep_report.verdicts" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "field, value",
        [("train_loss", "abc"), ("lambda_h_top", ["x"]), ("lambda_h_top", 2.0), ("val_acc", True),
         ("epoch", None), ("step", "1")],
    )
    def test_malformed_metric_value_exit_2_writes_nothing(self, field, value, tmp_path, log_dir, capsys):
        # every log is checked before the first panel is written
        meta, first, *rest = (log_dir / "metrics.jsonl").read_text().splitlines()
        record = json.loads(first)
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([meta, json.dumps(record)] + rest) + "\n")
        with pytest.raises(InvalidConfigError, match=f"record 0: field {field}"):
            validate_metric_log(bad.read_text())
        cfg = write_json(
            tmp_path / "rep11.json",
            {"logs": [str(log_dir / "metrics.jsonl"), str(bad)], "panels": [{"y": "val_acc"}, {"y": "train_loss"}]},
        )
        out = tmp_path / "r11"
        assert main(["report", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"logs[1]: {bad}: record 0: field {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_table_lists_all_logs(self, tmp_path, log_dir):
        cfg = write_json(
            tmp_path / "rep5.json",
            {"logs": [str(log_dir / "metrics.jsonl")], "panels": [{"y": "train_loss"}]},
        )
        out = tmp_path / "r5"
        main(["report", "--config", cfg, "--out", str(out), "--quiet"])
        md = (out / "summary.md").read_text()
        assert "metrics" in md
        assert "max lambda_k1" in md


class TestConfigBoundary:
    SIMULATE = {
        "etas": [0.1],
        "batch_sizes": [10],
        "curvatures": {"kind": "uniform", "count": 20, "seed": 0},
        "growth": {"direction": "increasing_from_stable", "lambda0": 0.05, "rho": 1.01, "psi0": 1.0},
        "monte_carlo": {"cases": 1, "steps": 20, "n_traj": 10, "seed": 3},
    }
    REPORT = {"logs": ["metrics.jsonl"], "panels": [{"y": "lambda_k1"}]}

    @pytest.fixture
    def trained(self, monkeypatch):
        """The configs ``run_training`` is called with, by train or sweep."""
        calls = []
        real_run_training = trainer.run_training

        def spy(config, *args, **kwargs):
            calls.append(config)
            return real_run_training(config, *args, **kwargs)

        monkeypatch.setattr(trainer, "run_training", spy)
        monkeypatch.setattr(cli, "run_training", spy)
        return calls

    @staticmethod
    def with_value(cfg, dotted, value):
        cfg = copy.deepcopy(cfg)
        *parents, last = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
        return cfg

    @pytest.mark.parametrize(
        "subcommand, dotted, value, named",
        [
            ("sweep", "spectra.lanczos_iter", 10, "spectra.lanczos_iter"),
            ("simulate", "growth.lamda0", 0.05, "growth.lamda0"),
            ("simulate", "monte_carlo.sead", 1, "monte_carlo.sead"),
            ("sweep", "dataset.sigmaa", 0.3, "dataset.sigmaa"),
            ("simulate", "monte_carlo.steps", 0, "monte_carlo.steps"),
            ("simulate", "monte_carlo.cases", 0, "monte_carlo.cases"),
            ("simulate", "monte_carlo.cases", -2, "monte_carlo.cases"),
            ("simulate", "growth.psi0", 1e-200, "growth.psi0"),
            ("sweep", "axis", {"name": "batch_size", "values": [8, 12.5]}, "axis.values"),
            ("sweep", "spectra.gram_batch_size", 4.5, "spectra.gram_batch_size"),
            ("train", "model.layer_sizes", [2, 8.5, 2], "model.layer_sizes"),
            ("train", "epochs", True, "epochs"),
            ("report", "titel", "x", "titel"),
            ("report", "panels", [{"y": "lambda_k1", "colour": "red"}], "panels[0].colour"),
            # settable values that changed no output are gone
            ("simulate", "psi_star", 0.5, "psi_star"),
            ("simulate", "monte_carlo.psi0", 7.0, "monte_carlo.psi0"),
            ("simulate", "seed", 5, "seed: unknown field"),
            ("train", "snapshot_params", True, "snapshot_params"),
            ("report", "threshold_vlines", False, "threshold_vlines"),
            ("report", "panels", [{"y": "lambda_k1", "title": "t"}], "panels[0].title"),
            ("sweep", "spectra.hvp_method", "pearlmutter", "spectra.hvp_method"),
            # dataset keys follow the same number rule as every other section
            ("sweep", "dataset.n", 12.5, "dataset.n"),
            ("sweep", "dataset.sigma", "0.3", "dataset.sigma"),
            ("sweep", "dataset.val_fraction", "0.2", "dataset.val_fraction"),
            # a rejected axis value stops the sweep before its first cell
            ("sweep", "axis", {"name": "eta", "values": [0.02, -0.1]}, "axis"),
            # a key the section's kind does not read
            ("simulate", "curvatures.value", 5.0, "curvatures.value"),
            ("simulate", "curvatures", {"kind": "constant", "count": 20, "low": 0.5}, "curvatures.low"),
            ("simulate", "curvatures", {"kind": "constant", "count": 20, "high": 1.5}, "curvatures.high"),
            ("simulate", "curvatures", {"kind": "constant", "count": 20, "seed": 1}, "curvatures.seed"),
            ("train", "schedule", {"kind": "constant", "decay_epoch": 3}, "schedule.decay_epoch"),
            ("sweep", "schedule", {"decay_factor": 2.0}, "schedule.decay_factor"),
            ("train", "model.init_constant", 0.1, "model.init_constant"),
            ("sweep", "model", {"layer_sizes": [2, 8, 8, 2], "init": "constant", "init_gain": 1.0},
             "model.init_gain"),
            # values every cell would fail on stop the run before its first cell
            ("sweep", "spectra.gram_batch_size", 0, "spectra.gram_batch_size"),
            ("sweep", "spectra.gram_batch_size", -3, "spectra.gram_batch_size"),
            ("sweep", "spectra.lanczos_iters", 0, "spectra.lanczos_iters"),
            ("train", "spectra.lanczos_iters", 0, "spectra.lanczos_iters"),
            ("sweep", "model.layer_sizes", [3, 8, 8, 2], "model.layer_sizes"),
            ("train", "model.layer_sizes", [3, 8, 8, 2], "model.layer_sizes"),
            ("sweep", "batch_size", 10_000, "batch_size"),
            ("train", "batch_size", 10_000, "batch_size"),
            ("sweep", "seeds", [], "seeds: need a nonempty list"),
            # simulate's range checks name the key, the list entry included
            ("simulate", "etas", [0.0], "etas[0]"),
            ("simulate", "etas", [], "etas: need a nonempty list"),
            ("simulate", "batch_sizes", [], "batch_sizes: need a nonempty list"),
            ("simulate", "batch_sizes", [10, 0], "batch_sizes[1]"),
            ("simulate", "psi", 0.0, "psi: "),
            ("simulate", "psi", 1e-200, "psi: "),
            ("simulate", "alpha", -1.0, "alpha: "),
            ("simulate", "phase_grid", {"etas": [-1.0]}, "phase_grid.etas[0]"),
            ("simulate", "phase_grid", {"etas": []}, "phase_grid.etas"),
            ("simulate", "phase_grid", {"batch_sizes": []}, "phase_grid.batch_sizes"),
            ("simulate", "phase_grid", {"batch_sizes": [1000]}, "phase_grid.batch_sizes[0]"),
            # JSON NaN and Infinity are not config numbers, in any section
            ("train", "model.init_gain", float("nan"), "model.init_gain: expected a finite number"),
            ("train", "accuracy_threshold", float("nan"), "accuracy_threshold: expected a finite number"),
            ("simulate", "growth.rho", float("nan"), "growth.rho: expected a finite number"),
            ("train", "eta", float("inf"), "eta: expected a finite number"),
            ("sweep", "axis", {"name": "eta", "values": [0.02, float("inf")]}, "axis.values[1]: expected a finite"),
            ("sweep", "dataset.sigma", float("-inf"), "dataset.sigma: expected a finite number"),
            ("simulate", "etas", [0.1, float("inf")], "etas[1]: expected a finite number"),
            ("simulate", "alpha", float("inf"), "alpha: expected a finite number"),
            ("simulate", "psi", float("nan"), "psi: expected a finite number"),
            ("simulate", "phase_grid", {"etas": [float("nan")]}, "phase_grid.etas[0]: expected a finite"),
            ("simulate", "curvatures", {"kind": "constant", "value": float("inf"), "count": 20},
             "curvatures.value: expected a finite number"),
            pytest.param("simulate", "growth.lambda0", 10**400, "growth.lambda0: expected a finite number",
                         id="simulate-growth.lambda0-integer_past_the_float_range"),
            # a number the section rejects for its range
            ("train", "accuracy_threshold", 1.5, "accuracy_threshold: accuracy_threshold must lie in [0, 1]"),
            # bool and per-layer fields follow the same type rule, entry by entry
            ("train", "model.batch_norm", 1, "model.batch_norm: expected bool"),
            ("train", "model.activation", 5, "model.activation: expected str"),
            ("train", "model.batch_norm", [1, 0], "model.batch_norm[0]: expected bool"),
            ("sweep", "model.activation", ["relu", 5], "model.activation[1]: expected str"),
            ("report", "panels", [{"y": "lambda_k1", "log_y": "no"}], "panels[0].log_y: expected bool"),
        ],
    )
    def test_rejected_value_exits_2_names_key_writes_nothing(
        self, subcommand, dotted, value, named, train_config, tmp_path, capsys, trained
    ):
        self.assert_rejected(subcommand, {dotted: value}, named, train_config, tmp_path, capsys, trained)

    @pytest.mark.parametrize("subcommand", ["train", "sweep"])
    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"model.loss": "mse", "dataset.classes": 3}, "model.layer_sizes: output width 2 < 3"),
            ({"model.loss": "softmax_cross_entropy", "dataset.classes": 3}, "model.layer_sizes: output width 2 < 3"),
            ({"dataset.val_fraction": 0.0}, "dataset.val_fraction: the validation split is empty"),
        ],
    )
    def test_model_the_dataset_cannot_train_exits_2(
        self, subcommand, overrides, named, train_config, tmp_path, capsys, trained
    ):
        self.assert_rejected(subcommand, overrides, named, train_config, tmp_path, capsys, trained)

    def assert_rejected(self, subcommand, overrides, named, train_config, tmp_path, capsys, trained):
        """The config with ``overrides`` (dotted key: value) exits 2 naming
        ``named``, writes nothing and trains no cell."""
        if subcommand == "simulate":
            cfg = self.SIMULATE
        elif subcommand == "report":
            cfg = self.REPORT
        else:
            cfg = json.loads(Path(train_config).read_text())
            cfg["axis"] = {"name": "eta", "values": [0.02, 0.1]}
        for dotted, value in overrides.items():
            cfg = self.with_value(cfg, dotted, value)
        path = write_json(tmp_path / "bad.json", cfg)
        out = tmp_path / "out"
        assert main([subcommand, "--config", path, "--out", str(out), "--quiet"]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        assert trained == []

    @pytest.mark.parametrize("subcommand", ["train", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--eta", "nan"), ("--momentum", "inf")])
    def test_non_finite_override_flag_exits_2(self, subcommand, flag, value, train_config, tmp_path, capsys, trained):
        base = json.loads(Path(train_config).read_text())
        if subcommand == "sweep":
            base["axis"] = {"name": "batch_size", "values": [16, 32]}
        path = write_json(tmp_path / "cfg.json", base)
        out = tmp_path / "out"
        assert main([subcommand, "--config", path, "--out", str(out), "--quiet", flag, value]) == 2
        assert f"{flag[2:]}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()
        assert trained == []

    def test_minimal_run_config_takes_dataclass_defaults(self):
        args = build_parser().parse_args(["train", "--config", "c.json", "--out", "o"])
        raw = {"model": {"layer_sizes": [2, 3, 2]}, "dataset": {"kind": "xor"},
               "eta": 0.1, "batch_size": 4, "epochs": 1}
        want = RunConfig(model=MlpSpec(layer_sizes=(2, 3, 2)), eta=0.1, batch_size=4, epochs=1)
        assert resolve_run_config(raw, args) == want

    def test_integer_for_float_field_is_stored_as_float(self):
        args = build_parser().parse_args(["train", "--config", "c.json", "--out", "o"])
        raw = {"model": {"layer_sizes": [2, 3, 2], "init_gain": 1}, "eta": 1, "batch_size": 4, "epochs": 1}
        config = resolve_run_config(raw, args)
        assert type(config.model.init_gain) is float and type(config.eta) is float

    def test_per_layer_fields_take_a_list_or_one_value(self):
        args = build_parser().parse_args(["train", "--config", "c.json", "--out", "o"])
        base = {"eta": 0.1, "batch_size": 4, "epochs": 1}
        listed = resolve_run_config(
            {"model": {"layer_sizes": [2, 3, 3, 2], "activation": ["tanh", "relu"], "batch_norm": [True, False]},
             **base}, args)
        assert listed.model.activation == ("tanh", "relu") and listed.model.batch_norm == (True, False)
        shorthand = resolve_run_config(
            {"model": {"layer_sizes": [2, 3, 3, 2], "activation": "tanh", "batch_norm": True}, **base}, args)
        assert shorthand.model.activation == ("tanh", "tanh") and shorthand.model.batch_norm == (True, True)

    def test_benchmark_workload_configs_resolve(self, tmp_path, monkeypatch):
        # every variant of every benchmark config passes the schema; the
        # first computation after resolution is replaced by a sentinel
        class Resolved(Exception):
            pass

        def stop(*args, **kwargs):
            raise Resolved

        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(cli, "sweep", stop)
        monkeypatch.setattr(cli, "breakeven_curvature_closed_form", stop)
        for workload in workloads.WORKLOADS.values():
            for variant in range(workloads.N_VARIANTS):
                path = write_json(tmp_path / "w.json", workload.build_config(variant))
                with pytest.raises(Resolved):
                    main([workload.subcommand, "--config", path, "--out", str(tmp_path / "o"), "--quiet"])

    def test_kind_specific_keys_accepted_under_their_kind(self):
        args = build_parser().parse_args(["train", "--config", "c.json", "--out", "o"])
        raw = {"model": {"layer_sizes": [2, 3, 2], "init": "constant", "init_constant": 0.1},
               "schedule": {"kind": "step_decay", "decay_epoch": 2, "decay_factor": 5.0},
               "eta": 0.1, "batch_size": 4, "epochs": 3}
        config = resolve_run_config(raw, args)
        assert config.model.init_constant == 0.1 and config.schedule.decay_factor == 5.0

    def test_train_columns_name_every_metric_field(self):
        for name in METRIC_FIELDS:
            assert re.search(rf"\b{name}\b", TRAIN_COLUMNS), name

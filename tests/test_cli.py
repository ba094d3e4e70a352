"""Command-line behavior: outputs, overrides, exit codes, determinism."""

import contextlib
import io
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import pin_trainers
from noisylab.cli import (
    EXIT_CONFIG_INVALID,
    EXIT_CONFIG_PARSE,
    EXIT_NUMERICAL_FAULT,
    EXIT_OK,
    EXIT_USAGE,
    _trainer_count,
    main,
)
from noisylab.data import IMAGES_MAGIC, LABELS_MAGIC
from noisylab.network import NumericalFault
from noisylab.trainer import TrainConfig, deal, run_experiment

SMALL_CONFIG = """
dataset:
  classes: 3
  n_per_class: 30
  test_per_class: 10
  separation: 0.55
  spread: 0.11
noise:
  kind: pair
  epsilon: 0.4
train:
  epochs: 2
  warmup_epochs: 1
  batch_size: 32
  hidden: [8]
  lr_milestones: []
seeds: [1]
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(SMALL_CONFIG)
    return str(path)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


DUMPS = ["--set", "output.dump_penalty_labels=true"]
QUICK = str(Path(__file__).resolve().parents[1] / "configs" / "quick.yaml")


def fault_on_seed(n):
    """A ``run_experiment`` that raises a numerical fault in the run of seed n, whichever process trains it."""

    def run(config, *args, **kwargs):
        if config.seed == n:
            raise NumericalFault("non-finite parameters after the update")
        return run_experiment(config, *args, **kwargs)

    return run


class TestRunCommand:
    def test_writes_all_outputs(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "run.log").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == (
            "run_id,seed,variant,lambda,epoch,train_selected,precision,test_error,"
            "selected_class_0,selected_class_1,selected_class_2"
        )

    def test_run_id_names_variant_strategy_lambda(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", config_path, "--out", str(out)])
        summary = read_summary(out)
        assert summary["groups"][0]["run_id"] == "all-stacked-lam1.0"
        assert summary["runs"][0]["seed"] == 1

    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["run", "--config", config_path, "--out", str(a)])
        main(["run", "--config", config_path, "--out", str(b)])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_set_overrides_reach_the_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(out),
                "--set",
                "train.criteria.lambda=0.5",
                "--set",
                "train.criteria.variant=ol",
                "--set",
                "noise.kind=symmetry",
                "--set",
                "noise.epsilon=0.7",
            ]
        )
        assert code == EXIT_OK
        group = read_summary(out)["groups"][0]
        assert group["lambda"] == 0.5
        assert group["variant"] == "ol"
        assert group["run_id"] == "ol-stacked-lam0.5"
        # the noise overrides reach execute, which flags a symmetric rate above the tested range
        assert capsys.readouterr().err == "warning: symmetric noise rate 0.7 is above 0.6, outside the tested range\n"

    def test_negative_zero_lambda_is_the_run_of_zero(self, config_path, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--config", config_path, "--out", str(out), "--set", "train.criteria.lambda=-0.0"]
        assert main(args) == EXIT_OK
        group = read_summary(out)["groups"][0]
        assert group["run_id"] == "all-stacked-lam0.0"
        assert json.dumps(group["lambda"]) == "0.0"
        assert (out / "metrics.csv").read_text().splitlines()[1].startswith("all-stacked-lam0.0,1,all,0.0,")

    def test_seeds_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", config_path, "--out", str(out), "--seeds", "5,6"])
        summary = read_summary(out)
        assert [r["seed"] for r in summary["runs"]] == [5, 6]
        assert summary["groups"][0]["trials"] == 2

    @pytest.mark.parametrize(
        "command, config, run_ids, shape",
        [
            (["run"], None, ["all-stacked-lam1.0"], (2, 3, 3)),
            # ol-repredict replays ol-stacked whole
            (
                ["compare", "--variants", "ol,all", "--strategies", "stacked,repredict"],
                QUICK,
                ["ol-stacked", "ol-repredict", "all-stacked", "all-repredict"],
                (10, 3, 3),
            ),
        ],
        ids=["run", "compare-with-a-replayed-run"],
    )
    def test_penalty_label_dump(self, config_path, tmp_path, monkeypatch, command, config, run_ids, shape):
        pin_trainers(monkeypatch, 1)
        results = []  # one trainer: this process trains every run, in plan order

        def recording_run(*args, **kwargs):
            results.append(run_experiment(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr("noisylab.cli.run_experiment", recording_run)
        out = tmp_path / "out"
        assert main([*command, "--config", config or config_path, "--out", str(out), *DUMPS]) == EXIT_OK
        assert multiprocessing.active_children() == []
        names = [f"{run_id}-seed1.npy" for run_id in run_ids]
        assert sorted(p.name for p in (out / "penalty_labels").iterdir()) == sorted(names)
        assert len(results) == len(names)
        for name, result in zip(names, results):
            history = np.stack([estimate.labels for estimate in result.penalty_history])
            saved = io.BytesIO()
            np.save(saved, history)
            path = out / "penalty_labels" / name
            assert history.shape == shape
            assert np.array_equal(np.load(path), history)
            assert path.read_bytes() == saved.getvalue()


class TestOutputDir:
    def test_results_is_the_default(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config_path]) == EXIT_OK
        assert (tmp_path / "results" / "metrics.csv").exists()

    def test_empty_out_is_usage_before_any_output(self, config_path, tmp_path, monkeypatch, capsys):
        # what --out "$OUT" passes with OUT unset; ./results could hold another command's outputs
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config_path, "--out", ""]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error[USAGE]: --out is empty: name an output directory, or leave the flag out for ./results\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config_path)]

    def test_output_dir_is_not_a_config_key(self, config_path, tmp_path, capsys):
        # --out alone names the output directory
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", f"output.dir={tmp_path / 'x'}"]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == "error[CONFIG_INVALID]: unknown key output.dir\n"
        assert not out.exists()
        assert not (tmp_path / "x").exists()

    def test_output_formats_is_not_a_config_key(self, config_path, tmp_path, capsys):
        # every command writes metrics.csv, summary.json and run.log together
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", "output.formats=[csv]"]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == "error[CONFIG_INVALID]: unknown key output.formats\n"
        assert not out.exists()

    def test_a_reused_out_holds_only_the_new_commands_runs(self, config_path, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["sweep-lambda", "--config", config_path, "--out", str(reused), "--lambdas", "0.5,2"]) == EXIT_OK
        assert "all-lam0.5" in (reused / "metrics.csv").read_text()
        for out in (reused, fresh):
            assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
        for name in ("metrics.csv", "summary.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        # a run.log line reads: stamp run_id seed= epochs= replayed= elapsed
        assert [line.split()[1] for line in (reused / "run.log").read_text().splitlines()] == ["all-stacked-lam1.0"]


class TestSweepAndCompare:
    def test_sweep_lambda_run_ids(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep-lambda",
                "--config",
                config_path,
                "--out",
                str(out),
                "--lambdas",
                "0,1,2",
            ]
        )
        assert code == EXIT_OK
        ids = [g["run_id"] for g in read_summary(out)["groups"]]
        assert ids == ["all-lam0.0", "all-lam1.0", "all-lam2.0"]
        lams = {g["run_id"]: g["lambda"] for g in read_summary(out)["groups"]}
        assert lams["all-lam2.0"] == 2.0

    def test_compare_crosses_variants_and_strategies(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "compare",
                "--config",
                config_path,
                "--out",
                str(out),
                "--variants",
                "ol,all",
                "--strategies",
                "stacked,repredict",
            ]
        )
        assert code == EXIT_OK
        ids = sorted(g["run_id"] for g in read_summary(out)["groups"])
        assert ids == ["all-repredict", "all-stacked", "ol-repredict", "ol-stacked"]

    def test_run_log_counts_the_replayed_epochs(self, config_path, tmp_path, monkeypatch):
        # 2 epochs, 1 of warm-up: every run shares epoch 0, and ol, which reads
        # no penalty labels, trains epoch 1 alike under both strategies
        pin_trainers(monkeypatch, 1)  # a helper counts only what it replayed itself
        out = tmp_path / "out"
        args = ["compare", "--config", config_path, "--out", str(out), "--variants", "ol,all"]
        assert main([*args, "--strategies", "stacked,repredict"]) == EXIT_OK
        lines = [line.split() for line in (out / "run.log").read_text().splitlines()]
        assert [(fields[1], fields[4]) for fields in lines] == [
            ("ol-stacked", "replayed=0"),
            ("ol-repredict", "replayed=2"),
            ("all-stacked", "replayed=1"),
            ("all-repredict", "replayed=1"),
        ]

    def test_replayed_epochs_are_filed_under_their_own_runs_seed_variant_and_lambda(self, tmp_path, monkeypatch):
        # on one trainer all-stacked replays ol-stacked's 3 warm-up epochs, and the two runs share their records
        pin_trainers(monkeypatch, 1)
        out = tmp_path / "out"
        args = ["compare", "--config", QUICK, "--out", str(out), "--variants", "ol,all", "--seeds", "2,1"]
        assert main([*args, "--set", "train.criteria.lambda=0.5"]) == EXIT_OK
        lines = [line.split() for line in (out / "run.log").read_text().splitlines()]
        assert [(fields[1], fields[2], fields[4]) for fields in lines] == [
            ("ol-stacked", "seed=2", "replayed=0"),
            ("ol-stacked", "seed=1", "replayed=0"),
            ("all-stacked", "seed=2", "replayed=3"),
            ("all-stacked", "seed=1", "replayed=3"),
        ]
        rows = [row.split(",")[:5] for row in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert rows == [
            [f"{variant}-stacked", seed, variant, "0.5", str(epoch)]
            for variant in ("all", "ol")
            for seed in ("1", "2")
            for epoch in range(10)
        ]
        summary = read_summary(out)
        assert [(r["run_id"], r["seed"], r["variant"], r["lambda"]) for r in summary["runs"]] == [
            ("all-stacked", 1, "all", 0.5),
            ("all-stacked", 2, "all", 0.5),
            ("ol-stacked", 1, "ol", 0.5),
            ("ol-stacked", 2, "ol", 0.5),
        ]
        assert [(g["run_id"], g["variant"], g["lambda"]) for g in summary["groups"]] == [
            ("all-stacked", "all", 0.5),
            ("ol-stacked", "ol", 0.5),
        ]

    def test_pl_sweep_replays_whole_runs_across_lambdas(self, config_path, tmp_path):
        # pl reads the penalty labels but not lambda, so later lambdas replay every epoch
        out = tmp_path / "out"
        args = ["sweep-lambda", "--config", config_path, "--out", str(out), "--lambdas", "0,1,2"]
        assert main([*args, "--set", "train.criteria.variant=pl"]) == EXIT_OK
        lines = [line.split() for line in (out / "run.log").read_text().splitlines()]
        assert [(fields[1], fields[4]) for fields in lines] == [
            ("pl-lam0.0", "replayed=0"),
            ("pl-lam1.0", "replayed=2"),
            ("pl-lam2.0", "replayed=2"),
        ]

    def test_compare_defaults_to_configured_combo(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", config_path, "--out", str(out)]) == EXIT_OK
        ids = [g["run_id"] for g in read_summary(out)["groups"]]
        assert ids == ["all-stacked"]

    def test_empty_variant_list_means_configured_combo(self, config_path, tmp_path):
        out = tmp_path / "out"
        args = ["compare", "--config", config_path, "--out", str(out), "--variants", ""]
        assert main(args) == EXIT_OK
        assert [g["run_id"] for g in read_summary(out)["groups"]] == ["all-stacked"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["compare", "--variants", "ol,ol"],
            ["compare", "--variants", "ol,all", "--strategies", "stacked,stacked"],
            ["sweep-lambda", "--lambdas", "0.5,0.5"],
            ["sweep-lambda", "--lambdas", "1,1.0"],
            ["sweep-lambda", "--lambdas", "0,-0"],
        ],
    )
    def test_repeated_list_item_is_usage_before_any_output(
        self, config_path, tmp_path, capsys, flags
    ):
        out = tmp_path / "out"
        command, *rest = flags
        assert main([command, "--config", config_path, "--out", str(out), *rest]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error[USAGE]: a list item repeats")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_empty_lambda_list_is_usage(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["sweep-lambda", "--config", config_path, "--out", str(out), "--lambdas", ""]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error[USAGE]: lambda list is empty")
        assert not out.exists()


class TestFailureExits:
    def test_missing_config_flag_is_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [[], ["run"], ["run", "--config", "x.yaml", "--bogus"], ["compare", "--config", "x.yaml", "--variants"]],
        ids=["no-command", "no-config", "unknown-flag", "variants-without-value"],
    )
    def test_argparse_usage_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[USAGE]: ")
        assert err.endswith("\n") and len(err.splitlines()) == 1

    def test_bad_seed_list_is_usage(self, config_path, tmp_path, capsys):
        code = main(
            ["run", "--config", config_path, "--out", str(tmp_path / "o"), "--seeds", "1,x"]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error[USAGE]:")

    def test_bad_lambda_list_is_usage(self, config_path, tmp_path, capsys):
        code = main(
            [
                "sweep-lambda",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--lambdas",
                "1,-2",
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error[USAGE]:")

    def test_unknown_variant_is_usage(self, config_path, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--variants",
                "bogus",
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error[USAGE]:")
        assert "none, ol, pl, all" in err

    def test_unknown_strategy_is_usage(self, config_path, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--strategies",
                "bogus",
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error[USAGE]:")
        assert "stacked, repredict" in err

    def test_mistyped_override_is_invalid_config(self, config_path, tmp_path, capsys):
        code = main(
            ["run", "--config", config_path, "--out", str(tmp_path / "o"), "--set", "train.sl=5"]
        )
        assert code == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ("train.lr_milestones=[[1, -1.0]]", "milestone factors must be positive"),
            ("train.lr_milestones=[[-3, 0.5]]", "milestone epochs must be non-negative"),
            ("train.momentum=1.5", "momentum must be in [0, 1)"),
            ("train.learning_rate=0", "learning rate must be positive"),
        ],
    )
    def test_bad_schedule_or_momentum_fails_before_any_output(
        self, config_path, tmp_path, capsys, override, message
    ):
        out = tmp_path / "o"
        code = main(["run", "--config", config_path, "--out", str(out), "--set", override])
        assert code == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]: train: ")
        assert message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_idx_width_mismatch_fails_before_any_output(self, tmp_path, capsys):
        # 4x4 train images against 3x3 test images
        lines = ["dataset:", "  kind: idx"]
        for stem, prefix, side in (("train", "", 4), ("test", "test_", 3)):
            images, labels = tmp_path / f"{stem}-images", tmp_path / f"{stem}-labels"
            header = struct.pack(">IIII", IMAGES_MAGIC, 3, side, side)
            images.write_bytes(header + bytes(3 * side * side))
            labels.write_bytes(struct.pack(">II", LABELS_MAGIC, 3) + bytes([0, 1, 2]))
            lines += [f"  {prefix}images: {images}", f"  {prefix}labels: {labels}"]
        config = tmp_path / "idx.yaml"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err == (
            f"error[CONFIG_INVALID]: dataset: images {tmp_path / 'train-images'} have 16 features per sample "
            f"but test_images {tmp_path / 'test-images'} have 9\n"
        )
        assert not out.exists()

    def test_missing_config_file_is_parse_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == EXIT_CONFIG_PARSE
        assert capsys.readouterr().err.startswith("error[CONFIG_PARSE]:")

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_file_is_one_parse_error_line_before_any_output(self, tmp_path, capsys, kind):
        path = tmp_path / "experiment.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seeds: [1]\n# caf\xe9\n")  # Latin-1, not UTF-8
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error[CONFIG_PARSE]: cannot read config file {path}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_broken_yaml_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("train: [unclosed\n")
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG_PARSE
        assert capsys.readouterr().err.startswith("error[CONFIG_PARSE]:")

    def test_broken_yaml_report_is_one_line(self, tmp_path, capsys):
        # PyYAML's report spans several lines; the stderr line joins them
        path = tmp_path / "broken.yaml"
        path.write_text("train: [unclosed\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error[CONFIG_PARSE]: config file {path} is not valid YAML: ")
        assert "expected ',' or ']'" in err
        assert len(err.splitlines()) == 1

    def test_unknown_key_is_invalid_config(self, config_path, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--set",
                "train.epoch=5",
            ]
        )
        assert code == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err.startswith("error[CONFIG_INVALID]:")

    def test_trials_mismatch_is_invalid_config(self, config_path, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--set",
                "trials=7",
            ]
        )
        assert code == EXIT_CONFIG_INVALID
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_is_numerical_fault(self, config_path, tmp_path, capsys):
        code = main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--set",
                "train.learning_rate=1.0e+200",
            ]
        )
        assert code == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err.startswith("error[NUMERICAL_FAULT]:")

    def test_diverging_run_prints_one_stderr_line(self, config_path, tmp_path):
        # a subprocess, because pytest would capture numpy's warnings in-process
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "noisylab.cli", "run", "--config", config_path]
            + ["--out", str(tmp_path / "o"), "--set", "train.learning_rate=1.0e+200"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == EXIT_NUMERICAL_FAULT
        assert completed.stderr.splitlines() == [
            "error[NUMERICAL_FAULT]: non-finite logits in forward pass"
        ]

    def test_untested_noise_rate_prints_one_warning_line(self, config_path, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "noisylab.cli", "run", "--config", config_path]
            + ["--out", str(tmp_path / "o"), "--set", "noise.kind=symmetry", "--set", "noise.epsilon=0.7"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == EXIT_OK
        assert completed.stderr.splitlines() == [
            "warning: symmetric noise rate 0.7 is above 0.6, outside the tested range"
        ]

    def test_repeated_key_in_config_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text(
            "train: {epochs: 50}\nseeds: [1]\ntrain: {epochs: 2, warmup_epochs: 1}\n"
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_PARSE]:")
        assert "key 'train' repeats" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_repeated_key_in_override_is_parse_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out)]
        assert main(args + ["--set", "train={epochs: 3, epochs: 4}"]) == EXIT_CONFIG_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_PARSE]:")
        assert "key 'epochs' repeats" in err
        assert not out.exists()

    def test_merged_key_may_be_overridden(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text(
            SMALL_CONFIG.replace("train:\n", "train:\n  <<: {epochs: 3, hidden: [4]}\n", 1)
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert "epochs=2" in (out / "run.log").read_text()


class TestConfigAndDataBoundaries:
    @pytest.mark.parametrize(
        "overrides",
        [
            ["train.criteria.lambda=.nan"],
            ["dataset.separation=.nan"],
            ["train.learning_rate=.inf"],
            ["train.lr_milestones=[[1, .nan]]"],
            ["train.loss=sl", "train.sl.beta=.nan"],
        ],
    )
    def test_non_finite_number_fails_before_any_output(
        self, config_path, tmp_path, capsys, overrides
    ):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out)]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]:")
        assert "must be a finite number" in err
        assert not out.exists()

    def test_idx_path_under_blobs_fails_before_any_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", "dataset.images=train-images"]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            "error[CONFIG_INVALID]: dataset: images, labels, test_images and test_labels "
            "only apply when kind is 'idx'\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_blob_draw_fails_before_any_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", "dataset.spread=1e308"]
        assert main(args) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err == (
            "error[CONFIG_INVALID]: dataset: separation or spread is too large: "
            "the blob features overflow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dataset.separation", "train.criteria.lambda"])
    def test_integer_beyond_float_range_fails_before_any_output(
        self, config_path, tmp_path, capsys, key
    ):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", f"{key}=1{'0' * 400}"]
        assert main(args) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err == f"error[CONFIG_INVALID]: {key} must be a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("lambdas", ["nan,inf", "0.5,-inf", "1e400"])
    def test_non_finite_lambda_list_is_usage_before_any_output(
        self, config_path, tmp_path, capsys, lambdas
    ):
        out = tmp_path / "o"
        args = ["sweep-lambda", "--config", config_path, "--out", str(out), "--lambdas", lambdas]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error[USAGE]:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "2,-1"], "seeds must be a non-empty list of non-negative integers"),
            (["--set", "dataset.seed=-3"], "dataset: seed must be non-negative"),
        ],
    )
    def test_negative_seed_fails_before_any_output(
        self, config_path, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "o"
        assert main(["run", "--config", config_path, "--out", str(out), *flags]) == (
            EXIT_CONFIG_INVALID
        )
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]:")
        assert message in err
        assert not out.exists()

    def test_mixed_noise_on_two_classes_fails_before_any_output(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out)]
        for override in (
            "dataset.classes=2",
            "noise.kind=mixed",
            "noise.epsilon=0.3",
            "noise.epsilon1=0.2",
            "noise.epsilon2=0.1",
        ):
            args += ["--set", override]
        assert main(args) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]: noise: ")
        assert "at least 3 classes" in err
        assert not out.exists()

    def test_mixed_epsilon_within_tolerance_of_the_parts_trains_on_the_parts(self, tmp_path):
        mixed = ["--set", "noise.kind=mixed", "--set", "noise.epsilon1=0.3", "--set", "noise.epsilon2=0.1"]
        given, parts = tmp_path / "given", tmp_path / "parts"
        args = ["run", "--config", QUICK, *mixed]
        assert main([*args, "--out", str(given), "--set", "noise.epsilon=0.400000000001"]) == EXIT_OK
        assert main([*args, "--out", str(parts)]) == EXIT_OK
        assert (given / "metrics.csv").read_bytes() == (parts / "metrics.csv").read_bytes()

    def test_blob_keys_under_idx_fail_before_any_output(self, config_path, tmp_path, capsys):
        # the config sets n_per_class, test_per_class and classes; separation and spread hold their defaults
        args = ["run", "--config", config_path, "--out", str(tmp_path / "o"), "--set", "dataset.kind=idx"]
        for prefix in ("", "test_"):
            images, labels = tmp_path / f"{prefix}images", tmp_path / f"{prefix}labels"
            images.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 3, 2, 2) + bytes(12))
            labels.write_bytes(struct.pack(">II", LABELS_MAGIC, 3) + bytes([0, 1, 2]))
            args += ["--set", f"dataset.{prefix}images={images}", "--set", f"dataset.{prefix}labels={labels}"]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            "error[CONFIG_INVALID]: dataset: n_per_class, test_per_class, classes only apply when kind is 'blobs'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_one_class_idx_quartet_is_a_dataset_error(self, tmp_path, capsys):
        # every label is 0, so the files give one class: the dataset, not the noise, is at fault
        args = ["run", "--config", QUICK, "--out", str(tmp_path / "o"), "--set", "dataset.kind=idx"]
        args += ["--set=dataset.classes=10", "--set=dataset.n_per_class=500", "--set=dataset.test_per_class=100"]
        for prefix in ("", "test_"):
            images, labels = tmp_path / f"{prefix}images", tmp_path / f"{prefix}labels"
            images.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 3, 2, 2) + bytes(12))
            labels.write_bytes(struct.pack(">II", LABELS_MAGIC, 3) + bytes(3))
            args += ["--set", f"dataset.{prefix}images={images}", "--set", f"dataset.{prefix}labels={labels}"]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            "error[CONFIG_INVALID]: dataset: the IDX labels give 1 class, but classes must be at least 2\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", ["missing", "bad magic"])
    def test_unreadable_idx_file_is_invalid_dataset(self, tmp_path, capsys, fault):
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 1, 2, 2) + bytes(4))
        labels.write_bytes(struct.pack(">II", LABELS_MAGIC, 1) + bytes(1))
        broken = tmp_path / "broken"
        if fault == "bad magic":
            broken.write_bytes(struct.pack(">II", 0x1234, 1) + bytes(1))
        config = tmp_path / "idx.yaml"
        config.write_text(
            f"dataset:\n  kind: idx\n  images: {images}\n  labels: {labels}\n"
            f"  test_images: {images}\n  test_labels: {broken}\n"
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG_INVALID]: dataset: ")
        assert str(broken) in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "override", ["train.learning_rate=1.0e+200", "dataset.separation=1.0e+300"]
    )
    def test_fault_before_any_finished_run_leaves_no_directory(
        self, config_path, tmp_path, capsys, override
    ):
        out = tmp_path / "new" / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--set", override]
        assert main(args) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == "error[NUMERICAL_FAULT]: non-finite logits in forward pass\n"
        assert not (tmp_path / "new").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fault_before_any_finished_run_keeps_an_existing_directory(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "o"
        out.mkdir()
        args = ["run", "--config", config_path, "--out", str(out)]
        assert main([*args, "--set", "train.learning_rate=1.0e+200"]) == EXIT_NUMERICAL_FAULT
        capsys.readouterr()
        assert out.is_dir()
        assert list(out.iterdir()) == []

    def test_fault_keeps_a_new_parent_another_command_wrote_to(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        def other_command_writes_then_fault(*args, **kwargs):
            (tmp_path / "new" / "other").mkdir(parents=True)
            raise NumericalFault("non-finite logits in forward pass")

        monkeypatch.setattr("noisylab.cli.run_experiment", other_command_writes_then_fault)
        out = tmp_path / "new" / "o"
        assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == "error[NUMERICAL_FAULT]: non-finite logits in forward pass\n"
        assert not out.exists()
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["other"]

    def test_no_directory_is_made_before_the_first_run_finishes(
        self, config_path, tmp_path, monkeypatch
    ):
        out = tmp_path / "new" / "o"
        seen = []

        def recording_run(*args, **kwargs):
            seen.append((out.exists(), out.parent.exists()))
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", recording_run)
        assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
        assert seen == [(False, False)]
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_path_through_a_file_is_config_error(self, config_path, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / below if below else taken
        assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            f"error[CONFIG_INVALID]: output: {taken} is a file, not a directory\n"
        )
        assert taken.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.yaml", "taken"]

    def test_dumps_path_that_is_a_file_is_config_error_before_any_run(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        out.mkdir()
        (out / "penalty_labels").write_text("taken\n")
        monkeypatch.setattr("noisylab.cli.run_experiment", lambda *a, **k: pytest.fail("a run started"))
        args = ["run", "--config", config_path, "--out", str(out), *DUMPS]
        assert main(args) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            f"error[CONFIG_INVALID]: output: {out / 'penalty_labels'} is a file, not a directory\n"
        )
        assert [p.name for p in out.iterdir()] == ["penalty_labels"]

    def test_fault_in_a_later_run_keeps_finished_runs(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("noisylab.cli.run_experiment", fault_on_seed(2))
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2"]
        assert main(args) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == (
            "error[NUMERICAL_FAULT]: non-finite parameters after the update\n"
        )
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["1", "1"]
        summary = read_summary(out)
        assert [r["seed"] for r in summary["runs"]] == [1]
        assert [g["trials"] for g in summary["groups"]] == [1]
        assert len((out / "run.log").read_text().splitlines()) == 1

    def test_program_error_is_not_reported_as_config_error(
        self, config_path, tmp_path, monkeypatch
    ):
        def broken_run(*args, **kwargs):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr("noisylab.cli.run_experiment", broken_run)
        with pytest.raises(ValueError, match="internal invariant broken"):
            main(["run", "--config", config_path, "--out", str(tmp_path / "o")])


class TestDumps:
    """Each filed run's penalty history is written at once, so the dumps of the runs before a fault survive it."""

    def test_dump_write_failure_is_a_program_error_after_the_metrics_files(self, config_path, tmp_path):
        out = tmp_path / "o"
        (out / "penalty_labels" / "all-stacked-lam1.0-seed1.npy").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            main(["run", "--config", config_path, "--out", str(out), *DUMPS])
        for name in ("metrics.csv", "summary.json", "run.log"):
            assert (out / name).is_file()

    def test_dump_write_failure_stops_a_helper_still_training(self, config_path, tmp_path, monkeypatch):
        pin_trainers(monkeypatch, 2)

        def run(config, *args, **kwargs):
            if config.seed == 2:  # its helper still trains when seed 1's dump fails
                time.sleep(30)
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        out = tmp_path / "o"
        (out / "penalty_labels" / "all-stacked-lam1.0-seed1.npy").mkdir(parents=True)
        try:
            main(["run", "--config", config_path, "--out", str(out), "--seeds", "1,2", *DUMPS])
        except IsADirectoryError:
            # the traceback still holds execute's frame, so only a closed runner has stopped the helper by now
            assert multiprocessing.active_children() == []
        else:
            pytest.fail("the dump write did not fail")
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]

    def test_fault_in_a_later_run_keeps_the_finished_dumps(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("noisylab.cli.run_experiment", fault_on_seed(2))
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2", *DUMPS]
        assert main(args) == EXIT_NUMERICAL_FAULT
        capsys.readouterr()
        assert [p.name for p in (out / "penalty_labels").iterdir()] == ["all-stacked-lam1.0-seed1.npy"]


def record_trainers(record_dir):
    """A ``run_experiment`` that leaves one file per process that trains a run."""

    def run(*args, **kwargs):
        (record_dir / str(os.getpid())).touch()
        return run_experiment(*args, **kwargs)

    return run


def wait_for(path):
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


class TestParallelSeeds:
    """Forked helpers train the seeds, or a one-seed command's chains, dealt to them; runs are filed in plan order."""

    def test_helpers_train_and_change_no_output_byte(self, tmp_path, monkeypatch):
        outputs = {}
        for cpus, processes in ((2, 3), (1, 1)):  # on 2 CPUs one process per seed
            pin_trainers(monkeypatch, cpus)
            trainers = tmp_path / f"trainers-{cpus}"
            trainers.mkdir()
            monkeypatch.setattr("noisylab.cli.run_experiment", record_trainers(trainers))
            out = tmp_path / f"out-{cpus}"
            args = ["compare", "--config", QUICK, "--out", str(out), *DUMPS, "--seeds", "1,2,3"]
            assert main([*args, "--variants", "ol,all", "--strategies", "stacked,repredict"]) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs[cpus] = {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != "run.log"
            }
            # a run.log line reads: stamp run_id seed= epochs= replayed= elapsed
            outputs[cpus]["run.log"] = [line.split()[1:-1] for line in (out / "run.log").read_text().splitlines()]
            trained_in = {p.name for p in trainers.iterdir()}
            assert len(trained_in) == processes
            assert str(os.getpid()) in trained_in
        assert len(outputs[1]) == 3 + 4 * 3  # metrics, summary, run.log and one dump per run
        assert outputs[2] == outputs[1]

    def test_a_split_seed_trains_one_process_per_chain_with_same_outputs(self, tmp_path, monkeypatch):
        # one seed, three chains: on 2 CPUs this process trains ol, one helper all-repredict, another all-stacked
        outputs, replayed = {}, {}
        for cpus, processes in ((2, 3), (1, 1)):
            pin_trainers(monkeypatch, cpus)
            trainers = tmp_path / f"trainers-{cpus}"
            trainers.mkdir()
            monkeypatch.setattr("noisylab.cli.run_experiment", record_trainers(trainers))
            out = tmp_path / f"out-{cpus}"
            args = ["compare", "--config", QUICK, "--out", str(out), *DUMPS]
            assert main([*args, "--variants", "ol,all", "--strategies", "stacked,repredict"]) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs[cpus] = {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != "run.log"
            }
            replayed[cpus] = [line.split()[4] for line in (out / "run.log").read_text().splitlines()]
            assert len({p.name for p in trainers.iterdir()}) == processes
        assert len(outputs[1]) == 2 + 4  # metrics, summary and one dump per run
        assert outputs[2] == outputs[1]
        # a helper counts what it replayed itself: each all chain trains the 3 warm-up epochs again
        assert replayed == {
            2: ["replayed=0", "replayed=10", "replayed=0", "replayed=0"],
            1: ["replayed=0", "replayed=10", "replayed=3", "replayed=3"],
        }

    @pytest.mark.parametrize(
        "env, cpus, seeds, trainers",
        [
            ({}, 2, 3, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 4, 3, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 2, 3, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 3, 2),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 3, 3),  # 1-thread teams: a process per seed
        ],
    )
    def test_one_trainer_per_blas_thread_team_and_seed(self, monkeypatch, env, cpus, seeds, trainers):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr("noisylab.cli.os.sched_getaffinity", lambda pid: set(range(cpus)))
        plan = [TrainConfig(seed=seed) for seed in range(1, seeds + 1)]
        assert len(deal(plan, *_trainer_count())) == trainers

    @pytest.mark.parametrize("cpu_count, teams", [(4, 4), (None, 1)])
    def test_without_sched_getaffinity_the_cpu_count_holds_the_teams(self, monkeypatch, cpu_count, teams):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr("noisylab.cli.os.sched_getaffinity")  # as on macOS
        monkeypatch.setattr("noisylab.cli.os.cpu_count", lambda: cpu_count)
        assert _trainer_count() == (teams, 1)

    def test_fault_in_the_first_run_ends_the_plan_though_a_helper_finished(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        pin_trainers(monkeypatch, 2)
        finished = tmp_path / "seed-2-finished"

        def run(config, *args, **kwargs):
            if config.seed == 1:
                wait_for(finished)
                raise NumericalFault("non-finite parameters after the update")
            result = run_experiment(config, *args, **kwargs)
            finished.touch()
            return result

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2", *DUMPS]
        assert main(args) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == "error[NUMERICAL_FAULT]: non-finite parameters after the update\n"
        assert finished.exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, faulty, kept",
        [
            # a helper trains seed 2
            (["run", "--seeds", "1,2,3"], lambda cfg: cfg.seed == 2, [("all-stacked-lam1.0", 1)]),
            # dealt [[0, 2], [1, 3]]: this process trains seed 3 before it files seed 1, and drops it
            (["run", "--seeds", "1,2,3,4"], lambda cfg: cfg.seed == 2, [("all-stacked-lam1.0", 1)]),
            # one seed: one helper trains the all-repredict chain, another all-stacked
            (
                ["compare", "--variants", "ol,all", "--strategies", "repredict,stacked"],
                lambda cfg: (cfg.criteria.variant, cfg.penalty_update) == ("all", "repredict"),
                [("ol-repredict", 1), ("ol-stacked", 1)],
            ),
        ],
        ids=["seeds", "interleaved-seeds", "chains"],
    )
    def test_fault_in_a_helper_run_keeps_the_runs_before_it(
        self, config_path, tmp_path, capsys, monkeypatch, command, faulty, kept
    ):
        pin_trainers(monkeypatch, 2)
        parent_pid = os.getpid()

        def run(config, *args, **kwargs):
            if faulty(config) and os.getpid() != parent_pid:  # a fault only where a helper trains it
                raise NumericalFault("non-finite parameters after the update")
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        out = tmp_path / "o"
        assert main([*command, "--config", config_path, "--out", str(out), *DUMPS]) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == "error[NUMERICAL_FAULT]: non-finite parameters after the update\n"
        assert multiprocessing.active_children() == []
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [str(seed) for _, seed in kept for _ in range(2)]
        assert [(r["run_id"], r["seed"]) for r in read_summary(out)["runs"]] == kept
        log = [line.split()[1:3] for line in (out / "run.log").read_text().splitlines()]
        assert log == [[run_id, f"seed={seed}"] for run_id, seed in kept]
        dumps = sorted(p.name for p in (out / "penalty_labels").iterdir())
        assert dumps == sorted(f"{run_id}-seed{seed}.npy" for run_id, seed in kept)

    def test_program_error_in_a_helper_run_keeps_the_helper_traceback(self, config_path, tmp_path, monkeypatch):
        pin_trainers(monkeypatch, 2)

        def broken_in_seed_2(config, *args, **kwargs):
            if config.seed == 2:
                raise ValueError("internal invariant broken")
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", broken_in_seed_2)
        with pytest.raises(ValueError, match="internal invariant broken") as raised:
            main(["run", "--config", config_path, "--out", str(tmp_path / "o"), "--seeds", "1,2"])
        assert multiprocessing.active_children() == []
        assert "in broken_in_seed_2" in str(raised.value.__cause__)

    def test_helper_gone_without_its_run_is_a_program_error_after_the_metrics_files(
        self, config_path, tmp_path, monkeypatch
    ):
        pin_trainers(monkeypatch, 2)
        parent_pid = os.getpid()

        def run(config, *args, **kwargs):
            if config.seed == 2:
                assert os.getpid() != parent_pid, "seed 2 trained in the command's own process"
                os._exit(3)
            return run_experiment(config, *args, **kwargs)

        monkeypatch.setattr("noisylab.cli.run_experiment", run)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="helper exited with code 3 before sending its run"):
            main(["run", "--config", config_path, "--out", str(out), "--seeds", "1,2"])
        assert multiprocessing.active_children() == []
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert (out / "metrics.csv").is_file()
        assert len((out / "run.log").read_text().splitlines()) == 1

    @pytest.mark.parametrize("death, code", [("exit", 3), ("kill", -9)])
    def test_helper_gone_part_way_through_sending_a_run_is_a_program_error_after_the_runs_before_it(
        self, tmp_path, death, code
    ):
        # a subprocess with a timeout, so a command that waits forever on the half-sent run fails the test
        out, marks = tmp_path / "o", tmp_path / "marks"
        marks.mkdir()
        root = Path(__file__).resolve().parents[1]
        pair40 = str(root / "configs" / "pair40.yaml")
        args = ["run", "--config", pair40, "--out", str(out), "--seeds", "1,2,3,4", *DUMPS]
        for override in ("train.hidden=[8]", "dataset.n_per_class=20", "dataset.test_per_class=5"):
            args += ["--set", override]
        completed = subprocess.run(
            [sys.executable, "-c", HALF_SENT_RUN, str(marks), death, *args],
            env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert int((marks / "seed-2-bytes").read_text()) > 2**16  # more than a pipe holds
        assert completed.returncode == 1
        lines = completed.stderr.splitlines()
        assert "children left: 0" in lines
        assert lines[-1] == f"RuntimeError: helper exited with code {code} before sending its run"
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"1"}
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert [line.split()[2] for line in (out / "run.log").read_text().splitlines()] == ["seed=1"]
        assert [p.name for p in (out / "penalty_labels").iterdir()] == ["all-stacked-lam1.0-seed1.npy"]


# Dealt [[0, 2], [1, 3]] on 2 CPUs: the helper trains seeds 2 and 4. Seed 2's run fills the pipe while
# the command trains seeds 1 and 3, and the helper dies in seed 4 with the rest of seed 2's run unsent.
HALF_SENT_RUN = """
import multiprocessing, os, pickle, signal, sys, time
from pathlib import Path
from noisylab import cli

marks, death, args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
run_experiment = cli.run_experiment
cli.os.sched_getaffinity = lambda pid: {0, 1}


def run(config, *a, **kw):
    if config.seed == 3:  # the command reads no helper run before its share is trained
        while not (marks / "dying").exists():
            time.sleep(0.01)
    if config.seed == 4:
        time.sleep(0.5)  # the feeder thread writes what the pipe holds of seed 2's run
        (marks / "dying").touch()
        if death == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)
    result = run_experiment(config, *a, **kw)
    if config.seed == 2:
        (marks / "seed-2-bytes").write_text(str(len(pickle.dumps(result))))
    return result


cli.run_experiment = run
try:
    cli.main(args)
finally:
    print("children left:", len(multiprocessing.active_children()), file=sys.stderr)
"""


# Seed 2's trainer leaves a file named by its pid, then waits for a "go" file before it trains.
SIGNALLED_RUN = """
import multiprocessing, os, pickle, sys, time
from pathlib import Path
from noisylab import cli

marks, cpus, args = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
run_experiment = cli.run_experiment
cli.os.sched_getaffinity = lambda pid: set(range(cpus))


def run(config, *a, **kw):
    if config.seed == 2:
        (marks / f"seed-2-trainer-{os.getpid()}").touch()
        while not (marks / "go").exists():
            time.sleep(0.01)
    result = run_experiment(config, *a, **kw)
    if config.seed == 2:
        (marks / "seed-2-bytes").write_text(str(len(pickle.dumps(result))))
    return result


cli.run_experiment = run
try:
    sys.exit(cli.main(args))
finally:
    print("children left:", len(multiprocessing.active_children()), file=sys.stderr)
"""


def kill_if_there(pid):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def running(pid):
    """Whether ``pid`` runs; a zombie, dead but not yet reaped by the process it was handed to, does not."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
class TestSignals:
    """A signalled command files the runs it finished, and leaves no helper training or blocked behind it."""

    def start(self, tmp_path, cpus, **popen):
        """Start ``run --seeds 1,2`` on ``cpus`` CPUs; once seed 1 is filed, return it and seed 2's trainer pid."""
        marks, out = tmp_path / "marks", tmp_path / "o"
        marks.mkdir()
        root = Path(__file__).resolve().parents[1]
        args = ["run", "--config", str(root / "configs" / "pair40.yaml"), "--out", str(out), "--seeds", "1,2", *DUMPS]
        for override in ("train.hidden=[8]", "dataset.n_per_class=20", "dataset.test_per_class=5"):
            args += ["--set", override]
        with open(tmp_path / "stderr", "w") as stderr:  # a file, which a helper left behind cannot hold open
            command = subprocess.Popen(
                [sys.executable, "-c", SIGNALLED_RUN, str(marks), str(cpus), *args],
                env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                **popen,
            )
        self.cleanup.append(command.kill)  # does nothing once the command is reaped
        wait_for(out / "penalty_labels" / "all-stacked-lam1.0-seed1.npy")
        deadline = time.monotonic() + 60
        while not (found := list(marks.glob("seed-2-trainer-*"))):
            assert time.monotonic() < deadline, "seed 2 never started"
            time.sleep(0.01)
        pid = int(found[0].name.rsplit("-", 1)[1])
        if pid != command.pid:  # a helper: killed at the end of the test, should it outlive the command
            self.cleanup.append(lambda: running(pid) and kill_if_there(pid))
        return command, pid

    @pytest.fixture(autouse=True)
    def kill_leftovers(self):
        self.cleanup = []
        yield
        for kill in self.cleanup:
            kill()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sigterm_files_the_finished_runs_and_ends_the_helper(self, tmp_path, cpus):
        command, trainer = self.start(tmp_path, cpus)
        assert (trainer == command.pid) == (cpus == 1)
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=60) == 128 + signal.SIGTERM
        assert not running(trainer)
        assert "children left: 0" in (tmp_path / "stderr").read_text().splitlines()
        out = tmp_path / "o"
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"1"}
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert [line.split()[2] for line in (out / "run.log").read_text().splitlines()] == ["seed=1"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ctrl_c_files_the_finished_runs_and_ends_the_helper_without_a_traceback(self, tmp_path, cpus):
        # a terminal sends SIGINT to the whole process group: the command and its helpers
        command, trainer = self.start(tmp_path, cpus, start_new_session=True)
        os.killpg(command.pid, signal.SIGINT)
        assert command.wait(timeout=60) == 128 + signal.SIGINT
        assert not running(trainer)
        assert (tmp_path / "stderr").read_text() == "children left: 0\n"
        out = tmp_path / "o"
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert [line.split()[2] for line in (out / "run.log").read_text().splitlines()] == ["seed=1"]
        assert [path.name for path in (out / "penalty_labels").iterdir()] == ["all-stacked-lam1.0-seed1.npy"]

    def test_a_helper_whose_command_was_killed_exits_once_its_share_is_trained(self, tmp_path):
        command, helper = self.start(tmp_path, 2)
        assert helper != command.pid
        command.kill()
        assert command.wait(timeout=60) == -signal.SIGKILL
        (tmp_path / "marks" / "go").touch()  # the helper trains seed 2 and sends it to a pipe no one reads
        deadline = time.monotonic() + 30
        while running(helper):
            assert time.monotonic() < deadline, "the helper outlived its command"
            time.sleep(0.05)
        assert int((tmp_path / "marks" / "seed-2-bytes").read_text()) > 2**16  # more than a pipe holds

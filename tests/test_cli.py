"""Command-line behavior: outputs, overrides, exit codes, determinism."""

import json
import multiprocessing
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from noisylab.cli import (
    EXIT_CONFIG_INVALID,
    EXIT_CONFIG_PARSE,
    EXIT_NUMERICAL_FAULT,
    EXIT_OK,
    EXIT_USAGE,
    _trainer_count,
    main,
)
from noisylab.config import OUTPUT_DIR_ENV
from noisylab.data import IMAGES_MAGIC, LABELS_MAGIC
from noisylab.network import NumericalFault
from noisylab.trainer import run_experiment

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

    def test_set_overrides_reach_the_run(self, config_path, tmp_path):
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
            ]
        )
        assert code == EXIT_OK
        group = read_summary(out)["groups"][0]
        assert group["lambda"] == 0.5
        assert group["variant"] == "ol"
        assert group["run_id"] == "ol-stacked-lam0.5"

    def test_seeds_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", config_path, "--out", str(out), "--seeds", "5,6"])
        summary = read_summary(out)
        assert [r["seed"] for r in summary["runs"]] == [5, 6]
        assert summary["groups"][0]["trials"] == 2

    def test_formats_limit_outputs(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(out),
                "--set",
                "output.formats=[json]",
            ]
        )
        assert not (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "run.log").exists()

    def test_penalty_label_dump(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                config_path,
                "--out",
                str(out),
                "--set",
                "output.dump_penalty_labels=true",
            ]
        )
        dumped = sorted(p.name for p in (out / "penalty_labels").iterdir())
        assert dumped == [
            "all-stacked-lam1.0-seed1-epoch000.csv",
            "all-stacked-lam1.0-seed1-epoch001.csv",
        ]
        rows = (out / "penalty_labels" / dumped[0]).read_text().splitlines()
        assert len(rows) == 3
        for i, row in enumerate(rows):
            values = [float(v) for v in row.split(",")]
            assert len(values) == 3
            assert values[i] == 0.0
            assert sum(values) == pytest.approx(1.0)


class TestOutputDirPrecedence:
    def test_config_dir_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        target = tmp_path / "from_config"
        path = tmp_path / "experiment.yaml"
        path.write_text(SMALL_CONFIG + f"output:\n  dir: {target}\n")
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (target / "metrics.csv").exists()

    def test_env_var_is_the_fallback(self, config_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        assert main(["run", "--config", config_path]) == EXIT_OK
        assert (target / "metrics.csv").exists()

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored_env"))
        path = tmp_path / "experiment.yaml"
        path.write_text(SMALL_CONFIG + f"output:\n  dir: {tmp_path / 'ignored_cfg'}\n")
        out = tmp_path / "explicit"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert not (tmp_path / "ignored_env").exists()
        assert not (tmp_path / "ignored_cfg").exists()


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

    def test_run_log_counts_the_replayed_epochs(self, config_path, tmp_path):
        # 2 epochs, 1 of warm-up: every run shares epoch 0, and ol, which reads
        # no penalty labels, trains epoch 1 alike under both strategies
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
        assert err.startswith("error[CONFIG_INVALID]: dataset: ")
        assert str(tmp_path / "train-images") in err and str(tmp_path / "test-images") in err
        assert "16 features" in err and "have 9" in err
        assert not out.exists()

    def test_missing_config_file_is_parse_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == EXIT_CONFIG_PARSE
        assert capsys.readouterr().err.startswith("error[CONFIG_PARSE]:")

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


class BusyWriter:
    """A real writer process that reports itself alive until it is joined."""

    def __init__(self, *args, **kwargs):
        self.process = multiprocessing.get_context().Process(*args, **kwargs)  # not the patched name

    def start(self):
        self.process.start()

    def is_alive(self):
        return True

    def join(self):
        self.process.join()

    @property
    def exitcode(self):
        return self.process.exitcode


class TestDumpWriter:
    """One background process writes the penalty-label dumps while later runs train."""

    def test_at_most_one_writer_is_alive_and_none_outlives_the_command(self, tmp_path, monkeypatch):
        real_process = multiprocessing.Process
        writers = []

        def recording_process(*args, **kwargs):
            assert not any(w.is_alive() for w in writers)
            writers.append(real_process(*args, **kwargs))
            return writers[-1]

        monkeypatch.setattr("noisylab.cli.multiprocessing.Process", recording_process)
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.yaml"
        out = tmp_path / "o"
        # ol-repredict replays ol-stacked whole, so it finishes while a writer may still be busy
        args = ["compare", "--config", str(quick), "--out", str(out), *DUMPS]
        assert main([*args, "--variants", "ol,all", "--strategies", "stacked,repredict"]) == EXIT_OK
        assert multiprocessing.active_children() == []
        assert writers and all(w.exitcode == 0 for w in writers)
        run_ids = ("ol-stacked", "ol-repredict", "all-stacked", "all-repredict")
        expected = [f"{r}-seed1-epoch{e:03d}.csv" for r in run_ids for e in range(10)]
        assert sorted(p.name for p in (out / "penalty_labels").iterdir()) == sorted(expected)

    def test_writer_failure_is_a_program_error_after_the_metrics_files(self, config_path, tmp_path):
        out = tmp_path / "o"
        (out / "penalty_labels" / "all-stacked-lam1.0-seed1-epoch000.csv").mkdir(parents=True)
        with pytest.raises(RuntimeError, match="penalty-label writer exited with code 1"):
            main(["run", "--config", config_path, "--out", str(out), *DUMPS])
        assert multiprocessing.active_children() == []
        for name in ("metrics.csv", "summary.json", "run.log"):
            assert (out / name).is_file()

    def test_fault_in_a_later_run_keeps_the_finished_dumps(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("noisylab.cli.run_experiment", fault_on_seed(2))
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2", *DUMPS]
        assert main(args) == EXIT_NUMERICAL_FAULT
        capsys.readouterr()
        assert sorted(p.name for p in (out / "penalty_labels").iterdir()) == [
            "all-stacked-lam1.0-seed1-epoch000.csv",
            "all-stacked-lam1.0-seed1-epoch001.csv",
        ]

    def test_runs_finished_while_the_writer_is_busy_are_written_by_the_command(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        writers = []

        def busy_writer(*args, **kwargs):
            writers.append(BusyWriter(*args, **kwargs))
            return writers[-1]

        monkeypatch.setattr("noisylab.cli.run_experiment", fault_on_seed(3))
        monkeypatch.setattr("noisylab.cli.multiprocessing.Process", busy_writer)
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2,3", *DUMPS]
        assert main(args) == EXIT_NUMERICAL_FAULT
        capsys.readouterr()
        assert len(writers) == 1  # seed 2 finished while the seed-1 writer still ran
        expected = [f"all-stacked-lam1.0-seed{seed}-epoch{e:03d}.csv" for seed in (1, 2) for e in (0, 1)]
        assert sorted(p.name for p in (out / "penalty_labels").iterdir()) == expected


def pin_trainers(monkeypatch, cpus):
    """One BLAS thread on ``cpus`` CPUs: a command of that many seeds or more trains in ``cpus`` processes."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr("noisylab.cli.os.sched_getaffinity", lambda pid: set(range(cpus)))


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
    """Forked helpers train every width-th seed group and the command files the runs in plan order."""

    QUICK = str(Path(__file__).resolve().parents[1] / "configs" / "quick.yaml")

    def test_helpers_train_and_change_no_output_byte(self, tmp_path, monkeypatch):
        outputs = {}
        for cpus in (2, 1):
            pin_trainers(monkeypatch, cpus)
            trainers = tmp_path / f"trainers-{cpus}"
            trainers.mkdir()
            monkeypatch.setattr("noisylab.cli.run_experiment", record_trainers(trainers))
            out = tmp_path / f"out-{cpus}"
            args = ["compare", "--config", self.QUICK, "--out", str(out), *DUMPS, "--seeds", "1,2,3"]
            assert main([*args, "--variants", "ol,all", "--strategies", "stacked,repredict"]) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs[cpus] = {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != "run.log"
            }
            # a run.log line reads: stamp run_id seed= epochs= replayed= elapsed
            outputs[cpus]["run.log"] = [line.split()[1:-1] for line in (out / "run.log").read_text().splitlines()]
            trained_in = {p.name for p in trainers.iterdir()}
            assert len(trained_in) == cpus
            assert str(os.getpid()) in trained_in
        assert len(outputs[1]) == 3 + 4 * 3 * 10  # metrics, summary, run.log and 10 dumps per run
        assert outputs[2] == outputs[1]

    @pytest.mark.parametrize(
        "env, cpus, seeds, trainers",
        [
            ({}, 2, 3, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 4, 3, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 2, 3, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 3, 2),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 3, 2),
        ],
    )
    def test_one_trainer_per_blas_thread_team_and_seed(self, monkeypatch, env, cpus, seeds, trainers):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr("noisylab.cli.os.sched_getaffinity", lambda pid: set(range(cpus)))
        assert _trainer_count(seeds) == trainers

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

    def test_fault_in_a_helper_run_keeps_the_runs_before_it(self, config_path, tmp_path, capsys, monkeypatch):
        pin_trainers(monkeypatch, 2)
        monkeypatch.setattr("noisylab.cli.run_experiment", fault_on_seed(2))
        out = tmp_path / "o"
        args = ["run", "--config", config_path, "--out", str(out), "--seeds", "1,2,3", *DUMPS]
        assert main(args) == EXIT_NUMERICAL_FAULT
        assert capsys.readouterr().err == "error[NUMERICAL_FAULT]: non-finite parameters after the update\n"
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["1", "1"]
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert [line.split()[2] for line in (out / "run.log").read_text().splitlines()] == ["seed=1"]
        assert sorted(p.name for p in (out / "penalty_labels").iterdir()) == [
            "all-stacked-lam1.0-seed1-epoch000.csv",
            "all-stacked-lam1.0-seed1-epoch001.csv",
        ]

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
        with pytest.raises(RuntimeError, match="seed helper exited with code 3 before sending its run"):
            main(["run", "--config", config_path, "--out", str(out), "--seeds", "1,2"])
        assert multiprocessing.active_children() == []
        assert [r["seed"] for r in read_summary(out)["runs"]] == [1]
        assert (out / "metrics.csv").is_file()
        assert len((out / "run.log").read_text().splitlines()) == 1

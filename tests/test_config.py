"""YAML config loading, dotted overrides, and strict validation."""

import struct

import numpy as np
import pytest

from noisylab.config import (
    ConfigError,
    ConfigParseError,
    DatasetConfig,
    apply_overrides,
    build_config,
    load_raw_config,
    make_datasets,
)
from noisylab.data import IMAGES_MAGIC, LABELS_MAGIC
from noisylab.trainer import LossKind, PenaltyUpdate, Variant


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestLoadRawConfig:
    def test_reads_mapping(self, tmp_path):
        path = write_config(tmp_path, "seeds: [1, 2]\n")
        assert load_raw_config(path) == {"seeds": [1, 2]}

    def test_empty_file_is_empty_mapping(self, tmp_path):
        path = write_config(tmp_path, "")
        assert load_raw_config(path) == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            load_raw_config(tmp_path / "absent.yaml")

    def test_broken_yaml(self, tmp_path):
        path = write_config(tmp_path, "a: [1, 2\n")
        with pytest.raises(ConfigParseError):
            load_raw_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigParseError):
            load_raw_config(path)


class TestApplyOverrides:
    def test_dotted_paths_create_sections(self):
        raw = apply_overrides({}, ["train.criteria.lambda=0.5", "noise.epsilon=0.4"])
        assert raw["train"]["criteria"]["lambda"] == 0.5
        assert raw["noise"]["epsilon"] == 0.4

    def test_values_parse_as_yaml(self):
        raw = apply_overrides({}, ["train.hidden=[32, 32]", "output.dump_penalty_labels=true"])
        assert raw["train"]["hidden"] == [32, 32]
        assert raw["output"]["dump_penalty_labels"] is True

    def test_existing_values_replaced(self):
        raw = apply_overrides({"train": {"epochs": 100}}, ["train.epochs=5"])
        assert raw["train"]["epochs"] == 5

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigParseError):
            apply_overrides({}, ["train.epochs"])

    def test_cannot_descend_through_scalar(self):
        with pytest.raises(ConfigParseError):
            apply_overrides({"train": 5}, ["train.epochs=1"])


class TestBuildConfig:
    def test_defaults_from_empty_mapping(self):
        cfg = build_config({})
        assert cfg.dataset.kind == "blobs"
        assert cfg.dataset.classes == 10
        assert cfg.noise.epsilon == 0.0
        assert cfg.train.epochs == 100
        assert cfg.train.criteria.variant is Variant.ALL
        assert cfg.seeds == (1,)
        assert cfg.trials == 1

    def test_full_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            """
dataset:
  classes: 4
  n_per_class: 50
  dim: 3
noise:
  kind: symmetry
  epsilon: 0.2
train:
  epochs: 8
  warmup_epochs: 2
  loss: sl
  penalty_update: repredict
  criteria:
    variant: pl
    lambda: 0.5
  sl:
    beta: 0.3
output:
  formats: [json]
seeds: [4, 5]
trials: 2
""",
        )
        cfg = build_config(load_raw_config(path))
        assert cfg.dataset.classes == 4
        assert cfg.noise.kind.value == "symmetry"
        assert cfg.train.loss is LossKind.SL
        assert cfg.train.penalty_update is PenaltyUpdate.REPREDICT
        assert cfg.train.criteria.variant is Variant.PL
        assert cfg.train.criteria.lam == 0.5
        assert cfg.train.sl.beta == 0.3
        assert cfg.output.formats == ("json",)
        assert cfg.seeds == (4, 5)

    def test_mixed_noise_parts(self):
        cfg = build_config({"noise": {"kind": "mixed", "epsilon1": 0.24, "epsilon2": 0.16}})
        assert cfg.noise.epsilon == pytest.approx(0.4)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            build_config({"trainer": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            build_config({"train": {"epoch": 5}})
        with pytest.raises(ConfigError):
            build_config({"dataset": {"classses": 10}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"train": {"epochs": "many"}})
        with pytest.raises(ConfigError):
            build_config({"train": {"epochs": True}})
        with pytest.raises(ConfigError):
            build_config({"noise": {"kind": "pair", "epsilon": 1.5}})
        with pytest.raises(ConfigError):
            build_config({"dataset": {"classes": 1}})
        with pytest.raises(ConfigError):
            build_config({"train": {"criteria": {"variant": "both"}}})
        with pytest.raises(ConfigError):
            build_config({"output": {"formats": ["xml"]}})
        with pytest.raises(ConfigError):
            build_config({"output": {"formats": []}})

    def test_seeds_validation(self):
        assert build_config({"seeds": [3, 1, 2]}).seeds == (3, 1, 2)
        with pytest.raises(ConfigError):
            build_config({"seeds": []})
        with pytest.raises(ConfigError):
            build_config({"seeds": [1, "two"]})

    def test_trials_must_match_seed_count(self):
        assert build_config({"seeds": [1, 2], "trials": 2}).trials == 2
        with pytest.raises(ConfigError):
            build_config({"seeds": [1, 2], "trials": 5})

    def test_idx_kind_requires_paths(self):
        with pytest.raises(ConfigError):
            build_config({"dataset": {"kind": "idx"}})


class TestMakeDatasets:
    def test_blob_pair_disjoint_but_reproducible(self):
        cfg = DatasetConfig(n_per_class=20, test_per_class=5, classes=3, seed=9)
        train, test = make_datasets(cfg)
        train2, _ = make_datasets(cfg)
        assert train.n == 60
        assert test.n == 15
        assert train.d == 2
        assert np.array_equal(train.features, train2.features)
        assert not np.array_equal(train.features[:15], test.features)

    @staticmethod
    def idx_config(tmp_path, train_labels, test_labels):
        paths = {}
        for stem, labels, keys in (
            ("train", train_labels, ("images", "labels")),
            ("t10k", test_labels, ("test_images", "test_labels")),
        ):
            img = tmp_path / f"{stem}-images.idx"
            lab = tmp_path / f"{stem}-labels.idx"
            n = len(labels)
            img.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, n, 1, 2) + bytes(range(2 * n)))
            lab.write_bytes(struct.pack(">II", LABELS_MAGIC, n) + bytes(labels))
            paths.update(zip(keys, (str(img), str(lab))))
        return DatasetConfig(kind="idx", **paths)

    def test_idx_quartet(self, tmp_path):
        train, test = make_datasets(self.idx_config(tmp_path, [0, 1, 1], [1, 0]))
        assert train.n == 3
        assert test.n == 2
        assert train.d == 2
        assert train.k == 2

    def test_idx_class_count_shared_across_files(self, tmp_path):
        # the train file lacks class 2; its head must still have 3 columns
        train, test = make_datasets(self.idx_config(tmp_path, [0, 1, 1, 0], [2, 0, 1]))
        assert train.k == 3
        assert test.k == 3

"""YAML config loading, dotted overrides, and strict validation."""

import math
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import assume, given
from hypothesis import strategies as st

from noisylab.config import (
    ConfigError,
    ConfigParseError,
    DatasetConfig,
    ExperimentConfig,
    _UniqueKeyLoader,
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

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_file(self, tmp_path, kind):
        path = tmp_path / "config.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seeds: [1]\n# caf\xe9\n")  # Latin-1, not UTF-8
        with pytest.raises(ConfigParseError, match="cannot read config file"):
            load_raw_config(path)

    def test_broken_yaml(self, tmp_path):
        path = write_config(tmp_path, "a: [1, 2\n")
        with pytest.raises(ConfigParseError):
            load_raw_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ConfigParseError):
            load_raw_config(path)

    def test_exponent_without_a_dot_is_a_number(self, tmp_path):
        path = write_config(tmp_path, "dataset: {separation: 5e-1}\n")
        assert build_config(load_raw_config(path)).dataset.separation == 0.5
        # the YAML 1.2 float rule is the config loader's own; PyYAML's stays 1.1
        assert yaml.safe_load("1e-3") == "1e-3"


class TestApplyOverrides:
    def test_dotted_paths_create_sections(self):
        raw = apply_overrides({}, ["train.criteria.lambda=0.5", "noise.epsilon=0.4"])
        assert raw["train"]["criteria"]["lambda"] == 0.5
        assert raw["noise"]["epsilon"] == 0.4

    def test_values_parse_as_yaml(self):
        raw = apply_overrides({}, ["train.hidden=[32, 32]", "output.dump_penalty_labels=true"])
        assert raw["train"]["hidden"] == [32, 32]
        assert raw["output"]["dump_penalty_labels"] is True

    def test_yaml_1_2_exponent_floats(self):
        values = ["1e-3", "-2.5e+3", "12", "1e", "e5", "1e-3x"]
        raw = apply_overrides({}, [f"v{i}={text}" for i, text in enumerate(values)])
        assert list(raw.values()) == [0.001, -2500.0, 12, "1e", "e5", "1e-3x"]
        assert type(raw["v2"]) is int
        raw = apply_overrides({}, ["train.learning_rate=1e-3"])
        assert build_config(raw).train.learning_rate == 0.001

    def test_existing_values_replaced(self):
        raw = apply_overrides({"train": {"epochs": 100}}, ["train.epochs=5"])
        assert raw["train"]["epochs"] == 5

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigParseError):
            apply_overrides({}, ["train.epochs"])

    @pytest.mark.parametrize("assignment", ["=1", " = 1", "..=1"])
    def test_empty_key_path(self, assignment):
        with pytest.raises(ConfigParseError, match="has an empty key path"):
            apply_overrides({}, [assignment])

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
        with pytest.raises(ConfigError, match=r"train.lr_milestones\[0\] must be a list of 2 items"):
            build_config({"train": {"lr_milestones": [[50]]}})
        idx_only = "images, labels, test_images and test_labels only apply when kind is 'idx'"
        for dataset, message in [
            ({"kind": "csv"}, "kind must be 'blobs' or 'idx'"),
            ({"n_per_class": 0}, "n_per_class and test_per_class must be positive"),
            ({"test_per_class": -1}, "n_per_class and test_per_class must be positive"),
            ({"dim": 0}, "dim must be at least 1"),
            ({"separation": 0.0}, "separation and spread must be positive"),
            ({"spread": -0.1}, "separation and spread must be positive"),
            ({"images": "x", "labels": "y", "test_images": "a", "test_labels": "b"}, idx_only),
            ({"test_labels": "b"}, idx_only),
        ]:
            with pytest.raises(ConfigError, match=f"dataset: {message}"):
                build_config({"dataset": dataset})

    @pytest.mark.parametrize(
        "raw",
        [
            {"output": {"dump_penalty_labels": "false"}},
            {
                "dataset": {
                    "kind": "idx",
                    "images": 5,
                    "labels": "l",
                    "test_images": "ti",
                    "test_labels": "tl",
                }
            },
            {"train": {"sl": 5}},
            {"noise": {"epsilon": "x"}},
            {"train": {"hidden": 64}},
            {"dataset": {"seed": True}},
            {"train": {"criteria": {"lambda": True}}},
        ],
        ids=[
            "bool-string",
            "images-int",
            "sl-scalar",
            "epsilon-string",
            "hidden-scalar",
            "seed-bool",
            "lambda-bool",
        ],
    )
    def test_mistyped_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_train_seed_is_not_a_key(self):
        # each run's seed comes from ``seeds``; a train.seed would do nothing
        with pytest.raises(ConfigError, match="unknown key train.seed"):
            build_config({"train": {"seed": 3}})

    def test_seeds_validation(self):
        assert build_config({"seeds": [3, 1, 2]}).seeds == (3, 1, 2)
        with pytest.raises(ConfigError):
            build_config({"seeds": []})
        with pytest.raises(ConfigError):
            build_config({"seeds": [1, "two"]})

    def test_seeds_must_not_repeat(self):
        # two runs of one seed are one draw counted twice in the summary
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            build_config({"seeds": [1, 1]})
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            build_config({"seeds": [4, 2, 4]})

    def test_trials_is_not_a_key(self):
        # the trial count is the number of seeds, so a key could only disagree
        with pytest.raises(ConfigError, match="unknown key trials"):
            build_config({"seeds": [1, 2], "trials": 2})

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


# The YAML spellings of fields whose names differ, as README documents them.
YAML_NAMES = {"lam": "lambda"}


def yaml_keys(cls=ExperimentConfig, prefix="", attrs=()):
    """Every dotted YAML key of the config, mapped to (attribute path, type hint)."""
    keys = {}
    hints = get_type_hints(cls)
    for f in fields(cls):
        path = prefix + YAML_NAMES.get(f.name, f.name)
        if path == "train.seed":
            continue
        keys[path] = (attrs + (f.name,), hints[f.name])
        if is_dataclass(hints[f.name]):
            keys.update(yaml_keys(hints[f.name], path + ".", attrs + (f.name,)))
    return keys


def dotted_keys(mapping, prefix=""):
    keys = set()
    for key, value in mapping.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= dotted_keys(value, prefix + key + ".")
    return keys


def test_readme_configuration_block_matches_the_dataclasses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    raw = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    build_config(raw)
    assert dotted_keys(raw) == set(yaml_keys())


def numbers(low=-1e6, high=1e6, exclude_low=False, exclude_high=False):
    """Floats in a range, and the integers in it: YAML ``1`` is a valid float."""
    floats = st.floats(low, high, exclude_min=exclude_low, exclude_max=exclude_high)
    ends = {end for end, excluded in ((low, exclude_low), (high, exclude_high)) if excluded}
    return floats | st.integers(math.ceil(low), math.floor(high)).filter(lambda v: v not in ends)


class ConfigDumper(yaml.SafeDumper):
    """Quotes every string the config loader would read as another type, such as 1e5."""

    yaml_implicit_resolvers = _UniqueKeyLoader.yaml_implicit_resolvers


PATHS = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1)
MIXED = ["noise.kind=mixed"]
IDX_PATHS = [f"dataset.{key}=f" for key in ("images", "labels", "test_images", "test_labels")]


def idx_if_set(path):
    """A path is valid under kind idx with the other three set; null, under the default blobs."""
    return [] if path is None else ["dataset.kind=idx", *IDX_PATHS]


# One strategy of valid values per scalar key, plus the overrides that make
# the value valid in context, or a function of the value that gives them.
SCALARS = {
    "dataset.kind": (st.sampled_from(["blobs", "idx"]), lambda kind: IDX_PATHS if kind == "idx" else []),
    "dataset.n_per_class": (st.integers(1, 10**6), []),
    "dataset.test_per_class": (st.integers(1, 10**6), []),
    "dataset.classes": (st.integers(2, 10**4), []),
    "dataset.dim": (st.integers(1, 10**4), []),
    "dataset.separation": (numbers(0, exclude_low=True), []),
    "dataset.spread": (numbers(0, exclude_low=True), []),
    "dataset.seed": (st.integers(0, 2**63), []),
    "dataset.images": (PATHS | st.none(), idx_if_set),
    "dataset.labels": (PATHS | st.none(), idx_if_set),
    "dataset.test_images": (PATHS | st.none(), idx_if_set),
    "dataset.test_labels": (PATHS | st.none(), idx_if_set),
    "noise.kind": (st.sampled_from(["pair", "symmetry"]), []),
    "noise.epsilon": (numbers(0, 1, exclude_high=True), []),
    "noise.epsilon1": (numbers(0, 0.5), MIXED + ["noise.epsilon2=0.25"]),
    "noise.epsilon2": (numbers(0, 0.5), MIXED + ["noise.epsilon1=0.25"]),
    "train.epochs": (st.integers(1, 10**6), ["train.warmup_epochs=0"]),
    "train.warmup_epochs": (st.integers(0, 10**6), ["train.epochs=1000000"]),
    "train.batch_size": (st.integers(1, 10**6), []),
    "train.select_fraction": (numbers(0, 100, exclude_low=True) | st.none(), []),
    "train.learning_rate": (numbers(0, exclude_low=True), []),
    "train.momentum": (numbers(0, 1, exclude_high=True), []),
    "train.penalty_update": (st.sampled_from(["stacked", "repredict"]), []),
    "train.loss": (st.sampled_from(["ce", "sl"]), []),
    "train.criteria.variant": (st.sampled_from(["none", "ol", "pl", "all"]), []),
    "train.criteria.lambda": (numbers(0), []),
    "train.sl.alpha": (numbers(0), []),
    "train.sl.beta": (numbers(0), []),
    "train.sl.log_zero_clamp": (numbers(high=0, exclude_high=True), []),
    "output.dump_penalty_labels": (st.booleans(), []),
}


def test_scalar_strategies_cover_every_scalar_key():
    scalars = {
        key
        for key, (_, hint) in yaml_keys().items()
        if get_origin(hint) is not tuple and not is_dataclass(hint)
    }
    assert set(SCALARS) == scalars


@given(st.data())
def test_override_of_any_scalar_key_reaches_its_field(data):
    key = data.draw(st.sampled_from(sorted(SCALARS)))
    strategy, context = SCALARS[key]
    value = data.draw(strategy)
    context = context(value) if callable(context) else context
    text = yaml.dump(value, Dumper=ConfigDumper).removesuffix("...\n").strip()
    config = build_config(apply_overrides({}, context + [f"{key}={text}"]))
    attrs, hint = yaml_keys()[key]
    actual = config
    for attr in attrs:
        actual = getattr(actual, attr)
    assert actual == value
    if float in (hint, *get_args(hint)) and value is not None:
        assert type(actual) is float


@given(
    st.sampled_from(["", "dataset.", "noise.", "train.", "train.criteria.", "train.sl.", "output."]),
    st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True),
)
def test_key_outside_the_fields_is_rejected(section, key):
    assume(section + key not in yaml_keys())
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(apply_overrides({}, [f"{section}{key}=1"]))

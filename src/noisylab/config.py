"""Experiment configuration: YAML file, dotted overrides, validation.

One YAML file describes a whole experiment: the dataset, the noise, the
training recipe, and where outputs go. Command-line overrides address any
key by dotted path, for example ``train.criteria.lambda=0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import yaml

from .data import LabeledDataset, load_idx, make_blobs
from .losses import SlConfig
from .noise import NoiseSpec
from .trainer import CriteriaConfig, LossKind, PenaltyUpdate, TrainConfig, Variant

OUTPUT_DIR_ENV = "NOISYLAB_OUT"
KNOWN_FORMATS = ("csv", "json")


class ConfigParseError(ValueError):
    """The config file or an override could not be read at all."""


class ConfigError(ValueError):
    """The config parsed but describes an invalid experiment."""


def load_raw_config(path: str | Path) -> dict:
    """Read a YAML mapping; parse trouble raises ConfigParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"config file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config file {path} must hold a mapping at top level")
    return raw


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``dotted.path=value`` assignments; values parse as YAML scalars."""
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigParseError(f"override '{assignment}' is not of the form key=value")
        dotted, _, value_text = assignment.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ConfigParseError(f"override '{assignment}' has an empty key path")
        try:
            value = yaml.safe_load(value_text)
        except yaml.YAMLError as exc:
            raise ConfigParseError(f"override value '{value_text}' is not valid YAML") from exc
        node = raw
        for key in keys[:-1]:
            child = node.get(key)
            if child is None:
                child = {}
                node[key] = child
            if not isinstance(child, dict):
                raise ConfigParseError(f"override '{dotted}' walks through a non-mapping key")
            node = child
        node[keys[-1]] = value
    return raw


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic blobs by default, or an IDX file quartet.

    The default geometry keeps features near unit scale for the default
    learning rate and leaves enough class overlap for selection quality
    differences to show, while a clean-label run stays under 5% test error.
    """

    kind: str = "blobs"
    n_per_class: int = 500
    test_per_class: int = 100
    classes: int = 10
    dim: int = 2
    separation: float = 0.55
    spread: float = 0.11
    seed: int = 7
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    normalize: bool = True


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv", "json")
    dump_penalty_labels: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec("pair", 0.0))
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seeds: tuple[int, ...] = (1,)

    @property
    def trials(self) -> int:
        return len(self.seeds)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    return value


def _reject_unknown(section: dict, name: str, known: set[str]) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")


def _coerce_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _coerce_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _build_dataset(raw: dict) -> DatasetConfig:
    section = _section(raw, "dataset")
    known = {
        "kind",
        "n_per_class",
        "test_per_class",
        "classes",
        "dim",
        "separation",
        "spread",
        "seed",
        "images",
        "labels",
        "test_images",
        "test_labels",
        "normalize",
    }
    _reject_unknown(section, "dataset", known)
    defaults = DatasetConfig()
    kind = section.get("kind", defaults.kind)
    if kind not in ("blobs", "idx"):
        raise ConfigError(f"dataset.kind must be 'blobs' or 'idx', not '{kind}'")
    cfg = DatasetConfig(
        kind=kind,
        n_per_class=_coerce_int(section.get("n_per_class", defaults.n_per_class), "dataset.n_per_class"),
        test_per_class=_coerce_int(
            section.get("test_per_class", defaults.test_per_class), "dataset.test_per_class"
        ),
        classes=_coerce_int(section.get("classes", defaults.classes), "dataset.classes"),
        dim=_coerce_int(section.get("dim", defaults.dim), "dataset.dim"),
        separation=_coerce_float(section.get("separation", defaults.separation), "dataset.separation"),
        spread=_coerce_float(section.get("spread", defaults.spread), "dataset.spread"),
        seed=_coerce_int(section.get("seed", defaults.seed), "dataset.seed"),
        images=section.get("images"),
        labels=section.get("labels"),
        test_images=section.get("test_images"),
        test_labels=section.get("test_labels"),
        normalize=bool(section.get("normalize", defaults.normalize)),
    )
    if cfg.kind == "blobs":
        if cfg.n_per_class < 1 or cfg.test_per_class < 1:
            raise ConfigError("dataset.n_per_class and dataset.test_per_class must be positive")
        if cfg.classes < 2:
            raise ConfigError("dataset.classes must be at least 2")
        if cfg.dim < 1:
            raise ConfigError("dataset.dim must be at least 1")
        if cfg.separation <= 0 or cfg.spread <= 0:
            raise ConfigError("dataset.separation and dataset.spread must be positive")
    else:
        for key in ("images", "labels", "test_images", "test_labels"):
            if not section.get(key):
                raise ConfigError(f"dataset.{key} is required when dataset.kind is 'idx'")
    return cfg


def _build_noise(raw: dict) -> NoiseSpec:
    section = _section(raw, "noise")
    _reject_unknown(section, "noise", {"kind", "epsilon", "epsilon1", "epsilon2"})
    kind = section.get("kind", "pair")
    epsilon = section.get("epsilon")
    if epsilon is None and kind in ("pair", "symmetry"):
        epsilon = 0.0  # omitting the noise section means clean labels
    try:
        return NoiseSpec(
            kind=kind,
            epsilon=epsilon,
            epsilon1=section.get("epsilon1"),
            epsilon2=section.get("epsilon2"),
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _build_criteria(section: dict) -> CriteriaConfig:
    _reject_unknown(section, "train.criteria", {"variant", "lambda"})
    defaults = CriteriaConfig()
    try:
        return CriteriaConfig(
            variant=Variant(section.get("variant", defaults.variant)),
            lam=_coerce_float(section.get("lambda", defaults.lam), "train.criteria.lambda"),
        )
    except ValueError as exc:
        raise ConfigError(f"train.criteria: {exc}") from exc


def _build_sl(section: dict) -> SlConfig:
    _reject_unknown(section, "train.sl", {"alpha", "beta", "log_zero_clamp"})
    defaults = SlConfig()
    try:
        return SlConfig(
            alpha=_coerce_float(section.get("alpha", defaults.alpha), "train.sl.alpha"),
            beta=_coerce_float(section.get("beta", defaults.beta), "train.sl.beta"),
            log_zero_clamp=_coerce_float(
                section.get("log_zero_clamp", defaults.log_zero_clamp), "train.sl.log_zero_clamp"
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"train.sl: {exc}") from exc


def _build_train(raw: dict) -> TrainConfig:
    section = _section(raw, "train")
    known = {
        "epochs",
        "warmup_epochs",
        "batch_size",
        "select_fraction",
        "hidden",
        "learning_rate",
        "lr_milestones",
        "momentum",
        "criteria",
        "penalty_update",
        "loss",
        "sl",
        "seed",
    }
    _reject_unknown(section, "train", known)
    defaults = TrainConfig()
    criteria = _build_criteria(section.get("criteria") or {})
    sl = _build_sl(section.get("sl") or {})
    select_fraction = section.get("select_fraction", defaults.select_fraction)
    if select_fraction is not None:
        select_fraction = _coerce_float(select_fraction, "train.select_fraction")
    hidden = section.get("hidden", list(defaults.hidden))
    if not isinstance(hidden, (list, tuple)):
        raise ConfigError("train.hidden must be a list of widths")
    milestones = section.get("lr_milestones", [list(m) for m in defaults.lr_milestones])
    if not isinstance(milestones, (list, tuple)) or any(
        not isinstance(m, (list, tuple)) or len(m) != 2 for m in milestones
    ):
        raise ConfigError("train.lr_milestones must be a list of [epoch, factor] pairs")
    try:
        return TrainConfig(
            epochs=_coerce_int(section.get("epochs", defaults.epochs), "train.epochs"),
            warmup_epochs=_coerce_int(
                section.get("warmup_epochs", defaults.warmup_epochs), "train.warmup_epochs"
            ),
            batch_size=_coerce_int(section.get("batch_size", defaults.batch_size), "train.batch_size"),
            select_fraction=select_fraction,
            hidden=tuple(_coerce_int(h, "train.hidden") for h in hidden),
            learning_rate=_coerce_float(
                section.get("learning_rate", defaults.learning_rate), "train.learning_rate"
            ),
            lr_milestones=tuple(
                (_coerce_int(e, "train.lr_milestones"), _coerce_float(m, "train.lr_milestones"))
                for e, m in milestones
            ),
            momentum=_coerce_float(section.get("momentum", defaults.momentum), "train.momentum"),
            criteria=criteria,
            penalty_update=PenaltyUpdate(section.get("penalty_update", defaults.penalty_update)),
            loss=LossKind(section.get("loss", defaults.loss)),
            sl=sl,
            seed=_coerce_int(section.get("seed", defaults.seed), "train.seed"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc


def _build_output(raw: dict) -> OutputConfig:
    section = _section(raw, "output")
    _reject_unknown(section, "output", {"dir", "formats", "dump_penalty_labels"})
    formats = section.get("formats", list(KNOWN_FORMATS))
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigError("output.formats must be a non-empty list")
    for fmt in formats:
        if fmt not in KNOWN_FORMATS:
            raise ConfigError(f"output.formats entry '{fmt}' is not one of {KNOWN_FORMATS}")
    return OutputConfig(
        directory=section.get("dir"),
        formats=tuple(formats),
        dump_penalty_labels=bool(section.get("dump_penalty_labels", False)),
    )


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into a typed experiment config."""
    known = {"dataset", "noise", "train", "output", "seeds", "trials"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {key}")
    seeds = raw.get("seeds", [1])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    seeds = tuple(_coerce_int(s, "seeds") for s in seeds)
    if "trials" in raw:
        trials = _coerce_int(raw["trials"], "trials")
        if trials != len(seeds):
            raise ConfigError(f"trials ({trials}) must equal the number of seeds ({len(seeds)})")
    return ExperimentConfig(
        dataset=_build_dataset(raw),
        noise=_build_noise(raw),
        train=_build_train(raw),
        output=_build_output(raw),
        seeds=seeds,
    )


def make_datasets(cfg: DatasetConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Build the clean train/test pair described by the dataset section.

    Blob train and test sets come from disjoint seed streams of the dataset
    seed, so they are independent draws around the same centers. IDX train
    and test sets share one class count, 1 + the largest label in either
    file, so a class missing from one file still gets its head column.
    """
    if cfg.kind == "blobs":
        train = make_blobs(
            cfg.n_per_class, cfg.classes, cfg.dim, cfg.separation, cfg.spread, (cfg.seed, 0)
        )
        test = make_blobs(
            cfg.test_per_class, cfg.classes, cfg.dim, cfg.separation, cfg.spread, (cfg.seed, 1)
        )
        return train, test
    train = load_idx(cfg.images, cfg.labels, cfg.normalize)
    test = load_idx(cfg.test_images, cfg.test_labels, cfg.normalize)
    k = max(train.k, test.k)
    return replace(train, k=k), replace(test, k=k)

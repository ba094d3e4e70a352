"""Experiment configuration: YAML file, dotted overrides, validation.

One YAML file describes a whole experiment: the dataset, the noise, the
training recipe, and which outputs to write. Command-line overrides address
any key by dotted path, for example ``train.criteria.lambda=0.5``. The keys
and their value types are the fields of the config dataclasses, and the
dataclasses check their own ranges.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import yaml

from .data import DatasetConfig
from .noise import NoiseSpec
from .trainer import TrainConfig


class ConfigParseError(ValueError):
    """The config file or an override could not be read at all."""


class ConfigError(ValueError):
    """The config parsed but describes an invalid experiment."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key written twice in one mapping; a ``<<`` merge may be overridden."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        seen: list = []  # a list, so an unhashable key reaches SafeLoader's own error
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                if (key := self.construct_object(key_node, deep)) in seen:
                    raise yaml.MarkedYAMLError(None, None, f"key {key!r} repeats", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)


# YAML 1.2 reads an exponent without a dot, such as 1e-3, as a float; YAML 1.1 reads a string.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def load_raw_config(path: str | Path) -> dict:
    """Read a YAML mapping; parse trouble raises ConfigParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
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
            value = yaml.load(value_text, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigParseError(f"override value '{value_text}' is not valid YAML: {exc}") from exc
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
class OutputConfig:
    dump_penalty_labels: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seeds: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be a non-empty list of non-negative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must not repeat: a repeated seed reruns the same trial")


# YAML keys that differ from their field names.
_YAML_KEY = {"lam": "lambda"}
# Library-only fields: execute sets the run seed from each entry of ``seeds``.
_NOT_YAML = {"train.seed"}
_TYPE_NOUNS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _convert(value: Any, hint: Any, where: str) -> Any:
    """Check one YAML value against a field's type hint and convert it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _convert(value, hint, where)
    if is_dataclass(hint):
        return _build(hint, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(hints):
            raise ConfigError(f"{where} must be a list of {len(hints)} items")
        return tuple(_convert(v, h, f"{where}[{i}]") for i, (v, h) in enumerate(zip(value, hints)))
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            valid = ", ".join(member.value for member in hint)
            raise ConfigError(f"{where} must be one of {valid}") from None
    # bool subclasses int, so YAML true/false is kept out of numeric fields;
    # YAML .nan and .inf are floats and YAML integers are unbounded, so a float
    # field also checks that the value is finite and within the float range
    accepted = (int, float) if hint is float else hint
    ok = isinstance(value, accepted) and isinstance(value, bool) == (hint is bool)
    if not ok or (hint is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be {_TYPE_NOUNS[hint]}")
    return float(value) if hint is float else value


def _build(cls: type, section: Any, where: str) -> Any:
    """Construct a config dataclass from its YAML mapping.

    The keys are the dataclass fields, each value is checked and converted
    by its field's type hint, and the dataclass's ``__post_init__`` does the
    range checks; its ValueError becomes a ConfigError naming the section.
    """
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    hints = get_type_hints(cls)
    names = {_YAML_KEY.get(f.name, f.name): f.name for f in fields(cls)}
    kwargs = {}
    for key, value in section.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in names or path in _NOT_YAML:
            raise ConfigError(f"unknown key {path}")
        kwargs[names[key]] = _convert(value, hints[names[key]], path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into a typed experiment config."""
    return _build(ExperimentConfig, raw, "")


"""Command-line harness: run experiments and write metrics files.

Commands:

* ``run``: execute the configured experiment over its seed list.
* ``sweep-lambda``: repeat the experiment for each penalty weight.
* ``compare``: cartesian product of selection variants and penalty update
  strategies, shared seeds and shared corruption.

All commands write ``metrics.csv`` and/or ``summary.json`` into the output
directory. Those files carry no timestamps, so reruns with the same config
produce byte-identical bodies; wall-clock times go to ``run.log`` instead.

Each expected failure prints one line ``error[CODE]: message`` to stderr and
exits nonzero: 2 usage, 3 config parse, 4 invalid config or data, 5 numerical
fault. Anything else is a program error and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from enum import EnumMeta
from pathlib import Path
from typing import Any, Callable

from .config import (
    OUTPUT_DIR_ENV,
    ConfigError,
    ConfigParseError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_raw_config,
    make_datasets,
)
from .metrics import summarize_runs, write_metrics_csv, write_summary_json
from .network import NumericalFault
from .noise import check_class_count
from .trainer import PenaltyUpdate, RunResult, TrainConfig, Variant, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG_PARSE = 3
EXIT_CONFIG_INVALID = 4
EXIT_NUMERICAL_FAULT = 5


class UsageError(ValueError):
    pass


def _fail(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Train small classifiers under label noise with sample selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key by dotted path (repeatable)",
        )
        p.add_argument("--out", help="output directory (default: config, then $" + OUTPUT_DIR_ENV + ")")
        p.add_argument("--seeds", help="comma-separated seed list overriding the config")

    run_p = sub.add_parser("run", help="run the configured experiment")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep-lambda", help="repeat the experiment per penalty weight")
    add_common(sweep_p)
    sweep_p.add_argument("--lambdas", required=True, help="comma-separated penalty weights")

    cmp_p = sub.add_parser("compare", help="cross selection variants with update strategies")
    add_common(cmp_p)
    cmp_p.add_argument("--variants", help="comma-separated variants (none, ol, pl, all)")
    cmp_p.add_argument("--strategies", help="comma-separated strategies (stacked, repredict)")
    return parser


def _lambda(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails this too
        raise ValueError("lambda values must be finite and non-negative")
    return value


def _parse_list(text: str, parse: Callable[[str], Any], noun: str) -> tuple:
    """Parse a comma-separated flag value item by item; any failure is a usage error.

    For an Enum ``parse`` the message lists the valid values.
    """
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise UsageError(f"{noun} list is empty")
    try:
        return tuple(parse(item) for item in items)
    except ValueError as exc:
        reason = str(exc)
        if isinstance(parse, EnumMeta):
            reason = "valid: " + ", ".join(m.value for m in parse)
        raise UsageError(f"bad {noun} list '{text}' ({reason})") from None


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = load_raw_config(args.config)
    raw = apply_overrides(raw, args.set)
    if args.seeds is not None:
        raw["seeds"] = list(_parse_list(args.seeds, int, "seed"))
    return build_config(raw)


def _output_dir(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    if args.out:
        return Path(args.out)
    if config.output.directory:
        return Path(config.output.directory)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "results"))


def _plan(args: argparse.Namespace, config: ExperimentConfig) -> list[tuple[str, TrainConfig]]:
    """Expand a command into (run_id, train config) combos."""
    base = config.train
    if args.command == "run":
        run_id = f"{base.criteria.variant.value}-{base.penalty_update.value}-lam{base.criteria.lam!r}"
        return [(run_id, base)]
    if args.command == "sweep-lambda":
        combos = []
        for lam in _parse_list(args.lambdas, _lambda, "lambda"):
            cfg = replace(base, criteria=replace(base.criteria, lam=lam))
            combos.append((f"{cfg.criteria.variant.value}-lam{lam!r}", cfg))
        return combos
    variants, strategies = (base.criteria.variant,), (base.penalty_update,)
    if args.variants:
        variants = _parse_list(args.variants, Variant, "variant")
    if args.strategies:
        strategies = _parse_list(args.strategies, PenaltyUpdate, "strategy")
    combos = []
    for variant in variants:
        for strategy in strategies:
            cfg = replace(
                base, criteria=replace(base.criteria, variant=variant), penalty_update=strategy
            )
            combos.append((f"{variant.value}-{strategy.value}", cfg))
    return combos


def _dump_penalty_labels(out_dir: Path, run_id: str, seed: int, result: RunResult) -> None:
    sub = out_dir / "penalty_labels"
    sub.mkdir(parents=True, exist_ok=True)
    for estimate in result.penalty_history:
        rows = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in estimate.labels
        )
        path = sub / f"{run_id}-seed{seed}-epoch{estimate.epoch_of_estimate:03d}.csv"
        path.write_text(rows + "\n", encoding="utf-8", newline="\n")


def execute(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    plan = _plan(args, config)
    train_clean, test = make_datasets(config.dataset)
    try:
        check_class_count(config.noise, train_clean.k)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    out_dir = _output_dir(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    log_lines = []
    for run_id, train_cfg in plan:
        for seed in config.seeds:
            cfg = replace(train_cfg, seed=seed)
            started = time.perf_counter()
            result = run_experiment(cfg, train_clean, test, config.noise)
            elapsed = time.perf_counter() - started
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            log_lines.append(f"{stamp} {run_id} seed={seed} epochs={cfg.epochs} {elapsed:.2f}s")
            runs.append((run_id, list(result.records)))
            if config.output.dump_penalty_labels:
                _dump_penalty_labels(out_dir, run_id, seed, result)

    if "csv" in config.output.formats:
        write_metrics_csv(out_dir / "metrics.csv", runs)
    if "json" in config.output.formats:
        write_summary_json(out_dir / "summary.json", summarize_runs(runs))
    (out_dir / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8", newline="\n")
    return out_dir


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        execute(args, config)
    except UsageError as exc:
        _fail("USAGE", str(exc))
        return EXIT_USAGE
    except ConfigParseError as exc:
        _fail("CONFIG_PARSE", str(exc))
        return EXIT_CONFIG_PARSE
    except ConfigError as exc:
        _fail("CONFIG_INVALID", str(exc))
        return EXIT_CONFIG_INVALID
    except NumericalFault as exc:
        _fail("NUMERICAL_FAULT", str(exc))
        return EXIT_NUMERICAL_FAULT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

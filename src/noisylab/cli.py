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
import contextlib
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from enum import EnumMeta
from itertools import product
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
from .trainer import CriteriaConfig, PenaltyUpdate, RunResult, TrainConfig, Variant, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG_PARSE = 3
EXIT_CONFIG_INVALID = 4
EXIT_NUMERICAL_FAULT = 5


class UsageError(ValueError):
    pass


# The expected failures: exception -> (code in the stderr line, exit status).
_FAILURES = {
    UsageError: ("USAGE", EXIT_USAGE),
    ConfigParseError: ("CONFIG_PARSE", EXIT_CONFIG_PARSE),
    ConfigError: ("CONFIG_INVALID", EXIT_CONFIG_INVALID),
    NumericalFault: ("NUMERICAL_FAULT", EXIT_NUMERICAL_FAULT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Train small classifiers under label noise with sample selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run_id: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        # _plan fills run_id per combo; flags a command lacks keep the config's value
        p.set_defaults(run_id=run_id, variants=None, strategies=None, lambdas=None)
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
        return p

    add_command("run", "{v}-{s}-lam{lam!r}", "run the configured experiment")
    sweep_p = add_command("sweep-lambda", "{v}-lam{lam!r}", "repeat the experiment per penalty weight")
    sweep_p.add_argument("--lambdas", required=True, help="comma-separated penalty weights")

    cmp_p = add_command("compare", "{v}-{s}", "cross selection variants with update strategies")
    cmp_p.add_argument("--variants", help="comma-separated variants (none, ol, pl, all)")
    cmp_p.add_argument("--strategies", help="comma-separated strategies (stacked, repredict)")
    return parser


def _lambda(text: str) -> float:
    return CriteriaConfig(lam=float(text)).lam  # CriteriaConfig owns the range check


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
    """Expand a command into (run_id, train config) combos: variants x strategies x lambdas.

    An absent or empty ``--variants``/``--strategies`` means the configured value;
    a repeated list item is a usage error, since it would rerun one combo.
    """
    base = config.train
    variants = _parse_list(args.variants, Variant, "variant") if args.variants else (base.criteria.variant,)
    strategies = (
        _parse_list(args.strategies, PenaltyUpdate, "strategy") if args.strategies else (base.penalty_update,)
    )
    lambdas = (base.criteria.lam,) if args.lambdas is None else _parse_list(args.lambdas, _lambda, "lambda")
    plan = [
        (
            args.run_id.format(v=variant.value, s=strategy.value, lam=lam),
            replace(base, criteria=replace(base.criteria, variant=variant, lam=lam), penalty_update=strategy),
        )
        for variant, strategy, lam in product(variants, strategies, lambdas)
    ]
    run_ids = [run_id for run_id, _ in plan]
    if len(set(run_ids)) < len(run_ids):
        raise UsageError(f"a list item repeats, so the plan {', '.join(run_ids)} runs one combo twice")
    return plan


def _dump_penalty_labels(out_dir: Path, run_id: str, seed: int, result: RunResult) -> None:
    sub = out_dir / "penalty_labels"
    sub.mkdir(parents=True, exist_ok=True)
    for estimate in result.penalty_history:
        rows = "\n".join(",".join(map(repr, row)) for row in estimate.labels.tolist())
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
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    log_lines = []
    try:
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
    finally:
        # a failing run still leaves the files of the runs that finished before it
        if runs:
            if "csv" in config.output.formats:
                write_metrics_csv(out_dir / "metrics.csv", runs)
            if "json" in config.output.formats:
                write_summary_json(out_dir / "summary.json", summarize_runs(runs))
            (out_dir / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8", newline="\n")
        else:  # no run finished, so no file was written: remove the directories made above
            with contextlib.suppress(OSError):  # stop at one another command has written to
                for path in created:
                    path.rmdir()
    return out_dir


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        execute(args, _load_config(args))
    except tuple(_FAILURES) as exc:
        code, status = _FAILURES[type(exc)]
        # one line per failure, even for a multi-line parser report
        print(f"error[{code}]: " + str(exc).replace("\n", " "), file=sys.stderr)
        return status
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: run experiments and write metrics files.

Commands:

* ``run``: execute the configured experiment over its seed list.
* ``sweep-lambda``: repeat the experiment for each penalty weight.
* ``compare``: cartesian product of selection variants and penalty update
  strategies, shared seeds and shared corruption.

All commands write ``metrics.csv``, ``summary.json`` and ``run.log`` into the
output directory. The first two carry no timestamps, so reruns with the same
config produce byte-identical bodies; wall-clock times go to ``run.log``.

Each expected failure prints one line ``error[CODE]: message`` to stderr and
exits nonzero: 2 usage, 3 config parse, 4 invalid config or data, 5 numerical
fault. Anything else is a program error and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timezone
from enum import EnumMeta
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import (
    ConfigError,
    ConfigParseError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_raw_config,
)
from .data import make_datasets
from .metrics import summarize_runs, write_metrics_csv, write_summary_json
from .network import NumericalFault
from .noise import SYMMETRY_WARN_ABOVE, build_transition
from .trainer import CriteriaConfig, EpochCache, PenaltyUpdate, TrainConfig, Variant, deal, run_experiment

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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's own usage errors keep the one-line error contract too
        self.exit(EXIT_USAGE, f"error[USAGE]: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--out", help="output directory (default: ./results)")
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


def _trainer_count() -> tuple[int, int]:
    """The BLAS thread teams the CPUs hold and the threads of one team, for ``deal``; unpinned, one team of all."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1  # not on macOS
    values = (os.environ.get(v, "").strip() for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    blas_threads = next((int(v) for v in values if v.isdigit() and int(v) > 0), cpus)  # in OpenBLAS's order
    return max(1, cpus // blas_threads), blas_threads


def _train(share: list[int], plan: list[TrainConfig], inputs: tuple):
    """Train ``share``'s plan indices through their own EpochCache; yield (elapsed, outcome) up to a fault."""
    cache = EpochCache([plan[index] for index in share], *inputs)  # made in the process that trains them
    for index in share:
        started = time.perf_counter()
        try:
            outcome = run_experiment(plan[index], *inputs, cache)
        except Exception as exc:
            outcome = exc
        yield time.perf_counter() - started, outcome
        if isinstance(outcome, Exception):
            return


def _send(queue, runs) -> None:
    from multiprocessing.pool import ExceptionWithTraceback  # only helpers send, so only they pay for the import
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # so terminate() ends a helper at once, with no exit-time join
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the whole process group; the command ends helpers
    queue._reader.close()  # the command's death is then a broken pipe here, not a full one written to forever
    for elapsed, outcome in runs:
        if isinstance(outcome, Exception):  # it unpickles as the exception, the helper's traceback as its cause
            outcome = ExceptionWithTraceback(outcome, outcome.__traceback__)
        queue.put((elapsed, outcome))  # the queue's feeder thread writes it, so a helper never waits


def _receive(queue, helper):
    """Yield ``helper``'s (elapsed, outcome) pairs in its plan order; its exit before the awaited run is an error."""
    try:  # the helper holds the queue's only write end, so its exit ends a read, even one part-way through a run
        yield from iter(queue.get, None)  # one blocking read per run, as no run is None
    except (EOFError, OSError):
        helper.join()
        raise RuntimeError(f"helper exited with code {helper.exitcode} before sending its run") from None


def run_plan(plan: list[TrainConfig], train, test, spec):
    """Train ``plan`` in ``deal``'s shares, a forked helper per share past the first; yield (elapsed, result) per run.

    Runs come in plan order, each equal to the run alone; the first to fail is raised. Closing joins the helpers.
    """
    inputs = (train, test, spec)
    shares = deal(plan, *_trainer_count())
    ctx = multiprocessing.get_context("fork")  # helpers inherit the data and plan unpickled
    helpers = []
    runs = {}  # plan index -> the (elapsed, outcome) pairs of its trainer, in plan order
    try:
        for share in shares[1:]:
            queue = ctx.Queue()  # one per helper, which sends its share in plan order
            helper = ctx.Process(target=_send, args=(queue, _train(share, plan, inputs)))
            helper.start()
            queue._writer.close()  # before the next fork, so the helper's exit is the end of its queue
            helpers.append(helper)
            runs.update(dict.fromkeys(share, _receive(queue, helper)))
        own = _train(shares[0], plan, inputs)  # trainer 0 is this process: beside helpers, it trains its share first
        runs.update(dict.fromkeys(shares[0], iter(list(own)) if helpers else own))
        for index in range(len(plan)):
            elapsed, result = next(runs[index])
            if isinstance(result, Exception):  # the first failing run in plan order ends the plan
                raise result
            yield elapsed, result
    finally:
        for helper in helpers:  # terminate first: a helper may block on a pipe no one reads now
            helper.terminate()
            helper.join()


def execute(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    if args.out == "":  # else an unset shell variable would send the outputs to ./results
        raise UsageError("--out is empty: name an output directory, or leave the flag out for ./results")
    plan = [(run_id, replace(cfg, seed=seed)) for run_id, cfg in _plan(args, config) for seed in config.seeds]
    try:
        train_clean, test = make_datasets(config.dataset)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    try:
        build_transition(config.noise, train_clean.k)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    out_dir = Path(args.out or "results")  # made when the first file is written
    deepest = out_dir / "penalty_labels" if config.output.dump_penalty_labels else out_dir
    nearest = next(p for p in (deepest, *deepest.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output: {nearest} is a file, not a directory")
    if config.noise.exceeds_tested_range:
        print(f"warning: symmetric noise rate {config.noise.epsilon} is above {SYMMETRY_WARN_ABOVE}, "
              "outside the tested range", file=sys.stderr)
    runs, log_lines = [], []
    try:  # the runner is closed as soon as filing fails, so no helper trains on while the error propagates
        with closing(run_plan([cfg for _, cfg in plan], train_clean, test, config.noise)) as results:
            for (run_id, cfg), (elapsed, result) in zip(plan, results):
                stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
                counts = f"seed={cfg.seed} epochs={cfg.epochs} replayed={result.replayed}"
                log_lines.append(f"{stamp} {run_id} {counts} {elapsed:.2f}s")
                runs.append(((run_id, cfg.seed, cfg.criteria.variant.value, cfg.criteria.lam), result.records))
                if config.output.dump_penalty_labels:  # row e of the array is the estimate made at the end of epoch e
                    (out_dir / "penalty_labels").mkdir(parents=True, exist_ok=True)
                    history = np.stack([estimate.labels for estimate in result.penalty_history])
                    np.save(out_dir / "penalty_labels" / f"{run_id}-seed{cfg.seed}.npy", history)
    finally:
        # a failing run still leaves the files of the runs that finished before it
        if runs:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_metrics_csv(out_dir / "metrics.csv", runs)
            write_summary_json(out_dir / "summary.json", summarize_runs(runs))
            (out_dir / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8", newline="\n")
    return out_dir


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    on_main_thread = threading.current_thread() is threading.main_thread()  # only it may set a signal handler
    stops = (signal.SIGTERM, signal.SIGINT) if on_main_thread else ()  # as SystemExit, so execute files finished runs
    previous = [signal.signal(sig, lambda signum, frame: sys.exit(128 + signum)) for sig in stops]
    try:
        execute(args, _load_config(args))
    except tuple(_FAILURES) as exc:
        code, status = _FAILURES[type(exc)]
        # one line per failure, even for a multi-line parser report
        print(f"error[{code}]: " + str(exc).replace("\n", " "), file=sys.stderr)
        return status
    finally:
        for sig, handler in zip(stops, previous):
            signal.signal(sig, handler)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Span wrappers around noisylab's layer boundaries, installed from outside.

Each span is named ``<module>.<function>`` after the layer that does the work.
The wrapper replaces the attribute that the caller looks up: a module-level
name imported by its caller (``noisylab.trainer.estimate_penalty_labels``) or
a method on its class (``noisylab.network.Mlp.backward``). Spans are kept in
memory as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path


def _rows(args, result) -> dict[str, int]:
    return {"rows": len(args[1])}


def _selection(args, result) -> dict[str, int]:
    return {"scored": len(args[0]), "kept": len(result.selected_indices)}


def _bytes_written(args, result) -> dict[str, int]:
    return {"bytes_written": sum(p.stat().st_size for p in Path(result).rglob("*") if p.is_file())}


# (span name, module whose attribute the caller looks up, attribute path, counter)
SPANS = (
    ("cli.execute", "noisylab.cli", "execute", _bytes_written),
    ("config.build_config", "noisylab.cli", "build_config", None),
    ("data.make_datasets", "noisylab.cli", "make_datasets", None),
    ("data.epoch_batches", "noisylab.trainer", "epoch_batches", None),
    ("noise.corrupt_labels", "noisylab.trainer", "corrupt_labels", None),
    ("network.Mlp.confidences", "noisylab.network", "Mlp.confidences", _rows),
    ("network.Mlp.backward", "noisylab.network", "Mlp.backward", _rows),
    ("network.MomentumSgd.step", "noisylab.network", "MomentumSgd.step", None),
    (
        "criteria.ConfidenceAccumulator.stack_confidences",
        "noisylab.criteria",
        "ConfidenceAccumulator.stack_confidences",
        None,
    ),
    ("criteria.estimate_penalty_labels", "noisylab.trainer", "estimate_penalty_labels", None),
    ("trainer.run_experiment", "noisylab.cli", "run_experiment", None),
    ("trainer.train_epoch", "noisylab.trainer", "train_epoch", None),
    ("trainer.batch_scores", "noisylab.trainer", "batch_scores", None),
    ("trainer.select_top_r", "noisylab.trainer", "select_top_r", _selection),
    ("trainer.predict_in_chunks", "noisylab.trainer", "predict_in_chunks", None),
    ("metrics.test_error", "noisylab.trainer", "test_error", None),
    ("metrics.write_metrics_csv", "noisylab.cli", "write_metrics_csv", None),
    ("metrics.write_summary_json", "noisylab.cli", "write_summary_json", None),
)
SPAN_NAMES = tuple(name for name, *_ in SPANS)


class Tracer:
    """Records nested spans and per-span counters for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name_index: int, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        prefix = SPAN_NAMES[name_index] + "."
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[prefix + key] = counts.get(prefix + key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every attribute in SPANS; a missing one is an error."""
        for index, (_, module_name, path, counter) in enumerate(SPANS):
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(index, getattr(owner, attr), counter))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def summarize(dump: dict) -> dict[str, float]:
    """Per-span calls, total and self seconds, plus the counters.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it because spans nest on one thread.
    """
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for (name_index, start, end, _), inner in zip(spans, child_time):
        name = SPAN_NAMES[name_index]
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - inner
    counts = dump["counts"]
    out["network.Mlp.confidences.rows"] = counts.get("network.Mlp.confidences.rows", 0)
    out["network.Mlp.backward.rows"] = counts.get("network.Mlp.backward.rows", 0)
    scored = counts.get("trainer.select_top_r.scored", 0)
    out["trainer.select_top_r.kept_ratio"] = (
        counts.get("trainer.select_top_r.kept", 0) / scored if scored else 0.0
    )
    out["cli.execute.bytes_written"] = counts.get("cli.execute.bytes_written", 0)
    return out

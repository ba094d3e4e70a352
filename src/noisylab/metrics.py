"""Run records, evaluation metrics, and deterministic CSV/JSON writers.

Output files carry no timestamps; identical inputs give byte-identical
bodies. Floats are written with repr, the shortest round-trip form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class RunRecord:
    """Everything recorded about one epoch of one run."""

    epoch: int
    test_error: float
    precision: float | None
    train_selected: int
    selected_per_class: tuple[int, ...]
    lam: float
    seed: int
    variant: str


def test_error(predictions: np.ndarray, true_labels: np.ndarray) -> float:
    """One minus accuracy."""
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return 1.0 - float(np.mean(predictions == true_labels))


def selection_precision(selected_indices: np.ndarray, clean_mask: np.ndarray) -> float:
    """Fraction of the selected samples whose observed label is clean."""
    selected_indices = np.asarray(selected_indices, dtype=np.int64)
    if selected_indices.size == 0:
        raise ValueError("selection is empty")
    return float(np.mean(np.asarray(clean_mask, dtype=bool)[selected_indices]))


def mean_and_se(values: Sequence[float]) -> tuple[float, float | None]:
    """Mean and standard error (sample sd over sqrt of count).

    With a single value the spread is undefined, so the standard error comes
    back as None rather than zero.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metrics_header(k: int) -> list[str]:
    fixed = [
        "run_id",
        "seed",
        "variant",
        "lambda",
        "epoch",
        "train_selected",
        "precision",
        "test_error",
    ]
    return fixed + [f"selected_class_{c}" for c in range(k)]


def write_metrics_csv(path: str | Path, runs: Iterable[tuple[str, Sequence[RunRecord]]]) -> None:
    """Write all per-epoch records as one flat CSV.

    Rows are sorted by (run_id, seed, epoch) so the body is byte-identical
    across invocations with the same inputs. Dot decimal separator, LF line
    endings, header row first.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to write")
    k = len(runs[0][1][0].selected_per_class)
    lines = [",".join(metrics_header(k))]
    flat = [(run_id, rec) for run_id, records in runs for rec in records]
    flat.sort(key=lambda item: (item[0], item[1].seed, item[1].epoch))
    for run_id, rec in flat:
        cells = [
            run_id,
            rec.seed,
            rec.variant,
            rec.lam,
            rec.epoch,
            rec.train_selected,
            rec.precision,
            rec.test_error,
            *rec.selected_per_class,
        ]
        lines.append(",".join(_format_cell(c) for c in cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def summarize_runs(runs: Iterable[tuple[str, Sequence[RunRecord]]]) -> dict:
    """Best and final figures per run, plus per-run-id aggregates.

    The headline statistic is the best (minimum) test error over epochs.
    """
    per_run = []
    by_id: dict[str, list[float]] = {}
    meta: dict[str, tuple[str, float]] = {}
    for run_id, records in runs:
        best = min(r.test_error for r in records)
        final = records[-1]
        per_run.append(
            {
                "run_id": run_id,
                "seed": final.seed,
                "variant": final.variant,
                "lambda": final.lam,
                "best_test_error": best,
                "final_test_error": final.test_error,
                "final_precision": final.precision,
            }
        )
        by_id.setdefault(run_id, []).append(best)
        meta[run_id] = (final.variant, final.lam)
    per_run.sort(key=lambda r: (r["run_id"], r["seed"]))
    groups = []
    for run_id in sorted(by_id):
        mean, se = mean_and_se(by_id[run_id])
        variant, lam = meta[run_id]
        groups.append(
            {
                "run_id": run_id,
                "variant": variant,
                "lambda": lam,
                "trials": len(by_id[run_id]),
                "best_test_error_mean": mean,
                "best_test_error_se": se,
            }
        )
    return {"runs": per_run, "groups": groups}


def write_summary_json(path: str | Path, summary: dict) -> None:
    Path(path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )

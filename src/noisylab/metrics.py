"""Run records, evaluation metrics, and deterministic CSV/JSON writers.

Output files carry no timestamps; identical inputs give byte-identical
bodies. Floats are written with repr, the shortest round-trip form.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class EpochStats:
    """The selection tallies of one training epoch."""

    train_selected: int
    precision: float | None
    selected_per_class: tuple[int, ...]


@dataclass(frozen=True)
class RunRecord(EpochStats):
    """One epoch's tallies and test error; the runs that replay the epoch share it."""

    epoch: int
    test_error: float


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


_RECORD_COLUMNS = ("epoch", "train_selected", "precision", "test_error")  # in metrics.csv after the run's four
_record_cells = attrgetter(*_RECORD_COLUMNS)
Run = tuple[tuple[str, int, str, float], Sequence[RunRecord]]  # ((run_id, seed, variant, lambda), its records)


def metrics_header(k: int) -> list[str]:
    return ["run_id", "seed", "variant", "lambda", *_RECORD_COLUMNS, *(f"selected_class_{c}" for c in range(k))]


def write_metrics_csv(path: str | Path, runs: Iterable[Run]) -> None:
    """Write all per-epoch records as one flat CSV.

    Rows are sorted by (run_id, seed, epoch) so the body is byte-identical
    across invocations with the same inputs. Dot decimal separator, LF line
    endings, header row first. The csv module writes None as an empty cell
    and a float by its repr.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to write")
    flat = [(run, rec) for run, records in runs for rec in records]
    flat.sort(key=lambda item: (item[0][:2], item[1].epoch))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(metrics_header(len(runs[0][1][0].selected_per_class)))
        writer.writerows([*run, *_record_cells(rec), *rec.selected_per_class] for run, rec in flat)


def summarize_runs(runs: Iterable[Run]) -> dict:
    """Best and final figures per run, plus per-run-id aggregates.

    The headline statistic is the best (minimum) test error over epochs. A
    group aggregates its runs in input order, and takes its variant and
    lambda from the last of them.
    """
    per_run = []
    for (run_id, seed, variant, lam), records in runs:
        final = records[-1]
        per_run.append(
            {
                "run_id": run_id,
                "seed": seed,
                "variant": variant,
                "lambda": lam,
                "best_test_error": min(r.test_error for r in records),
                "final_test_error": final.test_error,
                "final_precision": final.precision,
            }
        )
    groups = []
    for run_id, rows in groupby(sorted(per_run, key=itemgetter("run_id")), itemgetter("run_id")):
        rows = list(rows)
        mean, se = mean_and_se([r["best_test_error"] for r in rows])
        groups.append(
            {
                "run_id": run_id,
                "variant": rows[-1]["variant"],
                "lambda": rows[-1]["lambda"],
                "trials": len(rows),
                "best_test_error_mean": mean,
                "best_test_error_se": se,
            }
        )
    per_run.sort(key=lambda r: (r["run_id"], r["seed"]))
    return {"runs": per_run, "groups": groups}


def write_summary_json(path: str | Path, summary: dict) -> None:
    Path(path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


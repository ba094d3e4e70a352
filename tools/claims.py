"""Print the paper-claim tables that one battery of desk-scale runs supports.

    python tools/claims.py [--only NAME]

The battery trains this checkout's ``src/`` on the desk data, the blobs of
``DatasetConfig()`` that the acceptance tests train on, with the default
``TrainConfig`` at seeds 1-21, one BLAS thread per process, through
``cli.run_plan``. Under pair noise 0.4 it trains ``none``, ``ol``, ``all``
and ``all`` with the repredict update; under symmetric noise 0.4, ``ol`` and
``all``. A lambda = 0 run is bit-equal to ``ol`` (acceptance test 06), so
lambda = 0 is read from ``ol``.

The tables, printed as markdown; ``--only NAME`` prints one and trains only
the runs it reads:

* ``desk-pair``: per pair-noise variant, the seed means of final precision,
  best and final test error, and the seeds on which ``all`` is better,
  tied and worse (W-T-L).
* ``acceptance-seeds``: the comparisons of acceptance tests 07-10 on the
  seven disjoint seed triples, a missed bound in bold. Per comparison, the
  triples that pass, the per-seed signs of the compared difference, and an
  exact two-sided sign test over those signs, ties dropped.
* ``sym-seeds``: per seed under symmetric noise, final precision, best and
  final error of ``ol`` and ``all``, and the last epoch's smallest kept
  class count over the median one, where a starved class shows.

Floats print with fixed digits and no wall clock is printed, so two runs,
and a run on one CPU or on several, print the same bytes. The default grid
takes about a minute on two cores.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # one BLAS thread per process, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from noisylab.cli import run_plan  # noqa: E402
from noisylab.config import DatasetConfig, make_datasets  # noqa: E402
from noisylab.noise import NoiseSpec  # noqa: E402
from noisylab.trainer import CriteriaConfig, PenaltyUpdate, RunResult, TrainConfig, Variant  # noqa: E402

SEEDS = tuple(range(1, 22))
EPSILON = 0.4
Runs = dict[str, list[RunResult]]  # run name -> its results, one per seed in order

# run name -> (noise kind, selection variant, penalty update)
RUNS = {
    "pair-none": ("pair", Variant.NONE, PenaltyUpdate.STACKED),
    "pair-ol": ("pair", Variant.OL, PenaltyUpdate.STACKED),
    "pair-all": ("pair", Variant.ALL, PenaltyUpdate.STACKED),
    "pair-all-repredict": ("pair", Variant.ALL, PenaltyUpdate.REPREDICT),
    "sym-ol": ("symmetry", Variant.OL, PenaltyUpdate.STACKED),
    "sym-all": ("symmetry", Variant.ALL, PenaltyUpdate.STACKED),
}


def train_battery(names: list[str]) -> Runs:
    """Train the named runs at every seed, one ``run_plan`` call per noise kind."""
    train, test = make_datasets(DatasetConfig())
    runs: Runs = {}
    for kind in dict.fromkeys(RUNS[name][0] for name in names):
        wanted = [name for name in names if RUNS[name][0] == kind]
        plan = [
            TrainConfig(criteria=CriteriaConfig(variant=RUNS[name][1]), penalty_update=RUNS[name][2], seed=seed)
            for name in wanted
            for seed in SEEDS
        ]
        results = [result for _, result in run_plan(plan, train, test, NoiseSpec(kind, EPSILON))]
        for i, name in enumerate(wanted):
            runs[name] = results[i * len(SEEDS) : (i + 1) * len(SEEDS)]
    return runs


def precision(result: RunResult) -> float:
    return result.final.precision


def best(result: RunResult) -> float:
    return result.best_test_error


def final(result: RunResult) -> float:
    return result.final.test_error


def mean(runs: Runs, name: str, metric: Callable[[RunResult], float], seeds: slice = slice(None)) -> float:
    return float(np.mean([metric(result) for result in runs[name][seeds]]))  # as the acceptance tests take it


def signs(runs: Runs, a: str, b: str, metric: Callable[[RunResult], float]) -> tuple[int, int, int]:
    """Seeds on which ``metric`` of run ``a`` is above, equal to and below that of run ``b``."""
    diffs = [metric(x) - metric(y) for x, y in zip(runs[a], runs[b])]
    return sum(d > 0 for d in diffs), sum(d == 0 for d in diffs), sum(d < 0 for d in diffs)


def sign_test(above: int, below: int) -> float:
    """Exact two-sided sign test: the chance of a split at least this uneven when both signs are equally likely."""
    n = above + below
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(above, below) + 1)) / 2**n)


def table(header: list[str], rows: list[list[str]]) -> str:
    lines = [header, ["---"] * len(header), *rows]
    return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)


def desk_pair(runs: Runs) -> str:
    rows = []
    for name in ("pair-none", "pair-ol", "pair-all", "pair-all-repredict"):
        cells = [f"`{name[5:]}`"]
        cells.append("-" if name == "pair-none" else f"{mean(runs, name, precision):.4f}")
        cells += [f"{mean(runs, name, best):.4f}", f"{mean(runs, name, final):.4f}"]
        if name == "pair-all":
            cells += ["-"] * 3
        else:
            cells.append("-" if name == "pair-none" else "{}-{}-{}".format(*signs(runs, "pair-all", name, precision)))
            cells += ["{2}-{1}-{0}".format(*signs(runs, "pair-all", name, metric)) for metric in (best, final)]
        rows.append(cells)
    header = ["pair 0.4", "final precision", "best error", "final error"]
    header += [f"`all` vs it, {column} (W-T-L)" for column in ("precision", "best", "final")]
    return table(header, rows)


# Acceptance tests 07-10 as (column, metric, run a, run b, bound): each holds if the triple mean of
# ``metric`` on run a minus that on run b meets the bound.
ACCEPTANCE = [
    ("07 precision `all` - `ol` (>= 0.10)", precision, "pair-all", "pair-ol", lambda gap: gap >= 0.10),
    ("07 best `ol` - `all` (>= 0)", best, "pair-ol", "pair-all", lambda gap: gap >= 0),
    (
        "08 symmetric precision `all` - `ol` (\\|.\\| <= 0.03)",
        precision, "sym-all", "sym-ol", lambda gap: abs(gap) <= 0.03,
    ),
    ("09 best repredict - stacked (>= 0)", best, "pair-all-repredict", "pair-all", lambda gap: gap >= 0),
    ("10 best lambda 0 - lambda 1 (> 0)", best, "pair-ol", "pair-all", lambda gap: gap > 0),
]


def acceptance_gaps(runs: Runs, seeds: slice) -> list[tuple[float, bool]]:
    """Each acceptance comparison on the seeds that ``seeds`` picks out: its gap and whether it meets its bound."""
    gaps = [mean(runs, a, metric, seeds) - mean(runs, b, metric, seeds) for _, metric, a, b, _ in ACCEPTANCE]
    return [(gap, bound(gap)) for gap, (*_, bound) in zip(gaps, ACCEPTANCE)]


def acceptance_seeds(runs: Runs) -> str:
    rows, passing = [], [0] * len(ACCEPTANCE)
    for first in range(0, len(SEEDS), 3):
        cells = [f"{SEEDS[first]}-{SEEDS[first + 2]}"]
        for i, (gap, ok) in enumerate(acceptance_gaps(runs, slice(first, first + 3))):
            passing[i] += ok
            cells.append(f"{gap:+.4f}" if ok else f"**{gap:+.4f}**")
        rows.append(cells)
    per_seed = [signs(runs, a, b, metric) for _, metric, a, b, _ in ACCEPTANCE]
    rows.append(["triples passing", *(f"{count} of {len(SEEDS) // 3}" for count in passing)])
    rows.append(["seeds > / = / < 0", *("{} / {} / {}".format(*counts) for counts in per_seed)])
    rows.append(["sign test p", *(f"{sign_test(above, below):.2e}" for above, _, below in per_seed)])
    return table(["seeds", *(spec[0] for spec in ACCEPTANCE)], rows)


def kept_ratio(result: RunResult) -> float:
    """The last epoch's smallest kept class count over the median one."""
    kept = result.final.selected_per_class
    return min(kept) / statistics.median(kept)


def sym_seeds(runs: Runs) -> str:
    metrics = (precision, best, final, kept_ratio)
    rows = [
        [str(seed), *(f"{metric(ol):.4f} / {metric(all_):.4f}" for metric in metrics)]
        for seed, ol, all_ in zip(SEEDS, runs["sym-ol"], runs["sym-all"])
    ]
    rows.append(["mean", *(f"{mean(runs, 'sym-ol', m):.4f} / {mean(runs, 'sym-all', m):.4f}" for m in metrics)])
    columns = ("final precision", "best error", "final error", "smallest / median kept class")
    return table(["symmetric 0.4, seed", *(f"{column} `ol` / `all`" for column in columns)], rows)


# table name -> (its printer, the runs it reads)
TABLES = {
    "desk-pair": (desk_pair, ["pair-none", "pair-ol", "pair-all", "pair-all-repredict"]),
    "acceptance-seeds": (acceptance_seeds, ["pair-ol", "pair-all", "pair-all-repredict", "sym-ol", "sym-all"]),
    "sym-seeds": (sym_seeds, ["sym-ol", "sym-all"]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Print the desk battery's paper-claim tables.")
    parser.add_argument("--only", choices=TABLES, help="print this table alone")
    only = parser.parse_args().only
    names = [only] if only else list(TABLES)
    runs = train_battery([run for run in RUNS if any(run in TABLES[name][1] for name in names)])
    print("\n\n".join(f"## {name}\n\n{TABLES[name][0](runs)}" for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())

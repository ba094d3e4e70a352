"""noisylab benchmark: time whole CLI invocations, check their outputs.

    python3 perfbench/run.py --workload pair40 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each invocation is one ``noisylab``
command in a child process (a closed loop with a single client): the next one
starts when the previous has exited, until ``--seconds`` is used up.

With ``--trace 0`` the children run untraced and the result holds the
end-to-end metrics. With ``--trace 1`` untraced and traced invocations
alternate; the result holds per-layer span metrics from the traced ones and
the tracing overhead. Every invocation's outputs are checked, and the last
line printed is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import idxgen
import spans

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # pinned in every child; at these shapes one thread is fastest and steadiest
DEADLINE_S = 170.0  # children still running this long after start are killed; the benchmark ends within 180 s
TEXT_COLUMNS = ("run_id", "variant")


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    runs: int  # seeds x combos in one invocation
    epochs: int
    steps_per_epoch: int  # ceil(n_train / batch_size)
    classes: int

    @property
    def steps(self) -> int:
        return self.runs * self.epochs * self.steps_per_epoch


WORKLOADS = {
    "pair40": Workload(
        ("run", "--config", "configs/pair40.yaml"),
        runs=3, epochs=100, steps_per_epoch=40, classes=10,
    ),
    "idx784": Workload(
        ("run", "--config", "perfbench/workloads/idx784.yaml"),
        runs=1, epochs=20, steps_per_epoch=47, classes=10,
    ),
    "k100-compare": Workload(
        (
            "compare", "--config", "perfbench/workloads/k100.yaml",
            "--variants", "ol,all", "--strategies", "stacked,repredict",
        ),
        runs=4, epochs=30, steps_per_epoch=47, classes=100,
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_test_error": "fraction",
    "final_precision": "fraction",
    "passed_runs": "fraction",
}


def workload_inputs(name: str, seed: int, work: Path) -> list[str]:
    """CLI overrides that feed the seed's inputs to the program.

    pair40 is the repository's headline config run as committed, so its
    inputs are the same for every seed and its outputs stay comparable.
    """
    if name == "idx784":
        data = work / "idx"
        data.mkdir()
        paths = idxgen.write_idx_quartet(data, seed, classes=10, train_per_class=600, test_per_class=100)
        return [f"--set=dataset.{key}={value}" for key, value in paths.items()]
    if name == "k100-compare":
        return [f"--set=dataset.seed={seed}"]
    return []


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    probe: dict
    out_dir: Path
    last_output: str  # the child's last line of output, shown when it fails


def invoke(cli_args: list[str], work: Path, index: int, traced: bool, limit_s: float) -> Invocation:
    """Run one CLI command in a child and wait for it; kill it past the limit."""
    out_dir = work / f"out{index}"
    probe_path = work / f"probe{index}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(probe_path)]
    argv += ["--trace"] if traced else []
    argv += ["--", *cli_args, "--out", str(out_dir)]
    log_path = work / f"child{index}.log"
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        probe = json.loads(probe_path.read_text())
    except (OSError, json.JSONDecodeError):  # the child died before writing it
        probe = {}
    setup_done = probe.get("setup_done")
    return Invocation(
        exit_code=proc.returncode,
        wall_s=ended - launched,
        setup_s=None if setup_done is None else setup_done - launched,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        probe=probe,
        out_dir=out_dir,
        last_output=(log_path.read_text(errors="replace").strip().splitlines() or [""])[-1],
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


@dataclass
class Check:
    """Verdict on one invocation's outputs."""

    failed_runs: int
    problems: list[str]
    hashes: tuple[str, str]
    best_test_error: float | None = None
    final_precision: float | None = None


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_outputs(inv: Invocation, wl: Workload) -> Check:
    """A run fails on a nonzero exit, a wrong row count, a non-finite cell,
    a missing summary entry, or a class-column count other than the
    workload's; problems that concern the whole file fail every run."""
    metrics_path, summary_path = inv.out_dir / "metrics.csv", inv.out_dir / "summary.json"
    hashes = (sha256(metrics_path), sha256(summary_path))
    problems: list[str] = []
    if inv.exit_code != 0:
        problems.append(f"exit code {inv.exit_code}: {inv.last_output}")
    if inv.setup_s is None:
        problems.append("make_datasets never returned")
    if not inv.probe.get("module", "").startswith(str(ROOT / "src")):
        problems.append(f"noisylab imported from {inv.probe.get('module')}, not this checkout")
    if problems or not metrics_path.exists() or not summary_path.exists():
        return Check(wl.runs, problems or ["metrics.csv or summary.json missing"], hashes)

    with open(metrics_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    summary = json.loads(summary_path.read_text(encoding="utf-8"))["runs"]
    class_columns = sum(1 for col in header if col.startswith("selected_class_"))
    if class_columns != wl.classes:
        return Check(wl.runs, [f"{class_columns} selected_class columns, expected {wl.classes}"], hashes)
    text_at = [header.index(col) for col in TEXT_COLUMNS]
    by_run: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        by_run.setdefault((row[0], row[header.index("seed")]), []).append(row)
    if len(by_run) > wl.runs:
        return Check(wl.runs, [f"{len(by_run)} runs in metrics.csv, expected {wl.runs}"], hashes)
    summarized = {(r["run_id"], str(r["seed"])) for r in summary}
    bad_runs = set()
    for key, run_rows in by_run.items():
        epochs = [row[header.index("epoch")] for row in run_rows]
        if epochs != [str(e) for e in range(wl.epochs)]:
            problems.append(f"run {key} has {len(epochs)} rows, expected epochs 0..{wl.epochs - 1}")
            bad_runs.add(key)
        cells = [c for row in run_rows for i, c in enumerate(row) if i not in text_at and c != ""]
        if not all(_is_finite_number(c) for c in cells) or any(len(r) != len(header) for r in run_rows):
            problems.append(f"run {key} has a non-finite or missing cell")
            bad_runs.add(key)
        if key not in summarized:
            problems.append(f"run {key} is missing from summary.json")
            bad_runs.add(key)
    missing = max(0, wl.runs - len(by_run))
    if missing:
        problems.append(f"{missing} runs missing from metrics.csv")
    precisions = [r["final_precision"] for r in summary if r["final_precision"] is not None]
    return Check(
        failed_runs=min(wl.runs, len(bad_runs) + missing),
        problems=problems,
        hashes=hashes,
        best_test_error=statistics.fmean(r["best_test_error"] for r in summary) if summary else None,
        final_precision=statistics.fmean(precisions) if precisions else None,
    )


def timing_line(name: str, unit: str, samples: list[float]) -> str:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    line = f"  {name:<58} median {statistics.median(ordered):.6g} {unit}"
    if n > 10:
        line += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
    else:
        line += ", no tail percentile (needs 11 samples)"
    return line + f", n={n}"


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def run_loop(cli_args: list[str], work: Path, seconds: float, started: float, traced_too: bool):
    """Closed loop: start the next invocation only if it fits in the time left.

    With ``traced_too`` untraced and traced invocations alternate, at least
    one of each. Yields (traced, invocation).
    """
    loop_start = time.monotonic()
    durations: list[float] = []
    index = 0
    while True:
        traced = traced_too and index % 2 == 1
        limit = DEADLINE_S - (time.monotonic() - started)
        inv = invoke(cli_args, work, index, traced, limit)
        durations.append(inv.wall_s)
        yield traced, inv
        index += 1
        elapsed = time.monotonic() - loop_start
        if traced_too and index < 2:
            continue
        if elapsed + statistics.median(durations) > seconds:
            return


def end_to_end_metrics(wl: Workload, untraced: list[tuple[Invocation, Check]], passed_runs: float) -> dict:
    walls = [inv.wall_s for inv, _ in untraced]
    setups = [inv.setup_s for inv, _ in untraced]
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "steps_per_s": [wl.steps / (wall - setup) for wall, setup in zip(walls, setups)],
        "peak_rss_mb": [inv.peak_rss_mb for inv, _ in untraced],
    }
    check = untraced[0][1]
    values = {name: statistics.median(values) for name, values in samples.items()}
    values.update(
        best_test_error=check.best_test_error, final_precision=check.final_precision, passed_runs=passed_runs
    )
    print("end-to-end:")
    for name, values_of in samples.items():
        print(timing_line(name, END_TO_END_UNITS[name], values_of))
    for name in ("best_test_error", "final_precision", "passed_runs"):
        print(f"  {name:<58} {values[name]!r} {END_TO_END_UNITS[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("kept_ratio"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def layer_metrics(traced: list[Invocation], untraced: list[Invocation]) -> dict:
    samples = [spans.summarize(inv.probe["trace"]) for inv in traced]
    layer = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
    # Per-call cost of each pass, the fixed-shape microbenchmark of the network layer.
    for name in ("network.Mlp.confidences", "network.Mlp.backward", "network.MomentumSgd.step"):
        layer[f"{name}.self_us_per_call"] = 1e6 * layer[f"{name}.self_s"] / layer[f"{name}.calls"]
    layer["trace.overhead_s"] = statistics.median(inv.wall_s for inv in traced) - statistics.median(
        inv.wall_s for inv in untraced
    )
    print(f"per-layer (median of {len(samples)} traced invocations):")
    out = {}
    for name, value in layer.items():
        unit = layer_unit(name)
        print(f"  {name:<58} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/noisylab/cli.py", "configs/pair40.yaml"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a noisylab checkout", file=sys.stderr)
            return 2

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Warm the bytecode and file caches, which users have after the first run.
        subprocess.run([sys.executable, "-c", "import noisylab.cli"], cwd=ROOT, env=child_env(), check=False)
        cli_args = [*wl.cli_args, *workload_inputs(args.workload, args.seed, work)]
        results = []
        for traced, inv in run_loop(cli_args, work, args.seconds, started, bool(args.trace)):
            results.append((traced, inv, check_outputs(inv, wl)))
            shutil.rmtree(inv.out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = wl.runs * len(results)
    failed = sum(check.failed_runs for _, _, check in results)
    hashes = {check.hashes for _, _, check in results}
    quality = {(check.best_test_error, check.final_precision) for _, _, check in results}
    verdicts = {
        "every run passed its output checks": failed == 0,
        "all invocations wrote byte-identical metrics.csv and summary.json": len(hashes) == 1,
        "best_test_error and final_precision repeat exactly": len(quality) == 1,
    }
    if args.trace:
        traced_hashes = {check.hashes for traced, _, check in results if traced}
        untraced_hashes = {check.hashes for traced, _, check in results if not traced}
        verdicts["traced outputs are byte-identical to untraced outputs"] = traced_hashes == untraced_hashes
    correct = all(verdicts.values())

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_record()}
    print(f"noisylab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  {wl.runs} runs x {wl.epochs} epochs x {wl.steps_per_epoch} steps = {wl.steps} SGD steps per invocation")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("correctness:")
    for name, ok in verdicts.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for _, inv, check in results:
        for problem in check.problems:
            print(f"        {inv.out_dir.name}: {problem}")
    print(f"  failed_runs {failed}/{attempted} = {failed / attempted:.6g} fraction")
    record["sha256"] = sorted(hashes)
    record["invocations"] = [
        {"traced": traced, "exit_code": inv.exit_code, "wall_s": inv.wall_s, "setup_s": inv.setup_s,
         "peak_rss_mb": inv.peak_rss_mb, "failed_runs": check.failed_runs}
        for traced, inv, check in results
    ]
    for metrics_hash, summary_hash in record["sha256"]:
        print(f"  sha256 metrics.csv {metrics_hash}  summary.json {summary_hash}")

    # Timings come only from invocations whose every run passed.
    passed = [(traced, inv, check) for traced, inv, check in results if check.failed_runs == 0]
    untraced = [(inv, check) for traced, inv, check in passed if not traced]
    traced_invs = [inv for traced, inv, _ in passed if traced]
    metrics: dict[str, dict] = {}
    if args.trace and untraced and traced_invs:
        metrics = layer_metrics(traced_invs, [inv for inv, _ in untraced])
    elif not args.trace and untraced:
        metrics = end_to_end_metrics(wl, untraced, 1.0 - failed / attempted)

    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

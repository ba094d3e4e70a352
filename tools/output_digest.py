"""Hash every output file of a fixed set of noisylab commands, then show how
a fixed set of failing commands fails.

    python tools/output_digest.py OUT_DIR

Runs each command in ``COMMANDS`` against this checkout's ``src/`` with one
BLAS thread, writing its outputs to ``OUT_DIR/<name>``, then prints
``sha256  path`` (path relative to OUT_DIR) for every output file except
``run.log``, which holds wall-clock times. The set covers every command, the
penalty-label dumps, all three noise families (``quick-mixed`` builds the mixed
matrix on blobs), unsorted seed lists, a dumping multi-seed compare whose
seeds train in parallel (on two or more CPUs a forked helper trains seed 1,
so runs arrive out of plan order), runs that share epochs (a shared warm-up
trained by a repredict run, no warm-up, all warm-up, and whole ol and pl runs
replayed across lambdas), the three benchmark workloads (idx784 on the IDX
quartet that ``perfbench/idxgen.py`` writes for seed 1) and ``idx784-dumps``,
idx784 on the same quartet with penalty-label dumps. Its 784-wide first layer
is where BLAS bits depend on the thread count, so the penalty arrays show a
change in the trained weights that ``metrics.csv`` can miss.

On two CPUs each seed of a three-seed command (``quick-seeds-3-1-2``,
``quick-sweep``, ``quick-compare-seeds-3-1-2`` and pair40) trains in its own
process, and a forked helper trains the second listed seed of
``quick-sweep-ol`` and ``quick-sweep-pl``. Of the one-seed compares, a helper
trains the ol and all runs of ``quick-compare-sl``, ``quick-compare-warmup-0``
and ``quick-compare-repredict-first`` (so the repredict-first warm-up is
trained in both processes) and all-repredict in ``k100-compare-10-epochs``,
and ``k100-compare`` trains each of its three chains in its own process. Only
``quick-dumps``, ``quick-mixed``, ``quick-compare-warmup-10`` (one chain, all
warm-up), idx784 and ``idx784-dumps`` train in one process. A run under ``taskset -c 0``
trains everything in one process and prints the same listing.

After the hashes it prints one line ``exit N  name  'stderr'`` per command of
``failing_commands``, which covers exit codes 2 to 5: bad flag lists, a
repeated list item, missing and malformed config files and overrides, a
config file that repeats a key, invalid values, an impossible noise kind, blob
keys under ``kind: idx``, a missing IDX file, one class of blobs
(``one-class-blobs``), an IDX quartet whose labels are all 0 (``one-class-idx``,
a dataset error since the dataset layer checks the IDX class count), a blob
draw that overflows, a diverging run, and an output path or a penalty-label
path that is a file. Their outputs go to a temporary
directory; in stderr that directory reads ``<tmp>`` and the checkout root
``<root>``, so two checkouts compare.

To check that a change keeps the outputs byte-identical, run the script in a
checkout of the change and in one of its parent (copy the script there if the
parent lacks it), then diff the two listings.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import idxgen  # noqa: E402  (perfbench/idxgen.py)
from run import WORKLOADS, child_env, workload_inputs  # noqa: E402  (perfbench/run.py)

BENCH_SEED = 1
QUICK = ("--config", "configs/quick.yaml")
DUMPS = ("--set", "output.dump_penalty_labels=true")
ALL_COMBOS = ("--variants", "none,ol,pl,all", "--strategies", "stacked,repredict")


def commands(inputs: Path) -> dict[str, tuple[str, ...]]:
    """Output subdirectory name -> CLI arguments; benchmark inputs go under ``inputs``."""
    bench = {
        name: (*WORKLOADS[name].cli_args, *workload_inputs(name, BENCH_SEED, inputs))
        for name in ("pair40", "idx784", "k100-compare")
    }
    return {
        "quick-dumps": ("run", *QUICK, *DUMPS),
        "quick-mixed": (
            "run", *QUICK, *DUMPS, "--set", "noise.kind=mixed", "--set", "noise.epsilon1=0.3",
            "--set", "noise.epsilon2=0.1",
        ),
        "quick-seeds-3-1-2": ("run", *QUICK, "--seeds", "3,1,2"),
        "quick-sweep": ("sweep-lambda", *QUICK, "--lambdas", "0,0.5,1,2", "--seeds", "2,3,1"),
        "quick-compare-seeds-3-1-2": (
            "compare", *QUICK, "--variants", "ol,all", "--strategies", "stacked,repredict", "--seeds", "3,1,2", *DUMPS
        ),
        "quick-compare-sl": ("compare", *QUICK, *ALL_COMBOS, "--set", "train.loss=sl", *DUMPS),
        # runs that share epochs: a repredict run trains the shared warm-up, no epoch is
        # shared before selection, every epoch is warm-up, whole ol and pl runs replay across lambdas
        "quick-compare-repredict-first": (
            "compare", *QUICK, "--variants", "none,ol,pl,all", "--strategies", "repredict,stacked", *DUMPS
        ),
        "quick-compare-warmup-0": ("compare", *QUICK, *ALL_COMBOS, *DUMPS, "--set=train.warmup_epochs=0"),
        "quick-compare-warmup-10": ("compare", *QUICK, *ALL_COMBOS, *DUMPS, "--set=train.warmup_epochs=10"),
        "quick-sweep-ol": (
            "sweep-lambda", *QUICK, "--lambdas", "0,1,2", "--seeds", "2,1", *DUMPS,
            "--set", "train.criteria.variant=ol",
        ),
        "quick-sweep-pl": (
            "sweep-lambda", *QUICK, "--lambdas", "0,1,2", "--seeds", "2,1", *DUMPS,
            "--set", "train.criteria.variant=pl",
        ),
        "k100-compare-10-epochs": (*bench["k100-compare"], "--set", "train.epochs=10"),
        **bench,
        # on idx784's IDX files: a second workload_inputs call would find its idx/ directory made
        "idx784-dumps": (*bench["idx784"], *DUMPS),
    }


def failing_commands(tmp: Path) -> dict[str, tuple[str, ...]]:
    """Name -> CLI arguments of a command that must fail; its files go under ``tmp``."""
    broken = tmp / "broken.yaml"
    broken.write_text("train: [unclosed\n", encoding="utf-8")
    twice = tmp / "twice.yaml"
    twice.write_text("train: {epochs: 50}\nseeds: [1]\ntrain: {epochs: 2, warmup_epochs: 1}\n")
    idx = tmp / "idx.yaml"
    keys = ("images", "labels", "test_images", "test_labels")
    idx.write_text("dataset:\n  kind: idx\n" + "".join(f"  {k}: {tmp / k}\n" for k in keys))
    (tmp / "output-is-a-file").write_text("taken\n")  # the --out that run_cli gives that command
    (tmp / "dumps-path-is-a-file").mkdir()
    (tmp / "dumps-path-is-a-file" / "penalty_labels").write_text("taken\n")
    (tmp / "one-class").mkdir()  # an IDX quartet whose labels are all 0
    quartet = idxgen.write_idx_quartet(tmp / "one-class", BENCH_SEED, classes=1, train_per_class=3, test_per_class=2)
    # under kind: idx, the blob keys that quick.yaml sets go back to their defaults
    one_class_idx = ["kind=idx", "classes=10", "n_per_class=500", "test_per_class=100"]
    one_class_idx += [f"{key}={path}" for key, path in quartet.items()]
    run = ("run", *QUICK)
    return {
        "bad-lambda-list": ("sweep-lambda", *QUICK, "--lambdas", "1,-2"),
        "bad-variant-list": ("compare", *QUICK, "--variants", "bogus"),
        "repeated-variant": ("compare", *QUICK, "--variants", "ol,ol"),
        "missing-config-file": ("run", "--config", str(tmp / "absent.yaml")),
        "malformed-config-file": ("run", "--config", str(broken)),
        "repeated-key": ("run", "--config", str(twice)),
        "malformed-override": (*run, "--set", "train.epochs"),
        "unknown-key": (*run, "--set", "train.epoch=5"),
        "out-of-range-value": (*run, "--set", "train.momentum=1.5"),
        "non-finite-value": (*run, "--set", "dataset.separation=.nan"),
        "mixed-noise-on-2-classes": (
            *run,
            *("--set", "dataset.classes=2", "--set", "noise.kind=mixed"),
            *("--set", "noise.epsilon1=0.3", "--set", "noise.epsilon2=0.1"),
        ),
        "blob-keys-under-idx": (
            "run", "--config", str(idx), "--set", "dataset.classes=5", "--set", "dataset.n_per_class=3",
            "--set", "dataset.dim=7", "--set", "dataset.separation=9.0",
        ),
        "missing-idx-file": ("run", "--config", str(idx)),
        "one-class-blobs": (*run, "--set", "dataset.classes=1"),
        "one-class-idx": (*run, *(f"--set=dataset.{assignment}" for assignment in one_class_idx)),
        "blob-overflow": (*run, "--set", "dataset.spread=1.0e+308"),
        "diverging-run": (*run, "--set", "train.learning_rate=1.0e+200"),
        "output-is-a-file": run,
        "dumps-path-is-a-file": (*run, *DUMPS),
    }


def run_cli(args: tuple[str, ...], out: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "noisylab.cli", *args, "--out", str(out)]
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    failures = []
    with tempfile.TemporaryDirectory() as inputs:
        for name, args in commands(Path(inputs)).items():
            proc = run_cli(args, out / name)
            if proc.returncode != 0:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
        failing = Path(inputs) / "failing"
        failing.mkdir()
        for name, args in failing_commands(failing).items():
            proc = run_cli(args, failing / name)
            stderr = proc.stderr.replace(inputs, "<tmp>").replace(str(ROOT), "<root>")
            failures.append(f"exit {proc.returncode}  {name}  {stderr!r}")
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.log"):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    print("\n".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())

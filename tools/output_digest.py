"""Hash every output file of a fixed set of noisylab commands.

    python tools/output_digest.py OUT_DIR

Runs each command in ``COMMANDS`` against this checkout's ``src/`` with one
BLAS thread, writing its outputs to ``OUT_DIR/<name>``, then prints
``sha256  path`` (path relative to OUT_DIR) for every output file except
``run.log``, which holds wall-clock times. The set covers every command, the
penalty-label dumps, unsorted seed lists and the three benchmark workloads
(idx784 on the IDX quartet that ``perfbench/idxgen.py`` writes for seed 1).

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
        "quick-seeds-3-1-2": ("run", *QUICK, "--seeds", "3,1,2"),
        "quick-sweep": ("sweep-lambda", *QUICK, "--lambdas", "0,0.5,1,2", "--seeds", "2,3,1"),
        "quick-compare-sl": ("compare", *QUICK, *ALL_COMBOS, "--set", "train.loss=sl", *DUMPS),
        "k100-compare-10-epochs": (*bench["k100-compare"], "--set", "train.epochs=10"),
        **bench,
    }


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as inputs:
        for name, args in commands(Path(inputs)).items():
            argv = [sys.executable, "-m", "noisylab.cli", *args, "--out", str(out / name)]
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.log"):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

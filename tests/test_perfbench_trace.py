"""The benchmark's trace mode still finds and hits every span it wraps.

perfbench/spans.py wraps noisylab attributes by name, so a refactor that
renames or reshapes one breaks a traced benchmark run. This runs the traced
launcher once on the quick config and checks every span recorded a call.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_launch_hits_every_span(tmp_path):
    probe = tmp_path / "probe.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli_args = ["run", "--config", "configs/quick.yaml", "--out", str(tmp_path / "out")]
    completed = subprocess.run(
        [sys.executable, "perfbench/launch.py", str(probe), "--trace", "--", *cli_args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    spans = load_spans()
    summary = spans.summarize(json.loads(probe.read_text())["trace"])
    missed = [name for name in spans.SPAN_NAMES if summary[f"{name}.calls"] < 1]
    assert not missed

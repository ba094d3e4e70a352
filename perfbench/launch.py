"""Child process of the benchmark: run the noisylab CLI as a user would.

    python3 perfbench/launch.py PROBE.json [--trace] -- CLI_ARGS...

It calls ``noisylab.cli.main`` with CLI_ARGS, exactly what the ``noisylab``
console script does, and exits with its return code. It also notes the
CLOCK_MONOTONIC time at which ``make_datasets`` returns, so the parent can
measure set-up from process launch. With ``--trace`` it wraps every layer
boundary in a span (see spans.py). Either way it writes PROBE.json on exit.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    probe_path, *flags = argv[: argv.index("--")]
    cli_args = argv[argv.index("--") + 1 :]

    import noisylab.cli as cli

    probe: dict = {"module": cli.__file__}
    make_datasets = cli.make_datasets

    def timed_make_datasets(*args, **kwargs):
        result = make_datasets(*args, **kwargs)
        probe["setup_done"] = time.monotonic()
        return result

    cli.make_datasets = timed_make_datasets
    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            probe["trace"] = tracer.dump()
        with open(probe_path, "w", encoding="utf-8") as fh:
            json.dump(probe, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

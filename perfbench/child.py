"""One benchmark process: a sweep, or only the set-up.

    python3 perfbench/child.py --mode sweep|setup --config CFG --out DIR
                               --result JSON --spawned T [--spans JSON]

Every mode imports `priobeacon.cli` and parses the config, the set-up a
user waits for on every invocation.  `--spawned` is the parent's
`time.monotonic()` just before it started this process, so set-up time
covers interpreter start-up too (CLOCK_MONOTONIC is system-wide on Linux).

`sweep` then calls `priobeacon.cli.main` for `drop`, `analyze`, `simulate`
and `report` back to back, exactly the sequence `cmd_sweep` runs, timing
each call.  With `--spans` the public functions of every module are wrapped
first and the recorded spans are written to that file when the sweep ends.
The result file gets the timings, return codes, peak RSS and versions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time

STAGES = ("drop", "analyze", "simulate", "report")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("sweep", "setup"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    from priobeacon import cli
    from priobeacon.config import parse_config

    t_import = time.monotonic()
    parse_config(args.config)
    t_parsed = time.monotonic()
    result = {
        "module": cli.__file__,
        "setup_s": t_parsed - args.spawned,
        "import_s": t_import - t0,
    }
    if args.mode == "sweep":
        tracer = None
        if args.spans:
            from tracer import Tracer  # the script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
        log = io.StringIO()
        rcs, stage_s = {}, {}
        for stage in STAGES:
            a = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rcs[stage] = cli.main([stage, "--config", args.config, "--out", args.out])
            stage_s[stage] = time.perf_counter() - a
        if tracer is not None:
            tracer.write(args.spans)
        import numpy
        import scipy

        result.update(
            stage_s=stage_s,
            rc=rcs,
            log=log.getvalue(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions={"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpch-scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same inputs with every layer's public call
wrapped in a span and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any answer fails
its reference check, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _bootstrap() -> None:
    """Import the program from ``src/`` of the current checkout only."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no src/repro in the current directory; run from "
            "the root of a checkout\n"
        )
        sys.exit(2)
    sys.path.insert(0, src)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    import numpy as np

    import metrics
    from workloads import NPROC, WORKLOADS, reset_caches

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed)
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "program_workers": workload.workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "front_door": workload.front_door,
    }
    print("environment: " + json.dumps(stamp, sort_keys=True))
    try:
        if args.trace:
            import tracing

            report = tracing.run_traced(workload, args.seconds)
        else:
            setups = []
            for _ in range(workload.setup_repeats):
                reset_caches()
                t0 = time.perf_counter()
                for _ in range(workload.setup_batch):
                    workload.setup()
                setups.append((time.perf_counter() - t0) / workload.setup_batch)
            report = metrics.run_untraced(workload, args.seconds, setups)
    finally:
        workload.close()
    report.record_rss(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report.print_text()
    print(json.dumps(report.result_line(trace=bool(args.trace)), sort_keys=True))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())

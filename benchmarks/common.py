"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one claim from DESIGN.md's experiment index
(E1–E14). The measured series are written to ``benchmarks/results/`` so
EXPERIMENTS.md can cite them, and asserted on *shape* (who wins, rough
factors) rather than absolute numbers.

This module also hosts the **parallel harness**: a
``ProcessPoolExecutor`` runner that executes experiment files in worker
processes, re-runs cache-relevant experiments warm to measure synopsis
reuse, emits a machine-readable ``BENCH_results.json`` (wall time,
simulated cost, synopsis-cache counters per experiment), and compares
against a previous JSON to flag regressions. Entry points:
``python -m repro bench [--smoke]`` and ``make bench-smoke``.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, List, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
METRICS_DIR = os.path.join(RESULTS_DIR, "metrics")
BENCH_RESULTS_JSON = os.path.join(RESULTS_DIR, "BENCH_results.json")
BASELINE_JSON = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")

#: Experiments whose synopses are memoized by the synopsis cache; the
#: harness runs these twice in the same worker so the warm run's cache
#: hits and wall time are observable in BENCH_results.json.
CACHE_RELEVANT = {
    "bench_e07_drift",
    "bench_e10_sample_seek",
    "bench_e14_matrix",
}

#: Fast subset for ``--smoke``: finishes in tens of seconds and still
#: covers a sketch kernel, an offline-cache path, and an online path.
SMOKE_SET = [
    "bench_p01_sketch_ingest",
    "bench_p02_scatter_gather",
    "bench_p03_fused_pipeline",
    "bench_p04_concurrent_serving",
    "bench_e10_sample_seek",
    "bench_e13_ola",
]


def write_report(name: str, lines: Iterable[str]) -> str:
    """Persist a claim table under benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print(f"\n[{name}]")
    print(text)
    return path


def table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    """Fixed-width text table (shared renderer with the audit reports)."""
    from repro.audit.report import format_table

    return format_table(headers, rows)


def _fmt(value) -> str:
    from repro.audit.report import format_value

    return format_value(value)


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture.

    The claim computations are deterministic-ish and moderately heavy, so
    one timed round is both sufficient and what keeps the suite fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


# ----------------------------------------------------------------------
# Simulated-cost metrics sidecar
# ----------------------------------------------------------------------
def record_metric(experiment: str, key: str, value) -> None:
    """Record one machine-readable metric for an experiment.

    Benchmarks call this for quantities the harness should surface in
    ``BENCH_results.json`` (simulated I/O cost, rows/sec, speedups).
    Values accumulate in ``results/metrics/<experiment>.json``; the
    harness reads and deletes the sidecar after the experiment's run.
    """
    os.makedirs(METRICS_DIR, exist_ok=True)
    path = os.path.join(METRICS_DIR, f"{experiment}.json")
    data: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[key] = value
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _consume_metrics(experiment: str) -> Dict[str, object]:
    path = os.path.join(METRICS_DIR, f"{experiment}.json")
    if not os.path.exists(path):
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    with contextlib.suppress(OSError):
        os.remove(path)
    return data


# ----------------------------------------------------------------------
# Parallel runner
# ----------------------------------------------------------------------
def discover_experiments(smoke: bool = False) -> List[str]:
    """Paths of the experiment files to run, sorted by name."""
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if smoke:
        paths = [os.path.join(bench_dir, f"{n}.py") for n in SMOKE_SET]
        return [p for p in paths if os.path.exists(p)]
    return sorted(glob.glob(os.path.join(bench_dir, "bench_*.py")))


def _run_pytest_once(path: str) -> Dict[str, object]:
    """Run one experiment file in-process; returns timing + cache stats.

    The synopsis-cache *stats* are reset before the run (the cached
    entries are kept — that is the point of the warm pass) so the
    counters attribute to exactly this run.
    """
    import pytest

    from repro.engine.kernel_cache import get_kernel_cache
    from repro.obs.metrics import get_metrics
    from repro.storage.synopsis_cache import get_global_cache

    cache = get_global_cache()
    cache.stats.reset()
    kernel_cache = get_kernel_cache()
    kernel_cache.stats.reset()
    registry = get_metrics()
    registry.reset()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = pytest.main(
            [path, "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
        )
    wall = time.perf_counter() - start
    return {
        "exit_code": int(code),
        "wall_s": wall,
        "cache": cache.stats.as_dict(),
        "kernel_cache": kernel_cache.stats.as_dict(),
        # Engine-level counters/histograms accumulated during the run
        # (queries served per engine/rung, cache lookups, retries, ...).
        # Cache gauges are excluded: the cold/warm cache dicts above
        # already carry them attributed per run.
        "metrics_registry": registry.snapshot(include_caches=False),
        "output_tail": buf.getvalue()[-2000:],
    }


def _run_experiment(path: str) -> Dict[str, object]:
    """Worker entry: run one experiment (twice when cache-relevant).

    Top-level function so ``ProcessPoolExecutor`` can pickle it. Each
    worker process has its own fresh global synopsis cache, so the cold
    run's misses and the warm run's hits are isolated per experiment.
    """
    name = os.path.splitext(os.path.basename(path))[0]
    _consume_metrics(name)  # drop stale sidecars from earlier runs
    cold = _run_pytest_once(path)
    result: Dict[str, object] = {
        "name": name,
        "path": os.path.relpath(path, os.path.dirname(RESULTS_DIR)),
        "status": "ok" if cold["exit_code"] == 0 else "failed",
        "cold_wall_s": round(cold["wall_s"], 4),
        "cold_cache": cold["cache"],
        "kernel_cache": cold["kernel_cache"],
        "metrics_registry": cold["metrics_registry"],
        "metrics": _consume_metrics(name),
    }
    if cold["exit_code"] != 0:
        result["output_tail"] = cold["output_tail"]
        return result
    if name in CACHE_RELEVANT:
        warm = _run_pytest_once(path)
        _consume_metrics(name)
        result["warm_wall_s"] = round(warm["wall_s"], 4)
        result["warm_cache"] = warm["cache"]
        if warm["exit_code"] != 0:
            result["status"] = "failed"
            result["output_tail"] = warm["output_tail"]
    return result


def run_suite(
    smoke: bool = False,
    workers: Optional[int] = None,
    output_path: str = BENCH_RESULTS_JSON,
) -> Dict[str, object]:
    """Run the benchmark suite in parallel workers; emit BENCH_results.json.

    Returns the results document. Experiment failures are recorded in the
    document (``status: failed``) rather than raised, so one broken
    experiment does not hide the rest of the measurements.
    """
    paths = discover_experiments(smoke=smoke)
    if not paths:
        raise FileNotFoundError("no benchmark files discovered")
    if workers is None:
        workers = min(len(paths), max(os.cpu_count() or 1, 1))
    experiments: List[Dict[str, object]] = []
    start = time.perf_counter()
    if workers <= 1:
        for path in paths:
            experiments.append(_run_experiment(path))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_experiment, p): p for p in paths}
            for fut in as_completed(futures):
                experiments.append(fut.result())
    experiments.sort(key=lambda e: e["name"])
    doc: Dict[str, object] = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "workers": workers,
        "total_wall_s": round(time.perf_counter() - start, 4),
        "experiments": experiments,
    }
    os.makedirs(os.path.dirname(output_path), exist_ok=True)
    with open(output_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return doc


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
def compare_results(
    new: Dict[str, object],
    old: Dict[str, object],
    threshold: float = 2.0,
    min_wall_s: float = 0.5,
) -> List[str]:
    """Regressions of ``new`` relative to ``old``; empty list == clean.

    Flags experiment failures, cold wall-time blowups beyond
    ``threshold``× (ignoring sub-``min_wall_s`` experiments, which are
    all scheduling noise), and cache-relevant experiments whose warm run
    stopped hitting the synopsis cache.

    Wall times are compared only between runs with the same number of
    worker processes: experiments running side by side on a few cores
    measure contention, not code. Across worker counts the wall-time
    verdicts become one ``note:`` entry; the other checks still apply.
    """
    old_by_name = {e["name"]: e for e in old.get("experiments", [])}
    problems: List[str] = []
    same_workers = new.get("workers") == old.get("workers")
    if not same_workers:
        problems.append(
            f"note: results ran with {new.get('workers')} workers, the "
            f"baseline with {old.get('workers')}; wall times not compared "
            f"(rerun with --workers {old.get('workers')})"
        )
    for exp in new.get("experiments", []):
        name = exp["name"]
        if exp.get("status") != "ok":
            problems.append(f"{name}: FAILED")
            continue
        prev = old_by_name.get(name)
        if prev is None or prev.get("status") != "ok":
            continue
        old_wall = float(prev.get("cold_wall_s", 0.0))
        new_wall = float(exp.get("cold_wall_s", 0.0))
        if same_workers and old_wall >= min_wall_s and new_wall > threshold * old_wall:
            problems.append(
                f"{name}: cold wall time {new_wall:.2f}s > "
                f"{threshold:g}x baseline {old_wall:.2f}s"
            )
        warm = exp.get("warm_cache")
        if warm is not None and prev.get("warm_cache", {}).get("hits", 0) > 0:
            if warm.get("hits", 0) == 0:
                problems.append(
                    f"{name}: warm run no longer hits the synopsis cache"
                )
        # Kernel-cache regression: an experiment whose baseline run
        # reused compiled kernels must keep reusing them — losing every
        # hit means plan signatures churn and each query recompiles.
        old_khits = (prev.get("kernel_cache") or {}).get("hits", 0)
        new_khits = (exp.get("kernel_cache") or {}).get("hits", 0)
        if old_khits > 0 and new_khits == 0:
            problems.append(
                f"{name}: kernel cache no longer hits "
                f"(baseline {old_khits} hits, now 0)"
            )
        if name == "bench_p03_fused_pipeline":
            problems.extend(_check_p03(exp, prev))
    return problems


def _check_p03(exp: Dict[str, object], prev: Dict[str, object]) -> List[str]:
    """Fused-pipeline claim guard: the measured speedup must not halve.

    The generic wall-time check above catches suite-level blowups; this
    one catches the targeted regression — the fused path quietly losing
    its edge over the materializing reference — even when absolute wall
    times stay inside the 2x envelope.
    """
    new_pipe = (exp.get("metrics") or {}).get("pipeline") or {}
    old_pipe = (prev.get("metrics") or {}).get("pipeline") or {}
    new_speedup = float(new_pipe.get("speedup", 0.0))
    old_speedup = float(old_pipe.get("speedup", 0.0))
    if old_speedup > 0 and new_speedup < old_speedup / 2.0:
        return [
            f"bench_p03_fused_pipeline: fused speedup {new_speedup:.2f}x "
            f"fell below half the baseline {old_speedup:.2f}x"
        ]
    return []


def check_against_baseline(
    doc: Dict[str, object],
    baseline_path: str = BASELINE_JSON,
    threshold: float = 2.0,
) -> List[str]:
    """Compare a results document against the committed baseline JSON.

    A missing baseline is not a regression (first run on a new machine);
    it is reported as an informational entry prefixed ``note:`` which
    callers should print but not fail on.
    """
    if not os.path.exists(baseline_path):
        return [f"note: no baseline at {baseline_path}; skipping comparison"]
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    return compare_results(doc, baseline, threshold=threshold)

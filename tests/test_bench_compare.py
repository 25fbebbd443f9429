"""The ``bench`` regression check compares wall times like with like."""

from __future__ import annotations

import copy
import json

import pytest

from repro.__main__ import _benchmarks_dir, run_bench


@pytest.fixture
def bench_common(monkeypatch):
    monkeypatch.syspath_prepend(_benchmarks_dir())
    import common

    return common


def _doc(workers: int, cold_wall_s: float) -> dict:
    return {
        "workers": workers,
        "experiments": [
            {"name": "bench_x", "status": "ok", "cold_wall_s": cold_wall_s}
        ],
    }


def test_same_workers_slowdown_is_a_regression(bench_common):
    problems = bench_common.compare_results(_doc(1, 3.3), _doc(1, 1.6))
    assert problems == ["bench_x: cold wall time 3.30s > 2x baseline 1.60s"]


def test_other_workers_gives_a_note_not_a_verdict(bench_common):
    problems = bench_common.compare_results(_doc(2, 3.2), _doc(1, 1.6))
    assert len(problems) == 1 and problems[0].startswith("note:")
    assert "--workers 1" in problems[0]


def test_other_workers_still_flags_failures(bench_common):
    new = _doc(2, 3.2)
    new["experiments"][0]["status"] = "error"
    problems = bench_common.compare_results(new, _doc(1, 1.6))
    assert "bench_x: FAILED" in problems


def test_cli_exits_1_on_a_shrunk_same_worker_baseline(
    bench_common, monkeypatch, tmp_path, capsys
):
    results = _doc(1, 1.3)
    monkeypatch.setattr(
        bench_common, "run_suite", lambda smoke, workers: copy.deepcopy(results)
    )
    fake = tmp_path / "baseline.json"
    fake.write_text(json.dumps(_doc(1, 0.6)))
    assert run_bench(["--smoke", "--workers", "1", "--baseline", str(fake)]) == 1
    assert "REGRESSION bench_x: cold wall time" in capsys.readouterr().out
    fake.write_text(json.dumps(_doc(4, 0.4)))
    assert run_bench(["--smoke", "--workers", "1", "--baseline", str(fake)]) == 0
    assert "WARN note:" in capsys.readouterr().out

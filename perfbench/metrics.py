"""End-to-end metrics: definitions, computation, and the result line.

``END_TO_END`` are the metrics every workload reports in its JSON result
line; each is defined on every workload and never zero. The text report
also prints the workload-specific metrics (``failed_frac``,
``approx_share``, ``max_rate_qps`` ...), which can be zero or undefined
on some workloads.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: (name, unit) of the metrics in the JSON result line of an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "q/s"),
    ("answered_frac", "ratio"),
    ("ci_cover_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: percentiles tried, highest first, for the tail latency
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def quantile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100); inf values allowed."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if xs[hi] == math.inf:
        return math.inf if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 20."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, quantile(values, p)
    return 100.0, max(values) if values else math.nan


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


@dataclass
class Report:
    """Everything one run prints."""

    workload: str
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    extra: List[Tuple[str, float, str, str]] = field(default_factory=list)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record a metric, replacing an earlier value of the same name."""
        if name in dict(END_TO_END):
            self.e2e[name] = (value, unit)
        self.extra = [e for e in self.extra if e[0] != name]
        self.extra.append((name, value, unit, note))

    def record_rss(self, mb: float) -> None:
        """Peak RSS is an end-to-end metric; the traced run omits it."""
        if not self.per_layer:
            self.put("peak_rss_mb", mb, "MB", "peak resident memory of the process")

    def fail(self, why: str) -> None:
        self.correct = False
        if len(self.failures) < 20:
            self.failures.append(why)

    def print_text(self) -> None:
        print(f"== {self.workload}")
        for note in self.notes:
            print(f"note: {note}")
        for why in self.failures:
            print(f"FAILED: {why}")
        for name, value, unit, note in self.extra:
            print(f"{name:34s} {value:14.6g} {unit:6s} {note}")

    def result_line(self, trace: bool) -> Dict[str, object]:
        if trace:
            metrics = {n: {"value": v, "unit": u} for n, (v, u) in self.per_layer.items()}
        else:
            metrics = {
                n: {"value": self.e2e[n][0], "unit": u} for n, u in END_TO_END
            }
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


# ----------------------------------------------------------------------
# shared scoring over a list of outcomes
# ----------------------------------------------------------------------
def quality(report: Report, outs, note: str = "") -> None:
    """Answered/failed/refused shares, approximate coverage, CI honesty
    and error; records failures and the attempted/failed counts."""
    ok = [o for o in outs if o.status == "ok"]
    failed = [o for o in outs if o.status == "failed"]
    bounded = [o for o in outs if o.query.approximate]
    approx = [o for o in ok if o.score.approximate]
    cells = sum(o.score.cells for o in approx)
    covered = sum(o.score.covered for o in approx)
    exact_cells = sum(
        len(o.query.aggs) * max(o.rows, 1)
        for o in ok if o.query.approximate and not o.score.approximate
    )
    rel = [e for o in approx for e in o.score.rel_errors]
    shares(report, outs, note)
    if bounded:
        report.put(
            "approx_share",
            sum(o.status == "ok" and o.score.approximate for o in bounded) / len(bounded),
            "ratio",
            f"of {len(bounded)} ERROR WITHIN queries",
        )
    report.put(
        "ci_cover_frac",
        (covered + exact_cells) / max(cells + exact_cells, 1),
        "ratio",
        f"cells of {sum(o.query.approximate for o in ok)} answers to ERROR WITHIN queries",
    )
    if cells:
        report.put("ci_miss_frac", 1.0 - covered / cells, "ratio", f"of {cells} approximate cells")
        report.put("rel_error_p50", median(rel), "ratio", f"of {len(rel)} approximate cells")
    for o in failed:
        report.fail(f"{o.query.shape}: {o.detail} [{o.query.sql[:160]}]")
    report.attempted += len(outs)
    report.failed += len(failed)


def shares(report: Report, outs, note: str = "") -> None:
    n = max(len(outs), 1)
    count = {s: sum(o.status == s for o in outs) for s in ("ok", "failed", "refused")}
    report.put("answered_frac", count["ok"] / n, "ratio", f"correct answers / {len(outs)} attempted {note}")
    report.put("failed_frac", count["failed"] / n, "ratio", note)
    report.put("refused_frac", count["refused"] / n, "ratio", note)


def by_shape(outs) -> Dict[str, List[float]]:
    """Latencies (ms) of answered queries, grouped by ``Query.shape_key``."""
    shapes: Dict[str, List[float]] = {}
    for o in outs:
        if o.status == "ok":
            shapes.setdefault(o.query.shape_key, []).append(o.latency_s * 1e3)
    return shapes


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else math.nan


def latency(report: Report, outs, note: str = "") -> None:
    """Shape-balanced latency of answered queries (refusals count in
    refused_frac): each query shape's median and p90, combined by the
    geometric mean over shapes. A percentile pooled over a mix of shapes
    falls on the edge between two shapes' clusters and jumps from one to
    the other from run to run; a per-shape percentile does not, and the
    geometric mean weighs every shape's relative change alike."""
    shapes = by_shape(outs)
    n = sum(len(v) for v in shapes.values())
    report.put(
        "query_p50_ms", geomean([median(v) for v in shapes.values()]), "ms",
        f"geometric mean over {len(shapes)} shapes of each shape's p50; {n} answers {note}",
    )
    report.put(
        "query_tail_ms", geomean([quantile(v, 90.0) for v in shapes.values()]), "ms",
        f"geometric mean over {len(shapes)} shapes of each shape's p90; {n} answers {note}",
    )
    report.notes.append(
        f"per-shape p50 ms x answers (~ = ERROR WITHIN) {note}: "
        + ", ".join(f"{k}={median(v):.1f}x{len(v)}" for k, v in sorted(shapes.items()))
    )


def run_untraced(workload, seconds: float, setups: List[float]) -> Report:
    from workloads import ServingIngest

    report = Report(workload.name)
    report.put(
        "setup_s", median(setups), "s",
        f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
    )
    warm, warnings = workload.warmup()
    for w in warnings:
        report.notes.append(f"WARNING layer not exercised: {w}")
    for o in warm:
        if o.status == "failed":
            report.fail(f"warm-up {o.query.shape}: {o.detail}")
    if isinstance(workload, ServingIngest):
        open_loop(report, workload, seconds)
        return report
    outs = workload.run(seconds)
    latency(report, outs)
    ok = [o for o in outs if o.status == "ok"]
    busy = sum(o.latency_s for o in outs)
    report.put(
        "throughput_qps", len(ok) / busy if busy else 0.0, "q/s",
        f"answers per second of time inside {workload.front_door}",
    )
    quality(report, outs)
    techniques: Dict[str, int] = {}
    for o in outs:
        techniques[o.technique] = techniques.get(o.technique, 0) + 1
    report.notes.append(f"served by: {techniques}")
    return report


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def open_loop(report: Report, workload, seconds: float) -> None:
    """Three fixed offered rates. The middle one gives the latency and
    answer-share figures; all three give ``max_rate_qps``, coverage and
    error."""
    rates = workload.rates
    phases = []
    index = 0
    for k, (rate, share) in enumerate(zip(rates, workload.rate_time_shares)):
        ops = workload.ops(k, workload.phase_ops(rate, seconds * share))
        ph = workload.run_phase(rate, ops, index)
        index += len(ph.items) + 1
        phases.append(ph)
    middle = phases[len(phases) // 2]
    sustained = []
    for ph in phases:
        outs = [i.outcome for i in ph.items]
        # Latency limit: queries without a deadline; a refusal or failure
        # counts as a miss.
        judged = [
            i.outcome.latency_s * 1e3 if i.outcome.status == "ok" else math.inf
            for i in ph.items if i.deadline_s is None
        ]
        p, v = tail(judged)
        third = max(len(ph.depths) // 3, 1)
        growing = (
            statistics.fmean(ph.depths[-third:]) > statistics.fmean(ph.depths[:third]) + 2
            if ph.depths else False
        )
        if v <= workload.latency_limit_ms and not growing and ph.drained:
            sustained.append(ph.rate)
        report.notes.append(
            f"rate {ph.rate:g}/s: {len(outs)} queries, {len(ph.writes)} appends, "
            f"p50 {median(judged):.1f} ms, p{p:g} {v:.1f} ms (no-deadline queries, misses as inf), "
            f"refused {sum(o.status == 'refused' for o in outs)}, "
            f"backlog {'growing' if growing else 'steady'}, "
            f"generator late p50 {median(ph.lateness) * 1e3:.2f} ms "
            f"max {max(ph.lateness, default=0) * 1e3:.2f} ms"
        )
    mid = [i.outcome for i in middle.items]
    # Deadline queries are judged by deadline_overshoot_x, not latency.
    latency(
        report, [i.outcome for i in middle.items if i.deadline_s is None],
        f"at {middle.rate:g}/s offered, without deadline queries",
    )
    ok = [i for i in middle.items if i.outcome.status == "ok"]
    span = max((i.done_at for i in ok), default=0.0) - min((i.due for i in middle.items), default=0.0)
    report.put(
        "throughput_qps", len(ok) / span if span > 0 else 0.0, "q/s",
        f"answers per second at {middle.rate:g}/s offered",
    )
    report.put(
        "max_rate_qps", max(sustained, default=0.0), "q/s",
        f"highest of {rates} with tail <= {workload.latency_limit_ms:g} ms and no growing backlog",
    )
    quality(report, [i.outcome for ph in phases for i in ph.items], "(all rates)")
    shares(report, mid, f"at {middle.rate:g}/s")
    shed = sum(
        any(step.get("shed_to") for step in i.outcome.provenance)
        for i in ok
    )
    report.put("shed_frac", shed / max(len(ok), 1), "ratio", f"of {len(ok)} answers at {middle.rate:g}/s")
    over = []
    for ph in phases:
        for i in ph.items:
            if i.deadline_s is None or i.ticket is None or i.done_at is None:
                continue
            wait = i.ticket.queue_wait or 0.0
            over.append((i.done_at - i.admitted - wait) / i.deadline_s)
    if over:
        p, v = tail(over)
        report.put("deadline_overshoot_x", v, "ratio", f"p{p:g} of {len(over)} deadline queries, service from dequeue")
    writes = [w * 1e3 for ph in phases for w in ph.writes]
    if writes:
        report.put("write_p50_ms", median(writes), "ms", f"{len(writes)} appends of {workload.append_rows} rows")
    late = [x * 1e3 for ph in phases for x in ph.lateness]
    report.notes.append(
        f"completion observed by polling every {workload.poll_s * 1e3:g} ms; "
        f"generator lateness p50 {median(late):.2f} ms, max {max(late, default=0):.2f} ms"
    )

"""The traced run: per-layer metrics from spans around public calls.

For each query the traced run first calls the workload's front door (the
answer the untraced run would get), then replays the front door's
sequence of public layer calls, each wrapped in a span, and checks that
the replayed answer equals the front-door answer bitwise. Spans record
layer, start, end, parent and query id; they are kept in memory and
written to ``.perfbench/`` when the run ends.

Some layers sit inside one public call (the fused kernel inside
``Database.execute``, estimation inside ``PilotPlanner.execute_final``).
Those are timed by *probes*: extra calls of the layer's public function
on the same plan, made after the replay and kept out of the replayed
query's span tree, so they never count towards layer coverage.
"""

from __future__ import annotations

import copy
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

import metrics as M
from workloads import (
    ClosedLoop, Outcome, ServingIngest, ShardedGroupBy, check, classify,
    reset_caches, shards_served,
)

from repro.core.errorspec import ErrorSpec
from repro.core.exceptions import InfeasiblePlanError, UnsupportedQueryError
from repro.core.options import QueryOptions
from repro.engine.aggregates import encode_groups_arrays
from repro.engine.database import Database
from repro.engine.fused import (
    apply_steps, compile_chain, extract_chain, run_prepared_aggregate,
    scan_relation,
)
from repro.engine.kernel_cache import get_kernel_cache
from repro.engine.optimizer import optimize_plan
from repro.engine.plan import GroupByAggregate, SampleClause, attach_sample
from repro.engine import expressions as E
from repro.obs.metrics import get_metrics
from repro.offline.catalog import SynopsisCatalog
from repro.offline.rewriter import OfflineRewriter
from repro.online.estimation import (
    estimate_groups_from_blocks, expanded_aggregates,
    project_output_with_intervals,
)
from repro.online.pilot import PilotPlanner
from repro.online.quickr import QuickrPlanner
from repro.sql.binder import bind_sql
from repro.sql.parser import parse_sql, split_explain
from repro.storage.blocks import full_selection
from repro.storage.synopsis_cache import get_global_cache

#: every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("sql.split_explain_ms", "ms"), ("sql.parse_ms", "ms"), ("sql.bind_ms", "ms"),
    ("optimizer.optimize_ms", "ms"),
    ("advisor.attempts_per_query", "count"), ("advisor.wasted_ms", "ms"),
    ("advisor.served.offline_sample", "ratio"), ("advisor.served.pilot", "ratio"),
    ("advisor.served.quickr", "ratio"), ("advisor.served.exact", "ratio"),
    ("stats.compute_ms", "ms"),
    ("fused.compile_ms", "ms"), ("fused.scan_filter_ms", "ms"),
    ("fused.aggregate_ms", "ms"),
    ("aggregates.encode_groups_str_ms", "ms"),
    ("aggregates.encode_groups_int_ms", "ms"),
    ("executor.execute_ms", "ms"), ("executor.rows_scanned_per_row_out", "ratio"),
    ("executor.blocks_read_frac", "ratio"),
    ("kernel_cache.hit_rate", "ratio"), ("kernel_cache.evictions", "count"),
    ("pilot.stage1_ms", "ms"), ("pilot.stage2_ms", "ms"),
    ("pilot.infeasible_frac", "ratio"), ("pilot.rate_p50", "ratio"),
    ("quickr.run_ms", "ms"), ("estimation.ci_ms", "ms"),
    ("offline.rewrite_ms", "ms"), ("offline.stale_entries", "count"),
    ("synopsis_cache.hit_rate", "ratio"), ("synopsis_cache.invalidations", "count"),
    ("sharding.query_ms.ungrouped", "ms"), ("sharding.query_ms.int_group", "ms"),
    ("sharding.query_ms.str_group", "ms"), ("sharding.query_ms.sample", "ms"),
    ("sharding.vs_single_x.ungrouped", "ratio"),
    ("sharding.vs_single_x.int_group", "ratio"),
    ("sharding.vs_single_x.str_group", "ratio"),
    ("sharding.shards_served_frac", "ratio"),
    ("ladder.rung_share.requested", "ratio"),
    ("ladder.rung_share.stale_synopsis", "ratio"),
    ("ladder.rung_share.cheaper_technique", "ratio"),
    ("ladder.rung_share.partial_ola", "ratio"),
    ("ladder.rung_share.exact_no_guarantee", "ratio"),
    ("ladder.rungs_tried_p50", "count"), ("ladder.retries", "count"),
    ("serving.admission_ms", "ms"), ("serving.queue_wait_ms", "ms"),
    ("serving.queue_wait_tail_ms", "ms"), ("serving.service_ms", "ms"),
    ("serving.rejected.overload", "count"),
    ("serving.rejected.queue_deadline", "count"),
    ("serving.rejected.budget", "count"), ("serving.shed_level_max", "count"),
    ("database.append_ms", "ms"), ("database.append_copy_x", "ratio"),
    ("obs.trace_overhead_frac", "ratio"), ("obs.layer_coverage_frac", "ratio"),
    ("obs.replayed_queries", "count"), ("obs.decomposition_mismatches", "count"),
)

SHARD_CLASSES = ("ungrouped", "int_group", "str_group", "sample")

#: the pilot rate ``Database.sql`` uses when the caller sets none
PILOT_RATE = QueryOptions().pilot_rate

RUNGS = ("requested", "stale_synopsis", "cheaper_technique", "partial_ola",
         "exact_no_guarantee")


class Tracer:
    """In-memory spans; one replay thread at a time."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, layer: str, qid: int):
        rec = {
            "id": len(self.spans), "layer": layer, "qid": qid,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> Dict[str, Dict[int, float]]:
        """layer -> query id -> summed duration (ms)."""
        out: Dict[str, Dict[int, float]] = {}
        for s in self.spans:
            per = out.setdefault(s["layer"], {})
            per[s["qid"]] = per.get(s["qid"], 0.0) + (s["end"] - s["start"]) * 1e3
        return out

    def self_times(self) -> Dict[str, float]:
        """layer -> total exclusive time (ms): duration minus children."""
        child: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own * 1e3
        return out

    def roots(self, layer: str = "query") -> List[Dict[str, object]]:
        return [s for s in self.spans if s["parent"] is None and s["layer"] == layer]

    def coverage(self) -> float:
        """Share of replayed query time covered by its direct children."""
        roots = {s["id"]: s for s in self.roots()}
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in roots
        )
        total = sum(s["end"] - s["start"] for s in roots.values())
        return covered / total if total else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ----------------------------------------------------------------------
# bitwise answer comparison
# ----------------------------------------------------------------------
def _same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return a.tolist() == b.tolist()
    return np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")


def same_answer(front, table, ci_low=None, ci_high=None) -> bool:
    ft = front.table
    if ft.column_names != table.column_names:
        return False
    if not all(_same_array(ft[c], table[c]) for c in ft.column_names):
        return False
    for mine, theirs in ((ci_low or {}, getattr(front, "ci_low", {}) or {}),
                         (ci_high or {}, getattr(front, "ci_high", {}) or {})):
        if set(mine) != set(theirs):
            return False
        if not all(_same_array(mine[k], theirs[k]) for k in mine):
            return False
    return True


# ----------------------------------------------------------------------
# replay of Database.sql (and of the ladder's requested rung)
# ----------------------------------------------------------------------
class Facts:
    """Per-query observations that are not durations."""

    def __init__(self) -> None:
        self.attempts: List[int] = []
        self.wasted_ms: List[float] = []
        self.served: Dict[str, int] = {}
        self.pilot_attempts = 0
        self.pilot_raised = 0
        self.pilot_rates: List[float] = []
        self.rows_per_out: List[float] = []
        self.blocks_read: List[float] = []
        self.front_ms: List[float] = []
        self.replay_ms: List[float] = []
        self.mismatches: List[str] = []
        self.replayed = 0
        self.absent: Dict[str, str] = {}


def replay_sql(tr: Tracer, db, sql: str, seed: int, qid: int, facts: Facts):
    """``Database.sql``'s public calls, in its order, each in a span.

    Returns ``(table, ci_low, ci_high, probe)``; ``probe`` carries what the
    probes need (the bound query, the exact plan, the pilot's state).
    """
    probe: Dict[str, object] = {}
    with tr.span("query", qid):
        with tr.span("sql.split_explain", qid):
            _, inner = split_explain(sql)
        with tr.span("sql.bind", qid):
            bound = bind_sql(inner, db)
        probe["bound"], probe["text"] = bound, inner
        spec = None
        if bound.error_spec is not None:
            spec = ErrorSpec(relative_error=bound.error_spec.relative_error,
                             confidence=bound.error_spec.confidence)
        probe["spec"] = spec
        if spec is not None:
            attempts, wasted = 0, 0.0
            for technique in ("offline_sample", "pilot", "quickr"):
                attempts += 1
                t0 = time.perf_counter()
                try:
                    result = _attempt(tr, db, technique, bound, spec, seed,
                                      qid, facts, probe)
                except (UnsupportedQueryError, InfeasiblePlanError):
                    wasted += time.perf_counter() - t0
                    continue
                facts.attempts.append(attempts)
                facts.wasted_ms.append(wasted * 1e3)
                facts.served[technique] = facts.served.get(technique, 0) + 1
                facts.blocks_read.append(result.stats.fraction_blocks_read)
                return result.table, result.ci_low, result.ci_high, probe
            facts.attempts.append(attempts + 1)
            facts.wasted_ms.append(wasted * 1e3)
            facts.served["exact"] = facts.served.get("exact", 0) + 1
        with tr.span("optimizer.optimize", qid):
            plan = optimize_plan(bound.plan, db)
        with tr.span("executor.execute", qid):
            table, stats = db.execute(plan, seed=seed, optimize=False)
        probe["plan"] = plan
        facts.rows_per_out.append(stats.rows_scanned / max(table.num_rows, 1))
        return table, None, None, probe


def _attempt(tr, db, technique, bound, spec, seed, qid, facts, probe):
    if technique == "offline_sample":
        with tr.span("offline.rewrite", qid):
            return OfflineRewriter(db).run(bound, spec, seed=seed)
    if technique == "quickr":
        with tr.span("quickr.run", qid):
            return QuickrPlanner(db, seed=seed).run(bound, spec)
    facts.pilot_attempts += 1
    try:
        planner = PilotPlanner(db, pilot_rate=PILOT_RATE, seed=seed)
        with tr.span("pilot.stage1", qid):
            planner.check_supported(bound)
            target = planner.choose_table(bound)
            plan, info = planner.plan_sampling(bound, spec, target)
        state = copy.deepcopy(planner.rng.bit_generator.state)
        with tr.span("pilot.stage2", qid):
            result = planner.execute_final(bound, spec, plan, info)
    except (UnsupportedQueryError, InfeasiblePlanError):
        facts.pilot_raised += 1
        raise
    facts.pilot_rates.append(plan.rate)
    probe["pilot"] = (plan, state)
    return result


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _find_chain(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        chain = extract_chain(node)
        if chain is not None and chain.aggregate is not None:
            return chain
        stack.extend(node.children())
    return None


def run_probes(tr: Tracer, db, probe: Dict[str, object], qid: int) -> None:
    with tr.span("probe.sql.parse", qid):
        parse_sql(probe["text"])
    plan = probe.get("plan")
    chain = _find_chain(plan) if plan is not None else None
    if chain is not None and chain.scan.sample is None:
        with tr.span("probe.fused.compile", qid):
            prepared = compile_chain(extract_chain(_chain_root(plan, chain)))
        table = db.table(chain.scan.table_name)
        cols = list(chain.scan.columns) if chain.scan.columns is not None else table.column_names
        with tr.span("probe.fused.scan_filter", qid):
            rel = apply_steps(prepared, scan_relation(table, cols, full_selection(table), chain.scan.alias))
        with tr.span("probe.fused.aggregate", qid):
            run_prepared_aggregate(prepared, rel)
        agg = prepared.aggregate
        if agg.key_fns:
            keys = [np.asarray(fn(rel)) for fn in agg.key_fns]
            kind = "str" if any(k.dtype == object for k in keys) else "int"
            with tr.span(f"probe.aggregates.encode_groups_{kind}", qid):
                encode_groups_arrays(keys)
    if "pilot" in probe:
        _estimation_probe(tr, db, probe, qid)


def _chain_root(plan, chain):
    """The plan node the chain was extracted from."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if node is chain.nodes_top_down[0]:
            return node
        stack.extend(node.children())
    return plan


def _estimation_probe(tr: Tracer, db, probe, qid: int) -> None:
    """Re-run stage 2's per-block aggregate with the same sampling seed,
    then time the estimation functions on its output."""
    bound, spec = probe["bound"], probe["spec"]
    plan, state = probe["pilot"]
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    alias = next(t.alias for t in bound.tables if t.name == plan.table_name)
    sample = SampleClause("system_blocks", rate=plan.rate, seed=int(rng.integers(0, 2**31)))
    sampled = attach_sample(bound.pre_agg_plan, plan.table_name, sample)
    keys = list(bound.group_keys) + [(E.Column(f"{alias}.__block_id"), "__pilot_block")]
    aggs = expanded_aggregates(bound)
    per_block, stats = db.execute(
        optimize_plan(GroupByAggregate(child=sampled, keys=tuple(keys), aggregates=tuple(aggs)), db),
        optimize=False,
    )
    with tr.span("probe.estimation.ci", qid):
        est = estimate_groups_from_blocks(
            bound, per_block, rate=plan.rate,
            sampled_blocks=stats.per_table[plan.table_name].blocks_scanned,
            total_blocks=db.table(plan.table_name).num_blocks, expanded_aggs=aggs,
        )
        project_output_with_intervals(bound, spec, est)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def run_traced(workload, seconds: float) -> M.Report:
    report = M.Report(workload.name)
    reset_caches()
    workload.setup()
    workload.warmup()
    tr, facts = Tracer(), Facts()
    kc0 = dict(get_kernel_cache().stats.as_dict())
    sc0 = dict(get_global_cache().stats.as_dict())
    layer: Dict[str, Tuple[float, str]] = {}
    if isinstance(workload, ServingIngest):
        outs = _serving(tr, facts, workload, seconds, layer)
    elif isinstance(workload, ShardedGroupBy):
        outs = _sharded(tr, facts, workload, seconds, layer)
    else:
        outs = _database(tr, facts, workload, seconds)
    kc = get_kernel_cache().stats.as_dict()
    sc = get_global_cache().stats.as_dict()
    lookups = (kc["hits"] - kc0["hits"]) + (kc["misses"] - kc0["misses"])
    layer["kernel_cache.hit_rate"] = ((kc["hits"] - kc0["hits"]) / lookups if lookups else 0.0, "ratio")
    layer["kernel_cache.evictions"] = (kc["evictions"] - kc0["evictions"], "count")
    slook = (sc["hits"] - sc0["hits"]) + (sc["misses"] - sc0["misses"])
    layer["synopsis_cache.hit_rate"] = ((sc["hits"] - sc0["hits"]) / slook if slook else 0.0, "ratio")
    layer["synopsis_cache.invalidations"] = (sc["invalidations"] - sc0["invalidations"], "count")
    _from_spans(tr, facts, layer)
    M.quality(report, outs)
    for why in facts.mismatches[:20]:
        report.fail(f"decomposition: {why}")
    report.failed += len(facts.mismatches)
    for name, unit in PER_LAYER:
        value, _ = layer.get(name, (0.0, unit))
        report.per_layer[name] = (float(value), unit)
        note = facts.absent.get(name, "")
        if name not in layer and not note:
            note = f"absent: {name.split('.')[0]} is not on the {workload.name} path"
        report.extra.append((name, float(value), unit, note))
    selfs = tr.self_times()
    total = sum(v for k, v in selfs.items() if not k.startswith("probe."))
    report.notes.append(
        "self time (ms, share of replayed time): " + ", ".join(
            f"{k}={v:.1f} ({v / total:.1%})" if total and not k.startswith("probe.") else f"{k}={v:.1f}"
            for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])
        )
    )
    tr.write(os.path.join(".perfbench", f"spans-{workload.name}-{workload.seed}.json"))
    return report


def _from_spans(tr: Tracer, facts: Facts, layer) -> None:
    durations = tr.durations()

    def med(span_name: str) -> Optional[float]:
        per = durations.get(span_name)
        return M.median(list(per.values())) if per else None

    for metric, span_name in (
        ("sql.split_explain_ms", "sql.split_explain"),
        ("sql.parse_ms", "probe.sql.parse"),
        ("optimizer.optimize_ms", "optimizer.optimize"),
        ("executor.execute_ms", "executor.execute"),
        ("fused.compile_ms", "probe.fused.compile"),
        ("fused.scan_filter_ms", "probe.fused.scan_filter"),
        ("fused.aggregate_ms", "probe.fused.aggregate"),
        ("aggregates.encode_groups_str_ms", "probe.aggregates.encode_groups_str"),
        ("aggregates.encode_groups_int_ms", "probe.aggregates.encode_groups_int"),
        ("pilot.stage1_ms", "pilot.stage1"),
        ("pilot.stage2_ms", "pilot.stage2"),
        ("quickr.run_ms", "quickr.run"),
        ("estimation.ci_ms", "probe.estimation.ci"),
        ("offline.rewrite_ms", "offline.rewrite"),
        ("stats.compute_ms", "probe.stats.compute"),
        ("database.append_ms", "database.append"),
        ("serving.admission_ms", "serving.admission"),
        *((f"sharding.query_ms.{c}", f"sharding.{c}") for c in SHARD_CLASSES),
    ):
        v = med(span_name)
        if v is not None:
            layer[metric] = (v, "ms")
    bind, parse = durations.get("sql.bind", {}), durations.get("probe.sql.parse", {})
    both = [bind[q] - parse[q] for q in bind if q in parse]
    if both:
        layer["sql.bind_ms"] = (M.median(both), "ms")
    if facts.attempts:
        layer["advisor.attempts_per_query"] = (float(np.mean(facts.attempts)), "count")
        layer["advisor.wasted_ms"] = (float(np.mean(facts.wasted_ms)), "ms")
        n = sum(facts.served.values())
        for t in ("offline_sample", "pilot", "quickr", "exact"):
            layer[f"advisor.served.{t}"] = (facts.served.get(t, 0) / n, "ratio")
    if facts.pilot_attempts:
        layer["pilot.infeasible_frac"] = (facts.pilot_raised / facts.pilot_attempts, "ratio")
    if facts.pilot_rates:
        layer["pilot.rate_p50"] = (M.median(facts.pilot_rates), "ratio")
    if facts.rows_per_out:
        layer["executor.rows_scanned_per_row_out"] = (M.median(facts.rows_per_out), "ratio")
    if facts.blocks_read:
        layer["executor.blocks_read_frac"] = (M.median(facts.blocks_read), "ratio")
    if facts.front_ms:
        front, replay = sum(facts.front_ms), sum(facts.replay_ms)
        layer["obs.trace_overhead_frac"] = ((replay - front) / front, "ratio")
    if tr.roots():
        layer["obs.layer_coverage_frac"] = (tr.coverage(), "ratio")
    layer["obs.replayed_queries"] = (facts.replayed, "count")
    layer["obs.decomposition_mismatches"] = (len(facts.mismatches), "count")


def _replay_and_compare(tr, facts, db, out: Outcome, seed: int, qid: int) -> None:
    """Replay one answered query, compare, probe."""
    if out.status != "ok":
        return
    n0 = len(tr.spans)
    table, lo, hi, probe = replay_sql(tr, db, out.query.sql, seed, qid, facts)
    root = tr.spans[n0]
    facts.replayed += 1
    facts.front_ms.append(out.latency_s * 1e3)
    facts.replay_ms.append((root["end"] - root["start"]) * 1e3)
    if not same_answer(out.result, table, lo, hi):
        facts.mismatches.append(f"{out.query.shape} [{out.query.sql[:120]}]")
    run_probes(tr, db, probe, qid)


def _database(tr, facts, workload: ClosedLoop, seconds: float) -> List[Outcome]:
    outs: List[Outcome] = []
    index = 0
    start = time.perf_counter()
    for batch in workload.rounds():
        for q in batch:
            opts = workload.options(q, index)
            out = classify(q, lambda q=q, o=opts: workload.call(q, o))
            check(out, [workload.reference(q)])
            _replay_and_compare(tr, facts, workload.db, out, opts.seed, index)
            out.release()
            outs.append(out)
            index += 1
        if time.perf_counter() - start >= seconds:
            break
    return outs


def _sharded(tr, facts, workload: ShardedGroupBy, seconds: float, layer) -> List[Outcome]:
    single = Database()
    single.create_table("lineitem", workload.ds.tables["lineitem"])
    single.stats("lineitem")
    outs: List[Outcome] = []
    ratios: Dict[str, List[float]] = {}
    served: List[float] = []
    index = 0
    start = time.perf_counter()
    for batch in workload.rounds():
        for q in batch:
            opts = workload.options(q, index)
            out = classify(q, lambda q=q, o=opts: workload.call(q, o))
            check(out, [workload.reference(q)])
            outs.append(out)
            if out.status == "ok":
                n0 = len(tr.spans)
                with tr.span("query", index):
                    with tr.span(f"sharding.{q.shape}", index):
                        again = workload.call(q, opts)
                root = tr.spans[n0]
                facts.replayed += 1
                facts.front_ms.append(out.latency_s * 1e3)
                facts.replay_ms.append((root["end"] - root["start"]) * 1e3)
                if not same_answer(out.result, again.table, getattr(again, "ci_low", None),
                                   getattr(again, "ci_high", None)):
                    facts.mismatches.append(f"{q.shape} [{q.sql[:120]}]")
                served.append(shards_served(out.result.provenance) / workload.shards)
                if q.shape != "sample":
                    with tr.span("probe.single.sql", index) as sp:
                        single.sql(q.sql, opts)
                    single_ms = (sp["end"] - sp["start"]) * 1e3
                    ratios.setdefault(q.shape, []).append(
                        (root["end"] - root["start"]) * 1e3 / single_ms
                    )
            out.release()
            index += 1
        if time.perf_counter() - start >= seconds:
            break
    for cls in SHARD_CLASSES:
        if ratios.get(cls):
            layer[f"sharding.vs_single_x.{cls}"] = (M.median(ratios[cls]), "ratio")
    if served:
        layer["sharding.shards_served_frac"] = (float(np.mean(served)), "ratio")
    facts.absent["executor.execute_ms"] = "absent: the scatter-gather path does not call Database.execute"
    return outs


def _serving(tr, facts, workload: ServingIngest, seconds: float, layer) -> List[Outcome]:
    """Part one: the middle rate, open loop, admission spans around
    ``submit``. Part two: the same stream closed-loop, each answer
    replayed through the ladder's requested rung and compared."""
    rate = workload.rates[len(workload.rates) // 2]
    ops = workload.ops(1, workload.phase_ops(rate, seconds / 2))
    retries0 = get_metrics().counter_total("retry_attempts_total")
    ph = workload.run_phase(
        rate, ops, 0, lambda i: tr.span("serving.admission", -(i + 1) * 1000)
    )
    outs = [i.outcome for i in ph.items]
    waits = [i.ticket.queue_wait * 1e3 for i in ph.items
             if i.ticket is not None and i.ticket.queue_wait is not None]
    services = [(i.done_at - i.admitted) * 1e3 - w for i, w in zip(
        [i for i in ph.items if i.ticket is not None and i.ticket.queue_wait is not None], waits)
        if i.done_at is not None]
    if waits:
        layer["serving.queue_wait_ms"] = (M.median(waits), "ms")
        layer["serving.queue_wait_tail_ms"] = (M.tail(waits)[1], "ms")
    if services:
        layer["serving.service_ms"] = (M.median(services), "ms")
    reasons = {"overload": 0, "queue_deadline": 0, "budget": 0}
    rungs: Dict[str, int] = {}
    tried: List[int] = []
    for i in ph.items:
        err = i.ticket.exception(0) if i.ticket is not None and i.ticket.done else None
        reason = getattr(err, "reason", None) or (
            "overload" if i.ticket is None and i.outcome.status == "refused" else None)
        if reason in reasons:
            reasons[reason] += 1
        if i.outcome.status == "ok":
            prov = i.outcome.provenance
            served = [p for p in prov if p.get("outcome") == "ok"]
            if served:
                rungs[served[-1]["rung"]] = rungs.get(served[-1]["rung"], 0) + 1
            tried.append(len(prov))
    for r, n in reasons.items():
        layer[f"serving.rejected.{r}"] = (n, "count")
    layer["serving.shed_level_max"] = (max(ph.shed_levels, default=0), "count")
    total = sum(rungs.values())
    for r in RUNGS:
        layer[f"ladder.rung_share.{r}"] = (rungs.get(r, 0) / total if total else 0.0, "ratio")
    if tried:
        layer["ladder.rungs_tried_p50"] = (M.median(tried), "count")
    # part two
    workload.close()
    workload.setup()
    stale: List[int] = []
    copies: List[float] = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start >= seconds / 2:
            break
        if op == "append":
            before = workload.db.table("events").estimated_bytes()
            with tr.span("database.append", -i - 1):
                took = workload.append()
            if took is None:
                continue
            after = workload.db.table("events").estimated_bytes()
            copies.append(after / max(after - before, 1))
            stale.append(len(SynopsisCatalog.for_database(workload.db).stale_entries()))
            with tr.span("probe.stats.compute", -i - 1):
                workload.db.stats("events")
            continue
        opts = QueryOptions(seed=workload.query_seed(10**7 + i))
        out = classify(op, lambda q=op, o=opts: workload.frontend.submit(q.sql, o).result(60))
        check(out, [workload.reference(op, workload.version)])
        outs.append(out)
        rung = ""
        if out.status == "ok":
            prov = [p for p in out.result.provenance if p.get("outcome") == "ok"]
            rung = prov[-1]["rung"] if prov else ""
        if rung in ("requested", "exact_no_guarantee"):
            _replay_and_compare(tr, facts, workload.db, out, opts.seed, 10**7 + i)
        elif out.status == "ok":
            facts.mismatches.append(f"{op.shape}: served by rung {rung!r}, which the replay does not follow")
        out.release()
    if copies:
        layer["database.append_copy_x"] = (M.median(copies), "ratio")
        layer["offline.stale_entries"] = (float(np.mean(stale)), "count")
    layer["ladder.retries"] = (get_metrics().counter_total("retry_attempts_total") - retries0, "count")
    return outs

"""The four workloads: inputs, program set-up, front door, and load loop.

Every workload generates its inputs from the seed (untimed), builds the
program's state in :meth:`Workload.setup` (timed as ``setup_s``), and
sends queries through one public front door:

* ``tpch-scan`` and ``short-queries``: ``Database.sql``;
* ``sharded-groupby``: ``ScatterGatherExecutor.sql``;
* ``serving-ingest``: ``ServingFrontend.submit`` (open loop).

The closed-loop workloads run whole rounds of their query mix until the
run length has passed, so each run measures the same mix.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import data
import queries
from reference import Query, Score, View, evaluate, score

from repro.core.exceptions import QueryRefused, QueryRejected, ReproError
from repro.core.options import QueryOptions
from repro.engine.database import Database
from repro.engine.kernel_cache import get_kernel_cache
from repro.engine.table import Table
from repro.offline.blinkdb import BlinkDBSelector, QueryTemplate
from repro.resilience.deadline import Deadline
from repro.serving import ServingFrontend
from repro.sharding import ScatterGatherExecutor, ShardedTable
from repro.storage.synopsis_cache import get_global_cache

#: the machine's CPU count, stamped on every result
NPROC = os.cpu_count() or 1

#: reference answers kept (the short-queries pool is 64 texts)
REFERENCE_CACHE = 256


def reset_caches() -> None:
    """Empty the process-wide caches so each set-up starts cold."""
    get_global_cache().clear()
    get_kernel_cache().clear()


@dataclass
class Outcome:
    """One attempted query (or write) and how it ended."""

    query: Optional[Query]
    latency_s: float
    status: str  # "ok" | "refused" | "failed"
    result: object = None
    technique: str = "exact"
    score: Score = field(default_factory=Score)
    detail: str = ""
    #: kept after :meth:`release`: output rows and ladder/shard provenance
    rows: int = 0
    provenance: List[Dict[str, object]] = field(default_factory=list)

    def release(self) -> None:
        """Drop the answer once scored, so finished queries do not pile
        up live objects that slow the program's garbage collection."""
        if self.result is not None:
            self.rows = self.result.table.num_rows
            self.provenance = list(getattr(self.result, "provenance", []))
            self.result = None


def classify(query: Query, call) -> Outcome:
    """Run ``call()`` and time it; typed refusals are not failures."""
    t0 = time.perf_counter()
    try:
        result = call()
    except (QueryRefused, QueryRejected) as exc:
        return Outcome(query, time.perf_counter() - t0, "refused", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - an untyped error is a failure
        return Outcome(
            query, time.perf_counter() - t0, "failed",
            detail=f"{type(exc).__name__}: {exc}",
        )
    return Outcome(
        query, time.perf_counter() - t0, "ok", result,
        technique=str(getattr(result, "technique", "exact")),
    )


def check(outcome: Outcome, refs: List[Dict]) -> None:
    """Score an answered query against the references it may match.

    ``refs`` lists the references of every table version the query may
    have read, oldest first; an exact answer must match one of them, an
    approximate one is scored against the first.
    """
    if outcome.status != "ok":
        return
    best = None
    for ref in refs:
        s = score(outcome.query, outcome.result, ref)
        if s.failure is None:
            best = s
            break
        best = best or s
    outcome.score = best
    if best.failure is not None:
        outcome.status = "failed"
        outcome.detail = best.failure


class Workload:
    """Base class; subclasses define inputs, set-up, and the query mix."""

    name = ""
    front_door = ""
    #: set-ups timed per run (their median is ``setup_s``) and how many
    #: back-to-back set-ups each timing averages over
    setup_repeats = 3
    setup_batch = 1
    #: program worker threads. One: with more, a run on a few shared
    #: cores measures how the host schedules threads, not the program
    workers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._refs: Dict[Tuple[str, int], Dict] = {}

    # -- program state -------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- queries -------------------------------------------------------
    def view(self, query: Query) -> View:
        raise NotImplementedError

    def reference(self, query: Query, version: int = 0) -> Dict:
        """The reference answer, memoized for the most recent queries."""
        key = (query.sql, version)
        ref = self._refs.pop(key, None)
        if ref is None:
            ref = evaluate(query, self.view_at(query, version))
        self._refs[key] = ref
        if len(self._refs) > REFERENCE_CACHE:
            del self._refs[next(iter(self._refs))]
        return ref

    def view_at(self, query: Query, version: int) -> View:
        return self.view(query)

    def query_seed(self, index: int) -> int:
        return (self.seed * 1_000_003 + index) % (2**31)

    def options(self, query: Query, index: int) -> QueryOptions:
        return QueryOptions(seed=self.query_seed(index))


class ClosedLoop(Workload):
    """One client: the next query is sent when the previous returns."""

    def rounds(self) -> Iterator[List[Query]]:
        raise NotImplementedError

    def call(self, query: Query, options: QueryOptions):
        raise NotImplementedError

    def run(self, seconds: float, first_index: int = 0) -> List[Outcome]:
        """Whole rounds until ``seconds`` of wall time have passed."""
        outcomes: List[Outcome] = []
        index = first_index
        start = time.perf_counter()
        for batch in self.rounds():
            for q in batch:
                opts = self.options(q, index)
                index += 1
                out = classify(q, lambda q=q, o=opts: self.call(q, o))
                check(out, [self.reference(q)])
                out.release()
                outcomes.append(out)
            if time.perf_counter() - start >= seconds:
                break
        return outcomes

    def warmup(self) -> Tuple[List[Outcome], List[str]]:
        """One round, untimed; returns outcomes and layer warnings."""
        outs = self.run(0.0, first_index=10**6)
        return outs, self.exercise_warnings(outs)

    def exercise_warnings(self, outs: List[Outcome]) -> List[str]:
        return []


# ----------------------------------------------------------------------
# tpch-scan
# ----------------------------------------------------------------------
class TpchScan(ClosedLoop):
    """TPC-H-lite scale 20 (~1.2M lineitem rows) through ``Database.sql``."""

    name = "tpch-scan"
    front_door = "Database.sql"
    scale = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ds = data.tpch_lite(self.scale, seed)
        li = self.ds.tables["lineitem"]
        codes = dict(self.ds.codes)
        nation_of_supp = self.ds.tables["supplier"]["s_nationkey"]
        codes["n_name"] = (
            nation_of_supp[li["l_suppkey"]], self.ds.codes["n_name"][1]
        )
        prio, labels = self.ds.codes["o_orderpriority"]
        codes["o_orderpriority"] = (prio[li["l_orderkey"]], labels)
        self.lineitem = View(li, codes)
        self.db: Optional[Database] = None

    def setup(self) -> None:
        db = Database()
        for name, columns in self.ds.tables.items():
            db.create_table(name, columns)
        for name in self.ds.tables:
            db.stats(name)
        self.db = db

    def view(self, query: Query) -> View:
        return self.lineitem

    def rounds(self) -> Iterator[List[Query]]:
        literals = queries.Literals(np.random.default_rng([self.seed, 11]))
        while True:
            yield queries.tpch_round(literals)

    def call(self, query: Query, options: QueryOptions):
        return self.db.sql(query.sql, options)

    def exercise_warnings(self, outs: List[Outcome]) -> List[str]:
        approx = [o for o in outs if o.query.approximate and o.status == "ok"]
        pilot = sum(o.technique == "pilot" for o in approx)
        if approx and pilot * 2 > len(approx):
            return []
        return [f"pilot served {pilot}/{len(approx)} approximate queries"]


# ----------------------------------------------------------------------
# short-queries
# ----------------------------------------------------------------------
class ShortQueries(ClosedLoop):
    """TPC-H-lite scale 1 dimension tables (≤ 2k rows) through
    ``Database.sql``; half the texts repeat from a pool of 64, half are
    new, so more kernel signatures pass than the kernel cache holds."""

    name = "short-queries"
    front_door = "Database.sql"
    setup_repeats = 5
    setup_batch = 40
    tables = ("region", "nation", "supplier", "part", "customer")
    round_size = 200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ds = data.tpch_lite(1, seed)
        t = self.ds.tables
        self.views = {
            "part": View(t["part"], self.ds.codes),
            "supplier": View(t["supplier"], self.ds.codes),
            "customer": View(
                t["customer"],
                {
                    **self.ds.codes,
                    "n_name": (
                        t["customer"]["c_nationkey"], self.ds.codes["n_name"][1]
                    ),
                },
            ),
        }
        self.db: Optional[Database] = None
        self._unique = 0

    def setup(self) -> None:
        db = Database()
        for name in self.tables:
            db.create_table(name, self.ds.tables[name])
        for name in self.tables:
            db.stats(name)
        self.db = db

    def view(self, query: Query) -> View:
        return self.views[query.from_sql.split()[0]]

    def rounds(self) -> Iterator[List[Query]]:
        rng = np.random.default_rng([self.seed, 12])
        pool = queries.short_pool(rng)
        while True:
            batch = []
            for i in range(self.round_size):
                if i % 2:
                    batch.append(pool[int(rng.integers(0, len(pool)))])
                else:
                    batch.append(queries.short_query(rng, i // 2, self._unique))
                    self._unique += 1
            yield batch

    def call(self, query: Query, options: QueryOptions):
        return self.db.sql(query.sql, options)

    def warmup(self) -> Tuple[List[Outcome], List[str]]:
        before = get_kernel_cache().stats.evictions
        outs: List[Outcome] = []
        rounds = 0
        # Enough new signatures to fill the 512-entry cache and evict.
        while get_kernel_cache().stats.evictions == before and rounds < 12:
            outs += self.run(0.0, first_index=10**6 + len(outs))
            rounds += 1
        evicted = get_kernel_cache().stats.evictions - before
        warn = [] if evicted else ["kernel cache never evicted"]
        return outs, warn


# ----------------------------------------------------------------------
# sharded-groupby
# ----------------------------------------------------------------------
class ShardedGroupBy(ClosedLoop):
    """The tpch-scan lineitem split into 4 hash shards, served by
    ``ScatterGatherExecutor(max_workers=1)``, shard after shard."""

    name = "sharded-groupby"
    front_door = "ScatterGatherExecutor.sql"
    shards = 4
    sample_rows = 20_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ds = data.tpch_lite(TpchScan.scale, seed)
        self.lineitem = View(self.ds.tables["lineitem"], self.ds.codes)
        self.executor: Optional[ScatterGatherExecutor] = None

    def setup(self) -> None:
        table = Table(self.ds.tables["lineitem"], name="lineitem")
        sharded = ShardedTable.from_table(table, self.shards, by="hash")
        sharded.build_shard_samples(self.sample_rows, seed=self.seed)
        self.executor = ScatterGatherExecutor(sharded, max_workers=self.workers)

    def view(self, query: Query) -> View:
        return self.lineitem

    def rounds(self) -> Iterator[List[Query]]:
        literals = queries.Literals(np.random.default_rng([self.seed, 13]))
        while True:
            yield queries.sharded_round(literals)

    def call(self, query: Query, options: QueryOptions):
        mode = "sample" if query.approximate else "exact"
        return self.executor.sql(query.sql, options, mode=mode)

    def exercise_warnings(self, outs: List[Outcome]) -> List[str]:
        partial = [
            o for o in outs
            if o.status == "ok" and shards_served(o.provenance) < self.shards
        ]
        return [f"{len(partial)} answers used fewer than all shards"] if partial else []


def shards_served(provenance) -> int:
    for step in reversed(provenance):
        if "shards_served" in step:
            return len(step["shards_served"])
    return 0


# ----------------------------------------------------------------------
# serving-ingest
# ----------------------------------------------------------------------
@dataclass
class Ticketed:
    """A submitted serving query: when it was due, and what happened."""

    query: Query
    due: float
    version: int
    deadline_s: Optional[float]
    ticket: object = None
    submitted: float = 0.0
    admitted: float = 0.0
    done_at: Optional[float] = None
    done_version: int = 0
    outcome: Optional[Outcome] = None


class ServingIngest(Workload):
    """A clickstream ``events`` table behind ``ServingFrontend``, driven
    open-loop at three fixed offered rates with inline 1k-row appends."""

    name = "serving-ingest"
    front_door = "ServingFrontend.submit"
    base_rows = 500_000
    append_rows = 1_000
    max_appends = 16
    rows_per_stratum = 3_000
    #: offered rates (queries + writes per second), low / middle / high
    rates = (4.0, 12.0, 24.0)
    #: share of the run each rate gets (rounded to whole cycles of the mix)
    rate_time_shares = (0.15, 0.7, 0.15)
    #: latency limit on the tail percentile for ``max_rate_qps``
    latency_limit_ms = 1_500.0
    deadline_s = 0.005
    max_queue = 32
    queue_deadline_s = 2.0
    poll_s = 0.001
    warmup_queries = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        total = self.base_rows + self.max_appends * self.append_rows
        self.ds = data.clickstream(total, seed)
        self.events = View(self.ds.tables["events"], self.ds.codes)
        self.db: Optional[Database] = None
        self.frontend: Optional[ServingFrontend] = None
        self.version = 0

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        self.close()
        cols = self.ds.tables["events"]
        db = Database()
        db.create_table(
            "events", {c: v[: self.base_rows] for c, v in cols.items()}
        )
        db.stats("events")
        selector = BlinkDBSelector(
            db,
            budget_rows=len(queries.DASHBOARD_STRATA) * 8 * self.rows_per_stratum,
            rows_per_stratum=self.rows_per_stratum,
            seed=self.seed,
        )
        selector.build_for_workload(
            [QueryTemplate("events", (c,)) for c in queries.DASHBOARD_STRATA]
        )
        self.db = db
        self.version = 0
        self.frontend = ServingFrontend(
            db,
            workers=self.workers,
            max_queue=self.max_queue,
            queue_deadline_s=self.queue_deadline_s,
            seed=self.seed,
        )

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None

    def view_at(self, query: Query, version: int) -> View:
        return self.events.prefix(self.base_rows + version * self.append_rows)

    def view(self, query: Query) -> View:
        return self.view_at(query, self.version)

    # -- writes --------------------------------------------------------
    def append(self) -> Optional[float]:
        """Append the next 1k-row batch inline; returns its latency."""
        if self.version >= self.max_appends:
            return None
        lo = self.base_rows + self.version * self.append_rows
        batch = {
            c: v[lo: lo + self.append_rows]
            for c, v in self.ds.tables["events"].items()
        }
        t0 = time.perf_counter()
        self.db.append_rows("events", batch)
        elapsed = time.perf_counter() - t0
        self.version += 1
        return elapsed

    # -- load ----------------------------------------------------------
    def phase_ops(self, rate: float, seconds: float) -> int:
        """Operations in a phase: whole cycles of the mix, at least one."""
        cycle = queries.SERVING_CYCLE_OPS
        return max(round(rate * seconds / cycle), 1) * cycle

    def ops(self, phase: int, count: int) -> List[object]:
        rng = np.random.default_rng([self.seed, 14, phase])
        return queries.serving_ops(rng, count)

    def submit(self, item: Ticketed, index: int) -> None:
        opts = QueryOptions(seed=self.query_seed(index))
        if item.deadline_s is not None:
            opts = opts.replace(deadline=Deadline(item.deadline_s))
        item.submitted = time.perf_counter()
        try:
            item.ticket = self.frontend.submit(item.query.sql, opts)
        except QueryRejected as exc:
            item.done_at = time.perf_counter()
            item.outcome = Outcome(item.query, 0.0, "refused", detail=str(exc))
        except Exception as exc:  # noqa: BLE001 - untyped admission error
            item.done_at = time.perf_counter()
            item.outcome = Outcome(
                item.query, 0.0, "failed", detail=f"{type(exc).__name__}: {exc}"
            )
        item.admitted = time.perf_counter()

    def run_phase(self, rate: float, ops: List[object], first_index: int,
                  around_submit=None) -> "Phase":
        """Send ``ops`` on schedule at ``rate``; ``around_submit(i)``, if
        given, returns a context manager wrapped around each ``submit``."""
        ph = Phase(rate=rate)
        watcher = Watcher(self, ph)
        watcher.start()
        t0 = time.perf_counter() + 0.01
        try:
            for i, op in enumerate(ops):
                due = t0 + i / rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                ph.lateness.append(max(time.perf_counter() - due, 0.0))
                if op == "append":
                    took = self.append()
                    if took is not None:
                        ph.writes.append(took)
                    continue
                deadline = self.deadline_s if op.shape.startswith("deadline") else None
                item = Ticketed(op, due, self.version, deadline)
                if around_submit is None:
                    self.submit(item, first_index + i)
                else:
                    with around_submit(i):
                        self.submit(item, first_index + i)
                watcher.add(item)
            ph.drained = self.frontend.drain(timeout=60.0)
            watcher.settle(timeout=5.0)
        finally:
            watcher.stop()
        for item in ph.items:
            self.finish(item)
        return ph

    def finish(self, item: Ticketed) -> None:
        """Turn a completed ticket into an :class:`Outcome` and check it."""
        if item.outcome is None:
            t = item.ticket
            latency = (item.done_at or time.perf_counter()) - item.due
            if item.done_at is None or not t.done:
                item.outcome = Outcome(item.query, latency, "failed", detail="lost ticket")
                return
            error = t.exception(0)
            if error is None:
                result = t.result(0)
                item.outcome = Outcome(
                    item.query, latency, "ok", result,
                    technique=str(getattr(result, "technique", "exact")),
                )
            elif isinstance(error, (QueryRefused, QueryRejected, ReproError)):
                item.outcome = Outcome(item.query, latency, "refused", detail=str(error))
            else:
                item.outcome = Outcome(
                    item.query, latency, "failed",
                    detail=f"{type(error).__name__}: {error}",
                )
        else:
            item.outcome.latency_s = (item.done_at or item.submitted) - item.due
        versions = range(item.version, max(item.done_version, item.version) + 1)
        check(item.outcome, [self.reference(item.query, v) for v in versions])
        item.outcome.release()

    def warmup(self) -> Tuple[List[Outcome], List[str]]:
        """Dashboards, unloaded: the samples must serve them. Enough of
        them to fill the overload controller's outcome window, so the
        first phase does not judge misses over a handful of queries."""
        outs = []
        for i in range(self.warmup_queries):
            col = queries.DASHBOARD_STRATA[i % len(queries.DASHBOARD_STRATA)]
            q = queries.serving_query(np.random.default_rng([self.seed, 15]), f"dashboard_{col}")
            opts = QueryOptions(seed=self.query_seed(10**6 + i))
            out = classify(q, lambda q=q, o=opts: self.frontend.submit(q.sql, o).result(60))
            check(out, [self.reference(q, self.version)])
            out.release()
            outs.append(out)
        served = sum(o.technique == "offline_sample" for o in outs)
        warn = [] if served == len(outs) else [
            f"offline samples served {served}/{len(outs)} dashboards"
        ]
        return outs, warn


@dataclass
class Phase:
    """One offered rate's worth of serving traffic."""

    rate: float
    items: List[Ticketed] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    depths: List[int] = field(default_factory=list)
    shed_levels: List[int] = field(default_factory=list)
    drained: bool = True


class Watcher(threading.Thread):
    """Observes completions from outside the program by polling every
    ticket every ``poll_s`` (1 ms); samples queue depth and shed level
    every tenth poll."""

    def __init__(self, workload: ServingIngest, phase: Phase) -> None:
        super().__init__(name="perfbench-watcher", daemon=True)
        self.workload = workload
        self.phase = phase
        self._pending: List[Ticketed] = []
        self._lock = threading.Lock()
        self._halt = threading.Event()

    def add(self, item: Ticketed) -> None:
        self.phase.items.append(item)
        if item.ticket is not None:
            with self._lock:
                self._pending.append(item)

    def _poll(self, sample: bool) -> None:
        now = time.perf_counter()
        with self._lock:
            still = []
            for item in self._pending:
                if item.ticket.done:
                    item.done_at = now
                    item.done_version = self.workload.version
                else:
                    still.append(item)
            self._pending = still
        if sample:
            snap = self.workload.frontend.metrics_snapshot()
            self.phase.depths.append(int(snap["queue_depth"]))
            self.phase.shed_levels.append(int(snap["shed_level"]))

    def run(self) -> None:
        polls = 0
        while not self._halt.is_set():
            self._poll(sample=polls % 10 == 0)
            polls += 1
            time.sleep(self.workload.poll_s)

    def settle(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while time.perf_counter() < end:
            with self._lock:
                if not self._pending:
                    return
            time.sleep(self.workload.poll_s)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


WORKLOADS = {
    w.name: w for w in (TpchScan, ShortQueries, ShardedGroupBy, ServingIngest)
}

"""Scatter-gather execution over a :class:`ShardedTable`.

One query fans out to per-shard workers (a thread pool), each worker
evaluates the bound query directly against its shard, and the gather
step merges partial aggregates into one answer. The serving contract —
the whole point of this module — is that the answer stays *honest*
while the substrate fails:

* **Deadlines** — workers share the query's cooperative
  :class:`~repro.resilience.deadline.Deadline` (explicit or ambient via
  ``deadline_scope``) and check it at block boundaries; a shard that
  cannot finish fails *typed*, it does not wedge the query.
* **Hedging** — the primary attempt on a shard is abandoned at a block
  boundary once it has consumed ``hedge_fraction`` of the remaining
  deadline (the straggler carve-out), and a second, hedged attempt runs
  at the ``shard.<i>.hedge`` fault site. Deterministic under a
  :class:`ManualClock`: "slow" faults advance the clock, the worker
  observes the elapsed time cooperatively.
* **Per-shard circuit breakers** — a flapping shard is skipped outright
  (status ``breaker_open``) after repeated failures until its cooldown
  half-opens it.
* **Quorum + honest widening** — the answer is assembled from the k
  shards that served. Missing shards contribute their *catalog
  statistics* instead of their data: ``SUM`` widens by the missing
  shards' subset-sum envelope ``[Σ negative, Σ positive]``, ``COUNT`` by
  ``[0, Σ rows]``, ``AVG`` by interval division of the two — so the
  reported CI deterministically contains every answer the lost data
  could have produced, on top of the served shards' own sampling error.
  The point estimate transfers the served shards' observed selectivity
  onto the missing rows. Below ``min_coverage`` (row-weighted fraction
  of shards served) the query is refused with full provenance.
* **Provenance** — one ``scatter_gather`` step per shard records its
  fate (``served`` / ``served_hedged`` / ``failed`` / ``breaker_open``,
  plus any abandoned attempts), and a summary step under the
  ``reshard_degraded`` rung carries the coverage; degraded answers set
  the same ``degraded`` flag the ladder uses, so ``result.is_degraded``
  and :class:`DegradedAnswer` warnings behave identically.

Widening is only possible for bare-column aggregates (the catalog holds
per-column envelopes, not per-expression ones); an expression aggregate
with a missing shard refuses rather than guesses.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import (
    BudgetExhausted,
    DeadlineExceeded,
    DegradedAnswer,
    QueryRefused,
    ReproError,
    SynopsisUnavailable,
    UnsupportedQueryError,
)
from ..core.result import ApproximateResult, QueryResult
from ..engine.aggregates import (
    AggregateSpec,
    column_key,
    encode_groups_arrays,
    take_key,
)
from ..engine.executor import ExecutionStats
from ..engine.expressions import Column, compile_expression
from ..engine.fused import SliceRelation
from ..engine.kernel_cache import get_kernel_cache
from ..engine.table import Table
from ..obs.metrics import get_metrics
from ..obs.trace import current_span, current_tracer, event, span
from ..online.ola import OnlineAggregator
from ..resilience.deadline import (
    Deadline,
    ResourceBudget,
    resolve_budget,
    resolve_deadline,
)
from ..resilience.faults import get_injector, maybe_fault, shard_site
from ..resilience.ladder import RESHARD_RUNG
from ..resilience.retry import CircuitBreaker
from ..sql.binder import BoundQuery, bind_sql
from .table import ShardedTable, Shard

__all__ = ["ScatterGatherExecutor", "ShardOutcome", "SCATTER_RUNG"]

#: provenance rung name for the per-shard fan-out steps
SCATTER_RUNG = "scatter_gather"

#: how a QueryOptions ``technique`` maps onto this executor's per-shard
#: ``mode`` when the caller leaves ``mode`` at its default
_TECHNIQUE_MODES = {
    "exact": "exact",
    "ola": "ola",
    "sample": "sample",
    "offline_sample": "sample",
}


class _StragglerAbandoned(ReproError):
    """Internal: a primary shard attempt gave way to its hedge."""


@dataclass(frozen=True)
class _BoundKernels:
    """Compiled, data-independent closures for one bound shard query.

    Every shard worker evaluates the same WHERE/key/input expressions;
    compiling them once per query (and caching per query signature in
    the process-wide kernel cache) replaces N_shards × N_blocks
    ``Expression.evaluate`` tree walks with direct closure calls. The
    closures are read-only after construction, so sharing them across
    the worker thread pool is safe.
    """

    where_fn: Optional[Callable]
    key_fns: Tuple[Callable, ...]
    #: column each group key reads bare (its codes stand in), else None
    key_sources: Tuple[Optional[str], ...]
    #: aggregate alias -> compiled argument (None for COUNT(*)-style)
    input_fns: Dict[str, Optional[Callable]]

    def mask_of(self, qtable) -> Optional[np.ndarray]:
        if self.where_fn is None:
            return None
        return np.asarray(self.where_fn(qtable), dtype=bool)

    def inputs_of(self, agg: AggregateSpec, qtable) -> np.ndarray:
        fn = self.input_fns.get(agg.alias)
        if fn is None:
            return np.ones(qtable.num_rows, dtype=np.float64)
        return np.asarray(fn(qtable), dtype=np.float64)


@dataclass
class AggPartial:
    """Mergeable sum/count components of one aggregate on one shard.

    ``sum_hw2`` / ``count_hw2`` are *squared* CI half-widths at the
    query's confidence level; independent shard estimates merge by
    adding them (the merged half-width is the root of the sum).
    """

    sum: float = 0.0
    sum_hw2: float = 0.0
    count: float = 0.0
    count_hw2: float = 0.0


@dataclass
class ShardPartial:
    """Everything a shard worker hands back to the gather step."""

    shard_id: int
    #: rows actually read (work accounting)
    rows_scanned: int = 0
    #: shard population the partial speaks for
    population_rows: int = 0
    #: matched rows in the shard population (exact or HT-estimated)
    matched_rows: float = 0.0
    scalars: Dict[str, AggPartial] = field(default_factory=dict)
    groups: Dict[Tuple, Dict[str, AggPartial]] = field(default_factory=dict)


@dataclass
class ShardOutcome:
    """One shard's fate under one query."""

    shard_id: int
    status: str  # served | served_hedged | failed | breaker_open
    partial: Optional[ShardPartial] = None
    detail: str = ""
    error: str = ""
    #: fates of earlier attempts ("abandoned" / "failed")
    attempts: Tuple[str, ...] = ()
    elapsed: float = 0.0

    @property
    def served(self) -> bool:
        return self.status in ("served", "served_hedged")


@dataclass
class _Widen:
    """Aggregated missing-shard envelope for one aggregate."""

    neg: float = 0.0
    pos: float = 0.0
    total: float = 0.0
    rows: int = 0


def _fmt_error(exc: Optional[BaseException]) -> str:
    return f"{type(exc).__name__}: {exc}" if exc else ""


class ScatterGatherExecutor:
    """Partition-tolerant aggregate serving over a :class:`ShardedTable`.

    Parameters
    ----------
    sharded:
        The shard substrate to serve from.
    max_workers:
        Thread-pool width; ``1`` runs shards sequentially (what the
        deterministic chaos sweeps use).
    min_coverage:
        Row-weighted coverage floor; an answer assembled from less of
        the table than this is refused (:class:`QueryRefused`).
    hedge / hedge_fraction:
        Straggler policy: the primary attempt on a shard may use
        ``hedge_fraction`` of the deadline remaining at its start before
        it is abandoned for one hedged retry (which also fires after a
        failed primary, hedged retries being cheaper than losing the
        shard). ``hedge=False`` gives every shard a single attempt.
    breaker_threshold / breaker_cooldown:
        Per-shard :class:`CircuitBreaker` configuration.
    catalog:
        Catalog for ``mode="sample"`` lookups; defaults to the binder
        database's catalog (where :meth:`ShardedTable.build_shard_samples`
        registers).
    warn_on_degrade:
        Emit :class:`DegradedAnswer` for k-of-n answers.
    """

    def __init__(
        self,
        sharded: ShardedTable,
        max_workers: Optional[int] = None,
        min_coverage: float = 0.5,
        hedge: bool = True,
        hedge_fraction: float = 0.5,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 2,
        catalog=None,
        warn_on_degrade: bool = False,
    ) -> None:
        if not (0.0 < min_coverage <= 1.0):
            raise ValueError("min_coverage must be in (0, 1]")
        if not (0.0 < hedge_fraction <= 1.0):
            raise ValueError("hedge_fraction must be in (0, 1]")
        self.sharded = sharded
        self.max_workers = max_workers
        self.min_coverage = min_coverage
        self.hedge = hedge
        self.hedge_fraction = hedge_fraction
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self.catalog = catalog
        self.warn_on_degrade = warn_on_degrade
        self.breakers: Dict[int, CircuitBreaker] = {}
        # breaker() is called from pool worker threads; guard the
        # check-then-insert (the breakers themselves carry their own lock).
        self._breakers_lock = threading.Lock()

    # ------------------------------------------------------------------
    def breaker(self, shard_id: int) -> CircuitBreaker:
        with self._breakers_lock:
            if shard_id not in self.breakers:
                self.breakers[shard_id] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown=self._breaker_cooldown,
                    name=f"shard.{shard_id}",
                )
            return self.breakers[shard_id]

    # ------------------------------------------------------------------
    def sql(
        self,
        query: str,
        options: Optional[QueryOptions] = None,
        mode: str = "exact",
        **kwargs,
    ):
        """Serve one aggregate query from the shards.

        ``mode`` picks the per-shard technique: ``"exact"`` scans the
        shard, ``"ola"`` runs a fixed-stop online-aggregation snapshot
        per shard, ``"sample"`` answers from registered per-shard
        samples. When ``mode`` is left at its default,
        ``options.technique`` maps onto it (``"ola"`` → ola,
        ``"sample"``/``"offline_sample"`` → sample, ``"exact"`` →
        exact). Returns :class:`QueryResult` (exact, full coverage, no
        spec) or :class:`ApproximateResult`; raises
        :class:`QueryRefused` below the coverage floor or when a missing
        shard cannot be honestly widened.

        ``options`` is a :class:`~repro.core.options.QueryOptions`;
        legacy per-field keywords (``spec=...``, ``tenant=...``) still
        work via the deprecation shim. ``options.tenant`` labels the
        query span and work metrics so a multi-tenant serving layer can
        attribute shard work; the tenant's deadline/budget arrive
        through the ambient ``deadline_scope`` (or ``options``) either
        way.
        """
        from ..core.options import maybe_trace, resolve_options

        options = resolve_options(
            options, kwargs, entry="ScatterGatherExecutor.sql()"
        )
        if mode == "exact" and options.technique is not None:
            mode = _TECHNIQUE_MODES.get(options.technique, mode)
        spec, seed = options.spec, options.seed
        tenant = "" if options.tenant == "default" else options.tenant
        deadline = resolve_deadline(options.deadline)
        budget = resolve_budget(options.budget)
        with maybe_trace(options), span(
            "query", engine="scatter_gather", sql=query.strip()[:200]
        ) as qsp:
            if tenant:
                qsp.set(tenant=tenant)
            bound = bind_sql(query, self.sharded.binder_database())
            if spec is None and bound.error_spec is not None:
                spec = ErrorSpec(
                    relative_error=bound.error_spec.relative_error,
                    confidence=bound.error_spec.confidence,
                )
            self._check_supported(bound, mode)
            kernels = self._prepare_kernels(bound)
            outcomes = self._scatter(
                bound, kernels, spec, seed, mode, deadline, budget
            )
            result = self._gather(bound, spec, mode, outcomes, deadline)
            technique = getattr(result, "technique", "exact")
            qsp.set(
                mode=mode,
                technique=technique,
                stats=result.stats.to_dict(),
            )
            labels = {"engine": "scatter_gather", "mode": mode}
            if tenant:
                labels["tenant"] = tenant
            get_metrics().inc(
                "queries_total", technique=technique, **labels
            )
            return result

    def _prepare_kernels(self, bound: BoundQuery) -> _BoundKernels:
        """Compile (or fetch cached) closures for the bound expressions.

        The cache key is the query's normalized expression signature —
        the kernels never touch shard *data*, so unlike the fused
        executor's per-plan cache no table fingerprint is needed.
        """
        signature = "\n".join(
            [
                f"sharded={self.sharded.name}",
                f"where={bound.where!r}",
                *(
                    f"key:{alias}={expr!r}"
                    for expr, alias in bound.group_keys
                ),
                *(f"agg:{agg!r}" for agg in bound.aggregates),
            ]
        )

        def compile_kernels() -> _BoundKernels:
            return _BoundKernels(
                where_fn=(
                    compile_expression(bound.where)
                    if bound.where is not None
                    else None
                ),
                key_fns=tuple(
                    compile_expression(expr)
                    for expr, _alias in bound.group_keys
                ),
                key_sources=tuple(
                    expr.name if isinstance(expr, Column) else None
                    for expr, _alias in bound.group_keys
                ),
                input_fns={
                    agg.alias: (
                        compile_expression(agg.argument)
                        if agg.argument is not None
                        else None
                    )
                    for agg in bound.aggregates
                },
            )

        return get_kernel_cache().get_or_compile(
            ("sharded", self.sharded.name, signature), compile_kernels
        )

    # ------------------------------------------------------------------
    # Support checks
    # ------------------------------------------------------------------
    def _check_supported(self, bound: BoundQuery, mode: str) -> None:
        if mode not in ("exact", "ola", "sample"):
            raise UnsupportedQueryError(f"unknown shard mode {mode!r}")
        if len(bound.tables) != 1:
            raise UnsupportedQueryError(
                "scatter-gather serves single-table queries"
            )
        if bound.tables[0].name != self.sharded.name:
            raise UnsupportedQueryError(
                f"query targets {bound.tables[0].name!r}, this executor "
                f"serves {self.sharded.name!r}"
            )
        if not bound.is_aggregate or not bound.aggregates:
            raise UnsupportedQueryError(
                "scatter-gather serves aggregate queries"
            )
        if bound.having is not None or bound.order_by or bound.limit is not None:
            raise UnsupportedQueryError(
                "HAVING/ORDER BY/LIMIT are not supported over shards"
            )
        aliases = {alias for _, alias in bound.group_keys}
        aliases.update(a.alias for a in bound.aggregates)
        for expr, _out_alias in bound.output_items:
            if not (isinstance(expr, Column) and expr.name in aliases):
                raise UnsupportedQueryError(
                    "scatter-gather serves plain key/aggregate outputs"
                )
        for agg in bound.aggregates:
            if agg.distinct:
                raise UnsupportedQueryError(
                    "DISTINCT aggregates do not merge across shards"
                )
            if agg.func not in ("sum", "count", "avg"):
                raise UnsupportedQueryError(
                    f"{agg.func.upper()} is not mergeable across shards"
                )
        if mode == "ola":
            if bound.group_keys:
                raise UnsupportedQueryError("OLA mode does not serve GROUP BY")
            if len(bound.aggregates) != 1:
                raise UnsupportedQueryError("OLA mode serves one aggregate")
        if mode == "sample":
            if bound.group_keys:
                raise UnsupportedQueryError(
                    "uniform per-shard samples cannot protect groups"
                )
            for agg in bound.aggregates:
                if agg.func != "count" and self._bare_column(bound, agg) is None:
                    raise UnsupportedQueryError(
                        "sample mode serves bare-column aggregates"
                    )

    @staticmethod
    def _bare_column(bound: BoundQuery, agg: AggregateSpec) -> Optional[str]:
        """The raw column a bare-column aggregate reads, else ``None``."""
        if agg.argument is None:
            return None
        if isinstance(agg.argument, Column):
            name = agg.argument.name
            prefix = bound.tables[0].alias + "."
            return name[len(prefix):] if name.startswith(prefix) else name
        return None

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def _scatter(
        self,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        mode: str,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
    ) -> List[ShardOutcome]:
        shards = self.sharded.shards
        workers = self.max_workers or min(len(shards), 8)
        # ThreadPoolExecutor workers do not inherit contextvars: capture
        # the ambient trace scope here and re-root it per shard.
        tracer = current_tracer()
        parent = current_span()

        def run(shard: Shard) -> ShardOutcome:
            return self._run_shard(
                shard,
                bound,
                kernels,
                spec,
                seed,
                mode,
                deadline,
                budget,
                tracer=tracer,
                parent=parent,
            )

        if workers <= 1 or len(shards) == 1:
            return [run(s) for s in shards]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, shards))

    def _run_shard(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        mode: str,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
        tracer=None,
        parent=None,
    ) -> ShardOutcome:
        # The span re-roots the ambient trace scope inside the worker
        # thread, so hedge/ola/fault events below land in this subtree.
        with span(
            f"shard.{shard.shard_id}", tracer=tracer, parent=parent
        ) as sp:
            outcome = self._shard_attempts(
                shard, bound, kernels, spec, seed, mode, deadline, budget
            )
            sp.set(
                shard_status=outcome.status,
                attempts=list(outcome.attempts),
                rows_scanned=(
                    outcome.partial.rows_scanned if outcome.partial else 0
                ),
            )
            if not outcome.served:
                sp.fail(outcome.error or outcome.detail)
            return outcome

    def _shard_attempts(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        mode: str,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
    ) -> ShardOutcome:
        clock = deadline.clock if deadline is not None else time.monotonic
        start = clock()
        breaker = self.breaker(shard.shard_id)
        if not breaker.allow():
            return ShardOutcome(
                shard.shard_id,
                "breaker_open",
                detail="circuit open; shard skipped",
                elapsed=0.0,
            )
        attempts: List[str] = []
        last: Optional[BaseException] = None
        detail = ""
        max_attempts = 2 if self.hedge else 1
        for attempt in range(max_attempts):
            if deadline is not None and deadline.expired:
                last = last or DeadlineExceeded(
                    f"deadline expired before shard {shard.shard_id} attempt",
                    site=shard_site(shard.shard_id, "exec"),
                )
                detail = "deadline"
                break
            if attempt > 0:
                event("hedge", shard=shard.shard_id, attempt=attempt)
                get_metrics().inc(
                    "shard_hedges_total", shard=str(shard.shard_id)
                )
            attempt_start = clock()
            hedge_after = None
            if attempt == 0 and self.hedge and deadline is not None:
                hedge_after = max(deadline.remaining(), 0.0) * self.hedge_fraction
            try:
                # Every attempt passes the shard's "exec" hazard (a killed
                # shard fails primary and hedge alike); hedged attempts
                # additionally pass "hedge" for hedge-targeted faults.
                marker = maybe_fault(shard_site(shard.shard_id, "exec"))
                if attempt > 0:
                    marker = (
                        maybe_fault(shard_site(shard.shard_id, "hedge"))
                        or marker
                    )
                if marker == "corrupt":
                    raise SynopsisUnavailable(
                        f"shard {shard.shard_id} failed checksum validation"
                    )
                partial = self._execute_partial(
                    shard,
                    bound,
                    kernels,
                    spec,
                    seed,
                    mode,
                    deadline,
                    budget,
                    hedge_after,
                    clock,
                    attempt_start,
                )
            except _StragglerAbandoned as exc:
                # Not a health signal — the shard was slow, not broken —
                # so the breaker is not fed; the hedge attempt follows.
                attempts.append("abandoned")
                last = exc
                detail = "straggler"
                continue
            except DeadlineExceeded as exc:
                breaker.record_failure()
                return ShardOutcome(
                    shard.shard_id,
                    "failed",
                    detail="deadline",
                    error=_fmt_error(exc),
                    attempts=tuple(attempts),
                    elapsed=clock() - start,
                )
            except BudgetExhausted as exc:
                breaker.record_failure()
                return ShardOutcome(
                    shard.shard_id,
                    "failed",
                    detail="budget",
                    error=_fmt_error(exc),
                    attempts=tuple(attempts),
                    elapsed=clock() - start,
                )
            except Exception as exc:  # injected faults, corruption, bugs
                breaker.record_failure()
                attempts.append("failed")
                last = exc
                detail = "error"
                continue
            breaker.record_success()
            return ShardOutcome(
                shard.shard_id,
                "served_hedged" if attempt > 0 else "served",
                partial=partial,
                attempts=tuple(attempts),
                elapsed=clock() - start,
            )
        return ShardOutcome(
            shard.shard_id,
            "failed",
            detail=detail or "error",
            error=_fmt_error(last),
            attempts=tuple(attempts),
            elapsed=clock() - start,
        )

    def _execute_partial(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        mode: str,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
        hedge_after: Optional[float],
        clock,
        attempt_start: float,
    ) -> ShardPartial:
        with span(
            "scan",
            table=self.sharded.name,
            shard=shard.shard_id,
            mode=mode,
        ) as sp:
            if mode == "exact":
                partial = self._exact_partial(
                    shard,
                    bound,
                    kernels,
                    deadline,
                    budget,
                    hedge_after,
                    clock,
                    attempt_start,
                )
                blocks = shard.table.num_blocks
            elif mode == "ola":
                partial = self._ola_partial(
                    shard,
                    bound,
                    kernels,
                    spec,
                    seed,
                    deadline,
                    budget,
                    hedge_after,
                    clock,
                    attempt_start,
                )
                blocks = shard.table.num_blocks
            else:
                partial = self._sample_partial(shard, bound, kernels, spec)
                blocks = 0
            sp.set(
                rows_scanned=partial.rows_scanned, blocks_scanned=blocks
            )
            return partial

    # ------------------------------------------------------------------
    # Per-shard techniques
    # ------------------------------------------------------------------
    def _exact_partial(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
        hedge_after: Optional[float],
        clock,
        attempt_start: float,
    ) -> ShardPartial:
        alias = bound.tables[0].alias
        table = shard.table
        rename_map = {c: f"{alias}.{c}" for c in table.column_names}
        partial = ShardPartial(
            shard.shard_id, population_rows=table.num_rows
        )
        site = shard_site(shard.shard_id, "scan")
        fast = (
            deadline is None
            and budget is None
            and hedge_after is None
            and get_injector() is None
        )
        if fast:
            qtable = SliceRelation(table, 0, table.num_rows, rename_map)
            self._accumulate(partial, bound, kernels, qtable)
            return partial
        for b in range(table.num_blocks):
            if (
                hedge_after is not None
                and (clock() - attempt_start) > hedge_after
            ):
                raise _StragglerAbandoned(
                    f"shard {shard.shard_id} primary attempt abandoned "
                    f"after {clock() - attempt_start:.3f}s "
                    f"(carve-out {hedge_after:.3f}s)"
                )
            maybe_fault(site)
            if deadline is not None:
                deadline.check(site=site)
            start, stop = table.block_bounds(b)
            block = SliceRelation(table, start, stop, rename_map)
            if budget is not None:
                budget.charge(rows=block.num_rows, blocks=1, site=site)
            self._accumulate(partial, bound, kernels, block)
        return partial

    def _accumulate(
        self,
        partial: ShardPartial,
        bound: BoundQuery,
        kernels: _BoundKernels,
        qtable,
    ) -> None:
        mask = kernels.mask_of(qtable)
        matched = int(mask.sum()) if mask is not None else qtable.num_rows
        partial.rows_scanned += qtable.num_rows
        partial.matched_rows += matched
        if bound.group_keys:
            if matched:
                self._accumulate_groups(partial, bound, kernels, qtable, mask)
            return
        for agg in bound.aggregates:
            ap = partial.scalars.setdefault(agg.alias, AggPartial())
            if agg.func == "count":
                ap.count += matched
                continue
            vals = kernels.inputs_of(agg, qtable)
            if mask is not None:
                vals = vals[mask]
            ap.sum += float(vals.sum())
            if agg.func == "avg":
                ap.count += matched

    def _accumulate_groups(
        self,
        partial: ShardPartial,
        bound: BoundQuery,
        kernels: _BoundKernels,
        qtable,
        mask: Optional[np.ndarray],
    ) -> None:
        key_arrays = []
        for key_fn, source in zip(kernels.key_fns, kernels.key_sources):
            if source is not None:
                key = column_key(qtable, source)
            else:
                key = np.asarray(key_fn(qtable))
            key_arrays.append(take_key(key, mask) if mask is not None else key)
        inv, key_columns = encode_groups_arrays(key_arrays)
        keys = list(zip(*(column.tolist() for column in key_columns)))
        counts = np.bincount(inv, minlength=len(keys)).astype(np.float64)
        for agg in bound.aggregates:
            if agg.func == "count":
                sums = None
            else:
                vals = kernels.inputs_of(agg, qtable)
                if mask is not None:
                    vals = vals[mask]
                sums = np.bincount(inv, weights=vals, minlength=len(keys))
            for g, key in enumerate(keys):
                ap = partial.groups.setdefault(key, {}).setdefault(
                    agg.alias, AggPartial()
                )
                if agg.func == "count":
                    ap.count += counts[g]
                elif agg.func == "sum":
                    ap.sum += float(sums[g])
                else:
                    ap.sum += float(sums[g])
                    ap.count += counts[g]

    def _ola_partial(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
        seed: Optional[int],
        deadline: Optional[Deadline],
        budget: Optional[ResourceBudget],
        hedge_after: Optional[float],
        clock,
        attempt_start: float,
    ) -> ShardPartial:
        agg = bound.aggregates[0]
        alias = bound.tables[0].alias
        table = shard.table
        site = shard_site(shard.shard_id, "scan")
        qtable = SliceRelation(
            table, 0, table.num_rows,
            {c: f"{alias}.{c}" for c in table.column_names},
        )
        mask = kernels.mask_of(qtable)
        matched = int(mask.sum()) if mask is not None else table.num_rows
        values = kernels.inputs_of(agg, qtable)
        conf = spec.confidence if spec is not None else 0.95
        shard_seed = int(
            np.random.SeedSequence(
                [seed if seed is not None else 0, shard.shard_id]
            ).generate_state(1)[0]
        )

        def snapshot_of(kind: str, rows: Optional[int] = None):
            # COUNT formerly passed value_column=None, which the wrapped
            # Table path expanded to an all-ones vector; feed the same
            # vector to from_values so the snapshots stay bitwise-equal.
            ola = OnlineAggregator.from_values(
                values if kind != "count" else np.ones(table.num_rows),
                agg=kind,
                predicate_mask=mask,
                confidence=conf,
                seed=shard_seed,
            )
            if rows is not None:
                return ola.snapshot(rows)
            # Fixed, data-independent stopping (never "stop when the CI
            # looks good" — the peeking fallacy forfeits coverage).
            max_fraction = 1.0 if deadline is not None else 0.30
            batch = max(256, table.num_rows // 20)
            snap = None
            for snap in ola.run(
                batch_size=batch, max_fraction=max_fraction, deadline=deadline
            ):
                event(
                    "ola_step",
                    rows_seen=snap.rows_seen,
                    fraction=snap.fraction_seen,
                )
                maybe_fault(site)
                if (
                    hedge_after is not None
                    and (clock() - attempt_start) > hedge_after
                ):
                    raise _StragglerAbandoned(
                        f"shard {shard.shard_id} OLA attempt abandoned"
                    )
            if snap is None:
                snap = ola.snapshot(min(batch, table.num_rows))
            return snap

        partial = ShardPartial(
            shard.shard_id,
            population_rows=table.num_rows,
            matched_rows=matched,
        )
        ap = partial.scalars.setdefault(agg.alias, AggPartial())
        if agg.func in ("sum", "count"):
            snap = snapshot_of(agg.func)
            half = (snap.ci_high - snap.ci_low) / 2.0
            if agg.func == "sum":
                ap.sum, ap.sum_hw2 = snap.value, half * half
            else:
                ap.count, ap.count_hw2 = snap.value, half * half
        else:  # avg: merge as ratio of SUM and COUNT components, taken
            # from the same permutation prefix (same seed, same rows).
            snap = snapshot_of("sum")
            half = (snap.ci_high - snap.ci_low) / 2.0
            ap.sum, ap.sum_hw2 = snap.value, half * half
            csnap = snapshot_of("count", rows=snap.rows_seen)
            chalf = (csnap.ci_high - csnap.ci_low) / 2.0
            ap.count, ap.count_hw2 = csnap.value, chalf * chalf
        partial.rows_scanned = snap.rows_seen
        if budget is not None:
            budget.charge(rows=snap.rows_seen, site=site)
        return partial

    def _sample_partial(
        self,
        shard: Shard,
        bound: BoundQuery,
        kernels: _BoundKernels,
        spec: Optional[ErrorSpec],
    ) -> ShardPartial:
        from ..offline.catalog import SynopsisCatalog

        catalog = self.catalog
        if catalog is None:
            catalog = SynopsisCatalog.for_database(
                self.sharded.binder_database()
            )
        entry = catalog.find_sample(
            self.sharded.name, require_fresh=False, shard=shard.shard_id
        )
        if entry is None:
            raise SynopsisUnavailable(
                f"no sample registered for shard {shard.shard_id}"
            )
        marker = maybe_fault(shard_site(shard.shard_id, "scan"))
        if marker == "corrupt":
            raise SynopsisUnavailable(
                f"shard {shard.shard_id} sample failed validation"
            )
        sample = entry.sample
        alias = bound.tables[0].alias
        conf = spec.confidence if spec is not None else 0.95
        qtable = SliceRelation(
            sample.table, 0, sample.table.num_rows,
            {c: f"{alias}.{c}" for c in sample.table.column_names},
        )
        mask = kernels.mask_of(qtable)
        filtered = sample.filtered(mask) if mask is not None else sample
        count_est = filtered.estimate_count()
        clo, chi = count_est.ci(conf)
        partial = ShardPartial(
            shard.shard_id,
            rows_scanned=sample.num_rows,
            population_rows=shard.stats.rows,
            matched_rows=float(max(count_est.value, 0.0)),
        )
        for agg in bound.aggregates:
            ap = partial.scalars.setdefault(agg.alias, AggPartial())
            if agg.func in ("count", "avg"):
                ap.count = count_est.value
                ap.count_hw2 = ((chi - clo) / 2.0) ** 2
            if agg.func in ("sum", "avg"):
                column = self._bare_column(bound, agg)
                if filtered.num_rows == 0:
                    ap.sum, ap.sum_hw2 = 0.0, 0.0
                else:
                    est = filtered.estimate_sum(column)
                    lo, hi = est.ci(conf)
                    ap.sum = est.value
                    ap.sum_hw2 = ((hi - lo) / 2.0) ** 2
        return partial

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _gather(
        self,
        bound: BoundQuery,
        spec: Optional[ErrorSpec],
        mode: str,
        outcomes: List[ShardOutcome],
        deadline: Optional[Deadline],
    ):
        provenance: List[Dict[str, object]] = []
        for o in outcomes:
            get_metrics().inc("shard_outcomes_total", status=o.status)
            provenance.append(
                {
                    "rung": SCATTER_RUNG,
                    "shard": o.shard_id,
                    "outcome": (
                        "ok"
                        if o.served
                        else ("skipped" if o.status == "breaker_open" else "failed")
                    ),
                    "status": o.status,
                    "detail": o.detail,
                    "error": o.error,
                    "attempts": list(o.attempts),
                    "degraded": False,
                    "technique": mode,
                }
            )
        served = [o for o in outcomes if o.served]
        missing_ids = [o.shard_id for o in outcomes if not o.served]
        total_rows = self.sharded.total_rows
        served_rows = self.sharded.rows_in([o.shard_id for o in served])
        coverage = served_rows / total_rows if total_rows else 0.0
        summary = {
            "rung": RESHARD_RUNG if missing_ids else SCATTER_RUNG,
            "outcome": "ok",
            "detail": (
                f"coverage {coverage:.2%} "
                f"({len(served)}/{len(outcomes)} shards)"
            ),
            "error": "",
            "degraded": bool(missing_ids),
            "technique": mode,
            "coverage": coverage,
            "shards_served": [o.shard_id for o in served],
            "shards_missing": missing_ids,
            "hedged": [o.shard_id for o in served if o.status == "served_hedged"],
        }
        if not served or coverage < self.min_coverage:
            summary["outcome"] = "failed"
            summary["detail"] = (
                f"coverage {coverage:.2%} below floor "
                f"{self.min_coverage:.2%}"
            )
            provenance.append(summary)
            get_metrics().inc(
                "queries_refused_total", engine="scatter_gather"
            )
            raise QueryRefused(
                f"scatter-gather quorum failed: {summary['detail']}",
                provenance=provenance,
            )
        widens, unboundable = self._widening(bound, missing_ids)
        if unboundable is not None:
            summary["outcome"] = "failed"
            summary["detail"] = unboundable
            provenance.append(summary)
            get_metrics().inc(
                "queries_refused_total", engine="scatter_gather"
            )
            raise QueryRefused(
                f"cannot widen for missing shards: {unboundable}",
                provenance=provenance,
            )
        provenance.append(summary)
        result = self._assemble(
            bound, spec, mode, served, widens, coverage, provenance
        )
        if missing_ids and self.warn_on_degrade:
            warnings.warn(
                DegradedAnswer(
                    f"answer assembled from {len(served)}/{len(outcomes)} "
                    f"shards (coverage {coverage:.2%}); CIs widened for "
                    f"the missing partitions"
                ),
                stacklevel=3,
            )
        return result

    def _widening(
        self, bound: BoundQuery, missing_ids: List[int]
    ) -> Tuple[Dict[str, _Widen], Optional[str]]:
        """Aggregate the missing shards' envelopes per aggregate alias.

        Returns ``(widens, None)`` or ``({}, reason)`` when some missing
        shard cannot be honestly bounded for some aggregate.
        """
        widens: Dict[str, _Widen] = {
            agg.alias: _Widen() for agg in bound.aggregates
        }
        if not missing_ids:
            return widens, None
        for agg in bound.aggregates:
            w = widens[agg.alias]
            column = self._bare_column(bound, agg)
            for sid in missing_ids:
                stats = self.sharded.shards[sid].stats
                w.rows += stats.rows
                if agg.func == "count":
                    continue
                if column is None:
                    return {}, (
                        f"aggregate {agg.alias!r} is not a bare column; "
                        f"no catalog envelope for missing shard {sid}"
                    )
                bounds = stats.sum_envelope(column)
                if bounds is None:
                    return {}, (
                        f"no envelope for column {column!r} in missing "
                        f"shard {sid}"
                    )
                w.neg += bounds.negative
                w.pos += bounds.positive
                w.total += bounds.total
        return widens, None

    def _assemble(
        self,
        bound: BoundQuery,
        spec: Optional[ErrorSpec],
        mode: str,
        served: List[ShardOutcome],
        widens: Dict[str, _Widen],
        coverage: float,
        provenance: List[Dict[str, object]],
    ):
        partials = [o.partial for o in served]
        scanned = sum(p.rows_scanned for p in partials)
        population = sum(p.population_rows for p in partials)
        matched = sum(p.matched_rows for p in partials)
        sel = min(max(matched / population, 0.0), 1.0) if population else 0.0
        degraded = any(w.rows or w.neg or w.pos for w in widens.values())

        if bound.group_keys:
            values, lows, highs, key_columns, nrows = self._assemble_groups(
                bound, partials, widens, sel
            )
        else:
            values, lows, highs = {}, {}, {}
            for agg in bound.aggregates:
                merged = AggPartial()
                for p in partials:
                    ap = p.scalars.get(agg.alias)
                    if ap is None:
                        continue
                    merged.sum += ap.sum
                    merged.sum_hw2 += ap.sum_hw2
                    merged.count += ap.count
                    merged.count_hw2 += ap.count_hw2
                v, lo, hi = self._cell(agg.func, merged, widens[agg.alias], sel)
                values[agg.alias] = np.array([v])
                lows[agg.alias] = np.array([lo])
                highs[agg.alias] = np.array([hi])
            key_columns, nrows = {}, 1

        columns: Dict[str, np.ndarray] = {}
        ci_low: Dict[str, np.ndarray] = {}
        ci_high: Dict[str, np.ndarray] = {}
        agg_aliases = {a.alias for a in bound.aggregates}
        for expr, out_alias in bound.output_items:
            name = expr.name  # validated Column in _check_supported
            if name in agg_aliases:
                columns[out_alias] = values[name]
                ci_low[out_alias] = lows[name]
                ci_high[out_alias] = highs[name]
            else:
                columns[out_alias] = key_columns[name]

        stats = ExecutionStats()
        stats.rows_scanned = scanned
        stats.agg_input_rows = scanned
        stats.rows_output = nrows
        table = Table(columns, name="aggregate")
        total_rows = self.sharded.total_rows
        exact_full_coverage = (
            mode == "exact" and not degraded and spec is None
        )
        if exact_full_coverage:
            return QueryResult(
                table=table, stats=stats, provenance=provenance
            )
        achieved = 0.0
        for alias in agg_aliases:
            v = values[alias]
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(
                    v != 0,
                    (highs[alias] - lows[alias]) / 2.0 / np.abs(v),
                    np.inf,
                )
            finite = rel[np.isfinite(rel)]
            if len(finite):
                achieved = max(achieved, float(finite.max()))
        conf = spec.confidence if spec is not None else 0.95
        base_rel = spec.relative_error if spec is not None else 0.05
        claimed = ErrorSpec(
            relative_error=min(0.99, max(base_rel, achieved, 1e-9)),
            confidence=conf,
        )
        result = ApproximateResult(
            table=table,
            stats=stats,
            spec=claimed,
            technique=f"scatter_gather_{mode}",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=scanned / total_rows if total_rows else 0.0,
            approx_cost=float(scanned),
            exact_cost=float(total_rows),
            diagnostics={
                "mode": mode,
                "coverage": coverage,
                "shards_served": len(served),
                "shards_total": self.sharded.num_shards,
                "selectivity_estimate": sel,
                "widen_rule": "sum:[Σneg,Σpos] count:[0,rows] avg:interval-ratio",
                "groups_possibly_missing": bool(
                    bound.group_keys
                    and any(w.rows for w in widens.values())
                ),
            },
            provenance=provenance,
        )
        return result

    def _assemble_groups(
        self,
        bound: BoundQuery,
        partials: List[ShardPartial],
        widens: Dict[str, _Widen],
        sel: float,
    ):
        merged: Dict[Tuple, Dict[str, AggPartial]] = {}
        for p in partials:
            for key, aggs in p.groups.items():
                slot = merged.setdefault(key, {})
                for alias, ap in aggs.items():
                    m = slot.setdefault(alias, AggPartial())
                    m.sum += ap.sum
                    m.sum_hw2 += ap.sum_hw2
                    m.count += ap.count
                    m.count_hw2 += ap.count_hw2
        keys = sorted(merged, key=repr)
        nrows = len(keys)
        key_columns = {
            alias: np.asarray([key[i] for key in keys])
            for i, (_, alias) in enumerate(bound.group_keys)
        }
        values: Dict[str, np.ndarray] = {}
        lows: Dict[str, np.ndarray] = {}
        highs: Dict[str, np.ndarray] = {}
        for agg in bound.aggregates:
            # Per-group selectivity of the lost rows is unknowable, so a
            # group keeps its served value and widens by the *full*
            # missing-shard envelope — conservative for every group.
            vs, ls, hs = [], [], []
            for key in keys:
                ap = merged[key].get(agg.alias, AggPartial())
                v, lo, hi = self._cell(
                    agg.func, ap, widens[agg.alias], sel=0.0
                )
                vs.append(v)
                ls.append(lo)
                hs.append(hi)
            values[agg.alias] = np.asarray(vs)
            lows[agg.alias] = np.asarray(ls)
            highs[agg.alias] = np.asarray(hs)
        return values, lows, highs, key_columns, nrows

    @staticmethod
    def _cell(
        func: str, ap: AggPartial, w: _Widen, sel: float
    ) -> Tuple[float, float, float]:
        """Merged value + CI for one aggregate cell, widened for missing
        shards (see module docstring for the rule)."""
        s_hw = math.sqrt(ap.sum_hw2)
        c_hw = math.sqrt(ap.count_hw2)
        if func == "sum":
            center = min(max(sel * w.total, w.neg), w.pos)
            return (
                ap.sum + center,
                ap.sum - s_hw + w.neg,
                ap.sum + s_hw + w.pos,
            )
        if func == "count":
            return (
                ap.count + sel * w.rows,
                max(ap.count - c_hw, 0.0),
                ap.count + c_hw + w.rows,
            )
        # avg: interval division of the SUM envelope by the COUNT envelope
        s_lo = ap.sum - s_hw + w.neg
        s_hi = ap.sum + s_hw + w.pos
        c_lo = max(ap.count - c_hw, 0.0)
        c_hi = ap.count + c_hw + w.rows
        denom = ap.count + sel * w.rows
        numer = ap.sum + min(max(sel * w.total, w.neg), w.pos)
        value = numer / denom if denom > 0 else math.nan
        if c_lo <= 0.0:
            return value, -math.inf, math.inf
        candidates = (s_lo / c_lo, s_lo / c_hi, s_hi / c_lo, s_hi / c_hi)
        return value, min(candidates), max(candidates)

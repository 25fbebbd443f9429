"""Result/sample reuse across queries (the IDEA direction).

Interactive exploration sessions fire *related* queries: same FROM/WHERE,
different aggregates or group-bys. Galakatos et al.'s IDEA observed that
the expensive part — producing a weighted sample of the filtered, joined
relation — can be cached and reused: any linear aggregate over the same
relation re-estimates from the cached sample for (almost) free.

:class:`ReuseCache` implements that: the first query against a given
(tables, predicate) signature pays for a Quickr-style sampled execution
and caches the weighted pre-aggregation relation; subsequent queries with
the same signature — regardless of their SELECT list or GROUP BY — are
answered from the cache without touching the base tables. Entries are
invalidated when any underlying table changes size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errorspec import ErrorSpec
from ..core.exceptions import UnsupportedQueryError
from ..core.result import ApproximateResult
from ..engine.executor import ExecutionStats
from ..engine.table import Table
from ..sql.binder import BoundQuery, bind_sql
from ..storage.cost import aggregation_cost
from .estimation import estimate_groups_row_level, project_output_with_intervals
from .quickr import QuickrPlanner


@dataclass
class CacheEntry:
    """One cached weighted relation."""

    relation: Table
    weights: np.ndarray
    #: (name, registered Table) of every input; the catalog builds a new
    #: Table on each create, replace and append, so identity is version
    table_versions: Tuple[Tuple[str, Table], ...]
    source_technique: str
    hits: int = 0


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ReuseCache:
    """Sample-reuse layer over the online planners."""

    def __init__(
        self,
        database,
        rate: float = 0.1,
        max_entries: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        self.database = database
        self.rate = rate
        self.max_entries = max_entries
        self.seed = seed
        self._entries: Dict[Tuple, CacheEntry] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def sql(self, query: str, spec: ErrorSpec) -> ApproximateResult:
        bound = bind_sql(query, self.database)
        return self.run(bound, spec)

    def run(self, bound: BoundQuery, spec: ErrorSpec) -> ApproximateResult:
        if not bound.is_aggregate:
            raise UnsupportedQueryError("reuse cache answers aggregates only")
        for agg in bound.aggregates:
            if not agg.is_linear:
                raise UnsupportedQueryError(
                    f"cannot reuse samples for {agg.func.upper()}"
                )
        key = self._signature(bound)
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is not None and not self._is_stale(entry):
            entry.hits += 1
            self.stats.hits += 1
            return self._answer_from_entry(bound, spec, entry)
        if entry is not None:
            self.stats.invalidations += 1
            del self._entries[key]
        return self._populate_and_answer(bound, spec, key)

    # ------------------------------------------------------------------
    def _signature(self, bound: BoundQuery) -> Tuple:
        """(tables, predicate) identity — everything the SELECT list and
        GROUP BY do *not* affect."""
        tables = tuple(sorted((t.name, t.alias) for t in bound.tables))
        where = repr(bound.where) if bound.where is not None else ""
        return (tables, where)

    def _versions(self, bound: BoundQuery) -> Tuple[Tuple[str, Table], ...]:
        names = sorted(t.name for t in bound.tables)
        return tuple((name, self.database.table(name)) for name in names)

    def _is_stale(self, entry: CacheEntry) -> bool:
        """Stale unless every input is still the very Table it was drawn
        from: a replace with the same row count is a new version too."""
        return any(
            not self.database.has_table(name)
            or self.database.table(name) is not table
            for name, table in entry.table_versions
        )

    # ------------------------------------------------------------------
    def _populate_and_answer(
        self, bound: BoundQuery, spec: ErrorSpec, key: Tuple
    ) -> ApproximateResult:
        versions = self._versions(bound)
        planner = QuickrPlanner(self.database, rate=self.rate, seed=self.seed)
        target = planner._choose_table(bound)
        sampler_kind, sample = planner._draw_sample(bound, target)
        weight_col = "__weight"
        temp = planner._register_temp(
            sample.table.with_column(weight_col, sample.weights)
        )
        try:
            from ..engine.optimizer import optimize_plan
            from .quickr import _swap_scan

            swapped = _swap_scan(bound.pre_agg_plan, target.name, temp)
            relation, stats = self.database.execute(
                optimize_plan(swapped, self.database), optimize=False
            )
        finally:
            self.database.drop_table(temp)
        weights = np.asarray(
            relation[f"{target.alias}.{weight_col}"], dtype=np.float64
        )
        entry = CacheEntry(
            relation=relation,
            weights=weights,
            table_versions=versions,
            source_technique=f"quickr:{sampler_kind}",
        )
        if len(self._entries) >= self.max_entries:
            # Evict the least-used entry.
            victim = min(self._entries, key=lambda k: self._entries[k].hits)
            del self._entries[victim]
        self._entries[key] = entry
        return self._answer_from_entry(bound, spec, entry, first_run_stats=stats)

    def _answer_from_entry(
        self,
        bound: BoundQuery,
        spec: ErrorSpec,
        entry: CacheEntry,
        first_run_stats: Optional[ExecutionStats] = None,
    ) -> ApproximateResult:
        estimates = estimate_groups_row_level(bound, entry.relation, entry.weights)
        out_table, ci_low, ci_high = project_output_with_intervals(
            bound, spec, estimates
        )
        reused = first_run_stats is None
        stats = first_run_stats if first_run_stats is not None else ExecutionStats()
        if reused:
            stats.agg_input_rows = entry.relation.num_rows
        approx_cost = (
            aggregation_cost(entry.relation.num_rows).total
            if reused
            else stats.simulated_cost(self.database.cost_params).total
        )
        exact_cost = 0.0
        from ..storage.cost import scan_cost

        for name, _ in entry.table_versions:
            t = self.database.table(name)
            exact_cost += scan_cost(t.num_blocks, t.num_rows).total
        return ApproximateResult(
            table=out_table,
            stats=stats,
            spec=spec,
            technique="idea_reuse" if reused else "quickr",
            ci_low=ci_low,
            ci_high=ci_high,
            fraction_scanned=0.0 if reused else 1.0,
            approx_cost=max(approx_cost, 1e-9),
            exact_cost=exact_cost,
            diagnostics={
                "reused": reused,
                "source": entry.source_technique,
                "cached_rows": entry.relation.num_rows,
                "cache_hit_rate": self.stats.hit_rate,
            },
        )

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

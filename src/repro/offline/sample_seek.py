"""Sample+Seek (Ding et al. 2016): distribution-precision guarantees.

The hybrid the survey highlights as the credible route to a-priori
guarantees: a *measure-biased* sample answers every **large** group of a
group-by accurately (each sampled row carries equal SUM mass, so a group
holding an ε fraction of the measure gets ~ε·n sample rows), while
**small** groups — hopeless for any sample — are answered *exactly* by
seeking a secondary index. The error metric is distribution precision:
the L2 distance between the true and estimated group-share vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import SynopsisError
from ..engine.aggregates import column_key, factorize
from ..engine.table import Table
from ..sampling.measure_biased import measure_biased_sample
from ..storage.cost import index_seek_cost, scan_cost
from ..storage.synopsis_cache import SynopsisCache, get_global_cache


@dataclass
class SeekIndex:
    """A (simulated) secondary index: group value -> row positions.

    Seeking a group costs ``seek_cost`` per matching row in the cost
    model, which is exactly why it only pays for small groups.
    """

    table_name: str
    column: str
    postings: Dict[object, np.ndarray]

    def lookup(self, value) -> np.ndarray:
        return self.postings.get(value, np.array([], dtype=np.int64))

    def storage_rows(self) -> int:
        return int(sum(len(v) for v in self.postings.values()))


def build_seek_index(table: Table, column: str) -> SeekIndex:
    values = table[column]
    uniq, inverse = factorize(column_key(table, column))
    order = np.argsort(inverse, kind="stable")
    sorted_inv = inverse[order]
    boundaries = np.flatnonzero(np.diff(sorted_inv)) + 1
    starts = np.concatenate([[0], boundaries, [len(values)]])
    postings = {}
    for i, val in enumerate(uniq):
        postings[val.item() if hasattr(val, "item") else val] = order[
            starts[i]: starts[i + 1]
        ]
    return SeekIndex(table_name=table.name, column=column, postings=postings)


@dataclass
class SampleSeekSynopsis:
    """The precomputed pair: measure-biased sample + seek index."""

    table_name: str
    measure_column: str
    group_column: str
    sample_table: Table
    sample_weights: np.ndarray
    index: SeekIndex
    built_at_rows: int
    #: groups whose sample support is below this are answered via seek
    min_sample_rows: int = 30


def build_sample_seek(
    table: Table,
    measure_column: str,
    group_column: str,
    sample_size: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    cache: Optional[SynopsisCache] = None,
) -> SampleSeekSynopsis:
    """Build (or fetch) the measure-biased sample + seek index pair.

    When the build is deterministic — ``seed`` given (or neither ``seed``
    nor ``rng``, which defaults to seed 0), rather than a live ``rng`` —
    the synopsis is memoized in the synopsis cache keyed by the table's
    content fingerprint, so benchmark reruns and repeated queries reuse
    it instead of rebuilding. Passing an explicit ``rng`` bypasses the
    cache, since the result then depends on generator state.
    """
    if rng is not None:
        return _build_sample_seek(table, measure_column, group_column,
                                  sample_size, rng)
    seed = 0 if seed is None else seed
    cache = get_global_cache() if cache is None else cache
    return cache.get_or_build(
        table,
        kind="sample_seek",
        columns=(measure_column, group_column),
        params={"sample_size": sample_size, "seed": seed},
        builder=lambda: _build_sample_seek(
            table, measure_column, group_column, sample_size,
            np.random.default_rng(seed),
        ),
    )


def _build_sample_seek(
    table: Table,
    measure_column: str,
    group_column: str,
    sample_size: int,
    rng: Optional[np.random.Generator],
) -> SampleSeekSynopsis:
    sample = measure_biased_sample(table, measure_column, sample_size, rng=rng)
    index = build_seek_index(table, group_column)
    return SampleSeekSynopsis(
        table_name=table.name,
        measure_column=measure_column,
        group_column=group_column,
        sample_table=sample.table,
        sample_weights=sample.weights,
        index=index,
        built_at_rows=table.num_rows,
    )


@dataclass
class GroupAnswer:
    key: object
    value: float
    method: str  # "sample" or "seek"
    sample_rows: int = 0


def answer_group_by_sum(
    synopsis: SampleSeekSynopsis,
    base_table: Table,
) -> Tuple[List[GroupAnswer], float]:
    """SUM(measure) GROUP BY group_column via sample for large groups and
    seek for small ones. Returns (answers, simulated_cost)."""
    sample = synopsis.sample_table
    weights = synopsis.sample_weights
    measure = np.asarray(sample[synopsis.measure_column], dtype=np.float64)
    uniq, inverse = factorize(column_key(sample, synopsis.group_column))
    support = np.bincount(inverse, minlength=len(uniq))
    estimates = np.bincount(
        inverse, weights=weights * measure, minlength=len(uniq)
    )
    answers: List[GroupAnswer] = []
    cost = scan_cost(
        max(sample.num_rows // 1024, 1), sample.num_rows
    ).total  # reading the sample
    sampled_keys = set()
    for i, key in enumerate(uniq):
        k = key.item() if hasattr(key, "item") else key
        sampled_keys.add(k)
        if support[i] >= synopsis.min_sample_rows:
            answers.append(
                GroupAnswer(
                    key=k,
                    value=float(estimates[i]),
                    method="sample",
                    sample_rows=int(support[i]),
                )
            )
        else:
            rows = synopsis.index.lookup(k)
            exact = float(
                np.sum(
                    np.asarray(
                        base_table[synopsis.measure_column], dtype=np.float64
                    )[rows]
                )
            )
            cost += index_seek_cost(len(rows)).total
            answers.append(
                GroupAnswer(key=k, value=exact, method="seek", sample_rows=int(support[i]))
            )
    # Groups entirely absent from the sample: seek them too.
    for k in synopsis.index.postings:
        if k in sampled_keys:
            continue
        rows = synopsis.index.lookup(k)
        exact = float(
            np.sum(
                np.asarray(base_table[synopsis.measure_column], dtype=np.float64)[rows]
            )
        )
        cost += index_seek_cost(len(rows)).total
        answers.append(GroupAnswer(key=k, value=exact, method="seek"))
    return answers, cost


def distribution_precision(
    answers: Sequence[GroupAnswer], truth: Dict[object, float]
) -> float:
    """L2 distance between normalized true and estimated group-share
    vectors — Sample+Seek's error metric."""
    keys = sorted(truth, key=str)
    t = np.asarray([truth[k] for k in keys], dtype=np.float64)
    by_key = {a.key: a.value for a in answers}
    e = np.asarray([by_key.get(k, 0.0) for k in keys], dtype=np.float64)
    t_norm = t / t.sum() if t.sum() else t
    e_norm = e / e.sum() if e.sum() else e
    return float(np.linalg.norm(t_norm - e_norm))

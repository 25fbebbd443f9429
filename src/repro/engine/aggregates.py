"""Aggregate functions and grouped reduction kernels.

The engine supports the standard SQL aggregates. The AQP layers classify
them the way the survey does: *linear* aggregates (SUM, COUNT, AVG) admit
unbiased sampling estimators with CLT error analysis, whereas MIN/MAX and
COUNT DISTINCT do not — that asymmetry is the root of several of the
paper's "no silver bullet" arguments (experiments E5, E14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.exceptions import PlanError
from .expressions import Expression, Literal
from .table import DictEncoding, Table

#: Aggregates for which sampling yields unbiased, CLT-analyzable estimates.
LINEAR_AGGREGATES = frozenset({"sum", "count", "avg"})

#: All aggregates the engine can execute exactly.
SUPPORTED_AGGREGATES = frozenset(
    {"sum", "count", "avg", "min", "max", "var", "stddev", "count_distinct"}
)


@dataclass
class AggregateSpec:
    """One aggregate in a SELECT list.

    ``func`` is lower-case; ``argument`` is ``None`` only for ``COUNT(*)``.
    """

    func: str
    argument: Optional[Expression]
    alias: str
    distinct: bool = False

    def __post_init__(self) -> None:
        func = self.func.lower()
        if func == "count" and self.distinct:
            func = "count_distinct"
        if func not in SUPPORTED_AGGREGATES:
            raise PlanError(f"unsupported aggregate function {self.func!r}")
        self.func = func
        if func != "count" and func != "count_distinct" and self.argument is None:
            raise PlanError(f"{func.upper()} requires an argument")

    @property
    def is_linear(self) -> bool:
        return self.func in LINEAR_AGGREGATES

    def input_values(self, table: Table) -> np.ndarray:
        """Per-row input to the aggregate. COUNT(*) contributes 1 per row."""
        if self.argument is None:
            return np.ones(table.num_rows, dtype=np.float64)
        return self.argument.evaluate(table)

    def columns(self) -> frozenset:
        if self.argument is None:
            return frozenset()
        return self.argument.columns()

    def __repr__(self) -> str:
        inner = "*" if self.argument is None else repr(self.argument)
        distinct = "DISTINCT " if self.func == "count_distinct" else ""
        return f"{self.func.upper()}({distinct}{inner}) AS {self.alias}"


# ----------------------------------------------------------------------
# Factorization and group encoding
# ----------------------------------------------------------------------

#: Integer-like dtype kinds eligible for the offset-and-bincount path.
_INT_KINDS = frozenset("iub")

#: Combined group codes stay comfortably inside int64.
_PACK_LIMIT = 2 ** 62

#: A factorize input: a value array, or a string column's codes under a
#: sorted dictionary that covers it.
Key = Union[np.ndarray, DictEncoding]


def _int_offsets(values: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """``(values - lo, lo, span)`` for integer keys whose span is at most
    the row count, else ``None``; a bincount over the span then costs no
    more than the rows themselves."""
    if values.dtype.kind not in _INT_KINDS or len(values) == 0:
        return None
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= len(values):
        return None
    if values.dtype.kind == "u":
        offsets = (values - values.dtype.type(lo)).astype(np.intp)
    else:
        offsets = np.subtract(values, lo, dtype=np.intp)
    return offsets, lo, hi - lo + 1


def _int_uniques(used: np.ndarray, lo: int, dtype: np.dtype) -> np.ndarray:
    positions = np.flatnonzero(used)
    if dtype.kind == "u":
        return positions.astype(dtype) + dtype.type(lo)
    return (positions + lo).astype(dtype)


def factorize(key: Key) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, bitwise, without the sort.

    Returns ``(uniques, inverse)``: the sorted distinct values and each
    row's position among them (``intp``). Three paths:

    * a :class:`DictEncoding` compacts the dictionary entries its codes
      use (``bincount > 0``);
    * integer/bool keys whose span is at most the row count use an
      offset plus ``bincount``;
    * otherwise strings are factorized through a hash table and sorted
      distinct values, and everything else (floats, mixed objects) goes
      to ``np.unique`` itself — so NaN handling and the exceptions
      unorderable values raise are exactly ``np.unique``'s.
    """
    if isinstance(key, DictEncoding):
        codes, dictionary = key
        used = np.bincount(codes, minlength=len(dictionary)) > 0
        if used.all():
            return dictionary.copy(), codes.astype(np.intp)
        return dictionary[used], (np.cumsum(used) - 1)[codes]
    values = np.asarray(key)
    packed = _int_offsets(values)
    if packed is not None:
        offsets, lo, span = packed
        used = np.bincount(offsets, minlength=span) > 0
        uniques = _int_uniques(used, lo, values.dtype)
        if used.all():
            return uniques, offsets
        return uniques, (np.cumsum(used) - 1)[offsets]
    if values.dtype == object and len(values):
        items = values.tolist()
        distinct = dict.fromkeys(items)
        if all(type(v) is str for v in distinct):
            ordered = sorted(distinct)
            rank = dict(zip(ordered, range(len(ordered))))
            inverse = np.fromiter(
                map(rank.__getitem__, items), dtype=np.intp, count=len(items)
            )
            return np.array(ordered, dtype=object), inverse
    return np.unique(values, return_inverse=True)


def value_counts(key: Key) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_counts=True)``, bitwise — by bincount
    over codes or small-span integers, by ``np.unique`` otherwise."""
    if isinstance(key, DictEncoding):
        codes, dictionary = key
        counts = np.bincount(codes, minlength=len(dictionary))
        used = counts > 0
        return dictionary[used], counts[used]
    values = np.asarray(key)
    packed = _int_offsets(values)
    if packed is None:
        return np.unique(values, return_counts=True)
    offsets, lo, span = packed
    counts = np.bincount(offsets, minlength=span)
    used = counts > 0
    return _int_uniques(used, lo, values.dtype), counts[used]


def column_key(table, name: str) -> Key:
    """A column as a :func:`factorize` key: its dictionary codes when it
    has them, else its values. ``table`` is a Table or a fused relation."""
    enc = table.codes_of(name)
    return enc if enc is not None else table[name]


def take_key(key: Key, selector) -> Key:
    """The rows ``selector`` picks out of a factorize key."""
    if isinstance(key, DictEncoding):
        return DictEncoding(key.codes[selector], key.dictionary)
    return key[selector]


def key_length(key: Key) -> int:
    return len(key.codes) if isinstance(key, DictEncoding) else len(key)


def _key_dtype(key: Key) -> np.dtype:
    return key.dictionary.dtype if isinstance(key, DictEncoding) else key.dtype


def encode_groups_arrays(
    key_arrays: Sequence[Key],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Map composite keys to dense group ids, columnar key output.

    Returns ``(group_ids, key_columns)`` where ``key_columns[pos][g]`` is
    the value of key column ``pos`` for group ``g``. Each key is a value
    array or a string column's :class:`DictEncoding`. This is the kernel
    behind :func:`encode_groups`; the fused executor uses it directly so
    grouped aggregation never builds per-row (or even per-group) Python
    tuples.

    Every key is factorized (:func:`factorize`), the per-key codes are
    combined into one integer per row with the rightmost key varying
    fastest, and the combined codes are factorized once more. Groups
    therefore come out in lexicographic order of the key values, the
    order ``np.unique`` gives a single key.
    """
    if not key_arrays:
        raise PlanError("encode_groups requires at least one key array")
    keys = [k if isinstance(k, DictEncoding) else np.asarray(k) for k in key_arrays]
    n = key_length(keys[0])
    if n == 0:
        return np.array([], dtype=np.int64), [
            np.array([], dtype=_key_dtype(k)) for k in keys
        ]
    if len(keys) == 1:
        uniques, inverse = factorize(keys[0])
        return inverse.astype(np.int64, copy=False), [uniques]
    levels: List[np.ndarray] = []
    codes: List[np.ndarray] = []
    combined = np.zeros(n, dtype=np.intp)
    size = 1
    for key in keys:
        level, code = factorize(key)
        if size * len(level) > _PACK_LIMIT:
            uniq, combined = factorize(combined)
            size = len(uniq)
        combined = combined * len(level) + code
        size *= len(level)
        levels.append(level)
        codes.append(code)
    uniq, inverse = factorize(combined)
    # One representative row per group decodes every key column.
    rows = np.empty(len(uniq), dtype=np.intp)
    rows[inverse] = np.arange(n)
    return inverse.astype(np.int64, copy=False), [
        level[code[rows]] for level, code in zip(levels, codes)
    ]


def encode_groups(key_arrays: Sequence[Key]) -> Tuple[np.ndarray, List[Tuple]]:
    """Map composite keys to dense group ids.

    Returns ``(group_ids, key_tuples)`` where ``group_ids[i]`` indexes into
    ``key_tuples``. Keys are ordered by first appearance is *not* guaranteed;
    they follow numpy's sort order, which is fine because SQL group order is
    unspecified.

    This is the tuple-producing facade over :func:`encode_groups_arrays`
    (which callers on hot paths should prefer — it skips building Python
    tuples entirely).
    """
    group_ids, key_columns = encode_groups_arrays(key_arrays)
    if len(group_ids) == 0:
        return group_ids, []
    if len(key_columns) == 1:
        return group_ids, [(u,) for u in key_columns[0].tolist()]
    return group_ids, list(zip(*key_columns))


# ----------------------------------------------------------------------
# Grouped kernels
# ----------------------------------------------------------------------

def grouped_sum(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    return np.bincount(group_ids, weights=vals, minlength=num_groups)


def grouped_count(group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=num_groups).astype(np.float64)


def grouped_min(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    out = np.full(num_groups, np.inf)
    np.minimum.at(out, group_ids, np.asarray(values, dtype=np.float64))
    return out


def grouped_max(group_ids: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    out = np.full(num_groups, -np.inf)
    np.maximum.at(out, group_ids, np.asarray(values, dtype=np.float64))
    return out


def grouped_var(
    group_ids: np.ndarray, values: np.ndarray, num_groups: int, ddof: int = 1
) -> np.ndarray:
    """Per-group sample variance (ddof=1), NaN for singleton groups."""
    vals = np.asarray(values, dtype=np.float64)
    counts = np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    sums = np.bincount(group_ids, weights=vals, minlength=num_groups)
    sumsq = np.bincount(group_ids, weights=vals * vals, minlength=num_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        ss = sumsq - counts * means * means
        ss = np.maximum(ss, 0.0)  # guard tiny negative round-off
        denom = counts - ddof
        var = np.where(denom > 0, ss / np.maximum(denom, 1), np.nan)
    return var


def grouped_count_distinct(
    group_ids: np.ndarray, values: np.ndarray, num_groups: int
) -> np.ndarray:
    """Exact per-group distinct counts via (group, value) dedup."""
    if len(values) == 0:
        return np.zeros(num_groups, dtype=np.float64)
    # Factorize values to integer codes so lexsort works for any dtype.
    _, value_codes = factorize(values)
    order = np.lexsort((value_codes, group_ids))
    g = group_ids[order]
    v = value_codes[order]
    new_pair = np.ones(len(v), dtype=bool)
    new_pair[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    return np.bincount(g[new_pair], minlength=num_groups).astype(np.float64)


def compute_aggregate_values(
    spec: AggregateSpec, values: Optional[np.ndarray], num_rows: int
) -> float:
    """Ungrouped (scalar) aggregate over a value vector.

    ``values`` may be ``None`` only for plain COUNT, which needs just the
    row count. This is the kernel behind :func:`compute_aggregate`; the
    fused executor calls it directly on masked column views so no Table
    wrapper is ever allocated.
    """
    if spec.func == "count":
        return float(num_rows)
    if spec.func == "count_distinct":
        return float(len(np.unique(values)))
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) == 0:
        return 0.0 if spec.func == "sum" else float("nan")
    if spec.func == "sum":
        return float(np.sum(vals))
    if spec.func == "avg":
        return float(np.mean(vals))
    if spec.func == "min":
        return float(np.min(vals))
    if spec.func == "max":
        return float(np.max(vals))
    if spec.func == "var":
        return float(np.var(vals, ddof=1)) if len(vals) > 1 else float("nan")
    if spec.func == "stddev":
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else float("nan")
    raise PlanError(f"unreachable aggregate {spec.func!r}")


def compute_aggregate(spec: AggregateSpec, table: Table) -> float:
    """Ungrouped (scalar) aggregate over a table."""
    values = None if spec.func == "count" else spec.input_values(table)
    return compute_aggregate_values(spec, values, table.num_rows)


def compute_grouped_aggregate_values(
    spec: AggregateSpec,
    values: Optional[np.ndarray],
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-group aggregates over a value vector aligned with ``group_ids``.

    ``values`` may be ``None`` only for plain COUNT. Kernel behind
    :func:`compute_grouped_aggregate`, shared with the fused executor.
    """
    if spec.func == "count":
        return grouped_count(group_ids, num_groups)
    if spec.func == "count_distinct":
        return grouped_count_distinct(group_ids, values, num_groups)
    if spec.func == "sum":
        return grouped_sum(group_ids, values, num_groups)
    if spec.func == "avg":
        counts = grouped_count(group_ids, num_groups)
        sums = grouped_sum(group_ids, values, num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if spec.func == "min":
        return grouped_min(group_ids, values, num_groups)
    if spec.func == "max":
        return grouped_max(group_ids, values, num_groups)
    if spec.func == "var":
        return grouped_var(group_ids, values, num_groups)
    if spec.func == "stddev":
        return np.sqrt(grouped_var(group_ids, values, num_groups))
    raise PlanError(f"unreachable aggregate {spec.func!r}")


def compute_grouped_aggregate(
    spec: AggregateSpec,
    table: Table,
    group_ids: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Per-group aggregate values aligned with group ids 0..num_groups-1."""
    values = None if spec.func == "count" else spec.input_values(table)
    return compute_grouped_aggregate_values(spec, values, group_ids, num_groups)

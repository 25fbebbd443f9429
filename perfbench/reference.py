"""Query descriptions, their SQL text, and independent reference answers.

A :class:`Query` describes one aggregate query structurally (predicates,
group keys, aggregates). The benchmark renders its SQL text for the
program and evaluates the same description in plain numpy over the
columns it generated (a :class:`View`), without calling the program.
:func:`score` then checks a program answer against that reference:
exact answers must match to a floating-point tolerance; approximate
answers are scored by whether each cell's interval covers the reference
value and by relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

Key = Tuple[object, ...]
Answer = Dict[Key, Dict[str, float]]

#: exact answers may differ from the reference only by summation order
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-6


@dataclass(frozen=True)
class Pred:
    """``column op value``; ``between`` is inclusive on both ends."""

    column: str
    op: str
    value: object
    high: object = None


@dataclass(frozen=True)
class Agg:
    """``func(product of columns) AS alias``; ``count`` takes no columns."""

    alias: str
    func: str
    columns: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Query:
    """One aggregate query; ``shape`` names its class for reporting."""

    shape: str
    from_sql: str
    keys: Tuple[str, ...]
    aggs: Tuple[Agg, ...]
    preds: Tuple[Pred, ...] = ()
    #: relative error of an ``ERROR WITHIN`` clause, or None for exact
    error: Optional[float] = None
    #: column -> SQL spelling (qualified names in joins)
    spelling: Tuple[Tuple[str, str], ...] = ()
    sql: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sql", render(self))

    @property
    def approximate(self) -> bool:
        return self.error is not None

    @property
    def shape_key(self) -> str:
        """The shape, with ``~`` marking the ``ERROR WITHIN`` variant."""
        return self.shape + ("~" if self.approximate else "")


def _literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render(q: Query) -> str:
    names = dict(q.spelling)

    def col(c: str) -> str:
        return names.get(c, c)

    items = [
        f"{col(k)} AS {k}" if col(k) != k else k for k in q.keys
    ]
    for a in q.aggs:
        arg = " * ".join(col(c) for c in a.columns) if a.columns else "*"
        items.append(f"{a.func.upper()}({arg}) AS {a.alias}")
    parts = [f"SELECT {', '.join(items)} FROM {q.from_sql}"]
    conds = []
    for p in q.preds:
        if p.op == "between":
            conds.append(
                f"{col(p.column)} BETWEEN {_literal(p.value)} AND {_literal(p.high)}"
            )
        else:
            conds.append(f"{col(p.column)} {p.op} {_literal(p.value)}")
    if conds:
        parts.append("WHERE " + " AND ".join(conds))
    if q.keys:
        parts.append("GROUP BY " + ", ".join(col(k) for k in q.keys))
    if q.error is not None:
        parts.append(f"ERROR WITHIN {q.error * 100:g}% CONFIDENCE 95%")
    return " ".join(parts)


class View:
    """Columns aligned to the rows of one fact relation.

    ``codes`` holds ``(codes, labels)`` for string columns (and for
    dimension attributes reached through a join), so the reference groups
    on small integers instead of Python strings.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        codes: Dict[str, Tuple[np.ndarray, np.ndarray]],
        rows: Optional[int] = None,
    ) -> None:
        self.columns = columns
        self.codes = codes
        self.rows = (
            rows if rows is not None else len(next(iter(columns.values())))
        )

    def column(self, name: str) -> np.ndarray:
        return self.columns[name][: self.rows]

    def coded(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        if name in self.codes:
            codes, labels = self.codes[name]
            return codes[: self.rows], labels
        values = self.column(name)
        lo = int(values.min())
        return values - lo, np.arange(int(values.max()) - lo + 1) + lo

    def prefix(self, rows: int) -> "View":
        return View(self.columns, self.codes, rows)


def _mask(p: Pred, view: View) -> np.ndarray:
    if isinstance(p.value, str):
        codes, labels = view.coded(p.column)
        hit = np.flatnonzero(labels == p.value)
        if p.op != "=" or len(hit) != 1:
            raise ValueError(f"unsupported string predicate {p}")
        return codes == hit[0]
    v = view.column(p.column)
    if p.op == "between":
        return (v >= p.value) & (v <= p.high)
    return {
        "<": np.less, "<=": np.less_equal, ">": np.greater,
        ">=": np.greater_equal, "=": np.equal,
    }[p.op](v, p.value)


def evaluate(q: Query, view: View) -> Answer:
    """The exact answer, computed from the generated columns only."""
    mask = np.ones(view.rows, dtype=bool)
    for p in q.preds:
        mask &= _mask(p, view)
    dims: List[int] = []
    labels_of: List[np.ndarray] = []
    code = np.zeros(int(mask.sum()), dtype=np.int64)
    for k in q.keys:
        codes, labels = view.coded(k)
        code = code * len(labels) + codes[mask]
        dims.append(len(labels))
        labels_of.append(labels)
    size = int(np.prod(dims)) if dims else 1
    counts = np.bincount(code, minlength=size).astype(np.float64)
    present = np.flatnonzero(counts) if q.keys else np.array([0])
    values: Dict[str, np.ndarray] = {}
    for a in q.aggs:
        if a.func == "count":
            values[a.alias] = counts
            continue
        x = view.column(a.columns[0])[mask].astype(np.float64)
        for c in a.columns[1:]:
            x = x * view.column(c)[mask]
        sums = np.bincount(code, weights=x, minlength=size)
        if a.func == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                sums = sums / counts
        values[a.alias] = sums
    out: Answer = {}
    coords = np.unravel_index(present, dims) if dims else ()
    for i, g in enumerate(present):
        key = tuple(
            _plain(labels_of[j][coords[j][i]]) for j in range(len(q.keys))
        )
        out[key] = {a: float(v[g]) for a, v in values.items()}
    return out


def _plain(value: object) -> object:
    return value.item() if isinstance(value, np.generic) else value


@dataclass
class Score:
    """How one answer compares to its reference."""

    failure: Optional[str] = None
    approximate: bool = False
    cells: int = 0
    covered: int = 0
    rel_errors: List[float] = field(default_factory=list)


def answer_of(q: Query, result) -> Dict[Key, int]:
    """Row index of each group key in a program result."""
    table = result.table
    key_cols = [np.asarray(table[k]).tolist() for k in q.keys]
    return {
        tuple(col[i] for col in key_cols): i for i in range(table.num_rows)
    }


def score(q: Query, result, ref: Answer) -> Score:
    rows = answer_of(q, result)
    s = Score(approximate=bool(result.is_approximate))
    if len(rows) != result.table.num_rows:
        s.failure = "duplicate group keys"
        return s
    extra = set(rows) - set(ref)
    if extra:
        s.failure = f"groups absent from the reference: {sorted(map(str, extra))[:3]}"
        return s
    if not s.approximate:
        if set(rows) != set(ref):
            s.failure = f"missing groups: {sorted(map(str, set(ref) - set(rows)))[:3]}"
            return s
        for key, i in rows.items():
            for a in q.aggs:
                got = float(result.table[a.alias][i])
                want = ref[key][a.alias]
                if not math.isclose(got, want, rel_tol=EXACT_RTOL, abs_tol=EXACT_ATOL):
                    s.failure = f"{a.alias}{key}: got {got!r}, want {want!r}"
                    return s
        return s
    for key, cells in ref.items():
        i = rows.get(key)
        for a in q.aggs:
            want = cells[a.alias]
            s.cells += 1
            if i is None:
                continue  # a group the sample missed: the interval missed too
            got = float(result.table[a.alias][i])
            lo, hi = result.ci(a.alias, i)
            slack = EXACT_RTOL * abs(want)
            if lo - slack <= want <= hi + slack:
                s.covered += 1
            if want != 0 and math.isfinite(got):
                s.rel_errors.append(abs(got - want) / abs(want))
    return s

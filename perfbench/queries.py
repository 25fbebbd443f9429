"""The query streams of the four workloads, drawn from the workload seed.

Each function returns :class:`~reference.Query` descriptions; literals vary
with the seed and the round, shapes and their mix are fixed, so every run
measures the same mix of work.
"""

from __future__ import annotations

from typing import List

import numpy as np

from reference import Agg, Pred, Query

SUM, COUNT, AVG = "sum", "count", "avg"

LINEITEM_NATION = (
    "lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey "
    "JOIN nation n ON s.s_nationkey = n.n_nationkey"
)
LINEITEM_ORDERS = "lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey"
CUSTOMER_NATION = "customer c JOIN nation n ON c.c_nationkey = n.n_nationkey"


def _qualified(prefix: str, *columns: str):
    return tuple((c, f"{prefix}.{c}") for c in columns)


#: the golden-ratio step of a Weyl sequence
GOLDEN = (5 ** 0.5 - 1) / 2


class Literals:
    """Literal draws for a stream of query rounds.

    The k-th draw of every round walks its own Weyl sequence: a seeded
    offset plus the round number times the golden ratio, modulo 1. So
    each run spreads each literal evenly over its range, and a shape's
    median cost is the same from seed to seed instead of depending on
    which handful of literals a short run happened to draw.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.offsets: List[float] = []
        self.round = -1
        self.k = 0

    def next_round(self) -> None:
        self.round += 1
        self.k = 0

    def integers(self, lo: int, hi: int) -> int:
        """An integer in ``[lo, hi)``."""
        if self.k == len(self.offsets):
            self.offsets.append(float(self.rng.random()))
        u = (self.offsets[self.k] + self.round * GOLDEN) % 1.0
        self.k += 1
        return lo + int(u * (hi - lo))


# ----------------------------------------------------------------------
# tpch-scan
# ----------------------------------------------------------------------
#: the cheap tpch-scan shapes (``~`` = ERROR WITHIN), sent this many
#: times per round with fresh literals, so each has as many answers per
#: run as a heavy shape has in three runs
TPCH_LIGHT = (
    "avg_price~", "int_group_linenumber~", "int_group_suppkey",
    "q12_shipmode~", "q6_forecast", "q6_forecast~",
)
TPCH_LIGHT_REPEATS = 3


def tpch_round(rng: Literals) -> List[Query]:
    """Seven ``ERROR WITHIN`` queries (the six TPC-H-lite shapes plus an
    int-keyed GROUP BY) and three exact ones (a filtered string GROUP BY,
    a 2k-group int GROUP BY and q6), then the :data:`TPCH_LIGHT` shapes
    again until each has been sent :data:`TPCH_LIGHT_REPEATS` times.

    Exact q1 is left out: at about 2 s it would take half of every round
    and leave each shape too few answers per run for a steady median. The
    string GROUP BY it stands for is sent exact as q12 here and as
    ``str_group`` in sharded-groupby.

    Literals move selectivities by a few percent only, and ``rng`` spreads
    them evenly over their ranges in every run, so each shape's cost, and
    hence the mix, stays the same from seed to seed."""
    rng.next_round()
    queries = _tpch_queries(rng)
    for _ in range(TPCH_LIGHT_REPEATS - 1):
        queries += [q for q in _tpch_queries(rng) if q.shape_key in TPCH_LIGHT]
    return queries


def _tpch_queries(rng: Literals) -> List[Query]:
    e = 0.05
    d1 = int(rng.integers(2200, 2300))
    d6 = int(rng.integers(100, 1700))
    disc = round(float(rng.integers(3, 8)) / 100, 2)
    d12 = int(rng.integers(1000, 1200))
    join = ("l_extendedprice", "l_shipdate")
    q1 = dict(
        shape="q1_pricing",
        from_sql="lineitem",
        keys=("l_returnflag", "l_linestatus"),
        aggs=(
            Agg("sum_qty", SUM, ("l_quantity",)),
            Agg("sum_price", SUM, ("l_extendedprice",)),
            Agg("avg_qty", AVG, ("l_quantity",)),
            Agg("count_order", COUNT),
        ),
        preds=(Pred("l_shipdate", "<=", d1),),
    )
    q6 = dict(
        shape="q6_forecast",
        from_sql="lineitem",
        keys=(),
        aggs=(Agg("revenue", SUM, ("l_extendedprice", "l_discount")),),
        preds=(
            Pred("l_shipdate", "between", d6, d6 + 365),
            Pred("l_discount", "between", round(disc - 0.01, 2), round(disc + 0.01, 2)),
            Pred("l_quantity", "<", int(rng.integers(20, 30))),
        ),
    )
    q12 = dict(
        shape="q12_shipmode",
        from_sql="lineitem",
        keys=("l_shipmode",),
        aggs=(Agg("line_count", COUNT), Agg("total", SUM, ("l_extendedprice",))),
        preds=(Pred("l_shipdate", ">", d12),),
    )
    return [
        Query(**q1, error=e),
        Query(**q6, error=e),
        Query(
            shape="q5_volume",
            from_sql=LINEITEM_NATION,
            keys=("n_name",),
            aggs=(Agg("revenue", SUM, ("l_extendedprice",)),),
            preds=(Pred("l_shipdate", "<", int(rng.integers(2000, 2300))),),
            spelling=(("n_name", "n.n_name"),) + _qualified("l", *join),
            error=e,
        ),
        Query(**q12, error=e),
        Query(
            shape="avg_price",
            from_sql="lineitem",
            keys=(),
            aggs=(Agg("avg_price", AVG, ("l_extendedprice",)),),
            preds=(Pred("l_shipdate", "<", int(rng.integers(1800, 2100))),),
            error=e,
        ),
        Query(
            shape="priority_revenue",
            from_sql=LINEITEM_ORDERS,
            keys=("o_orderpriority",),
            aggs=(Agg("rev", SUM, ("l_extendedprice",)),),
            preds=(Pred("l_shipdate", ">", int(rng.integers(300, 500))),),
            spelling=(("o_orderpriority", "o.o_orderpriority"),)
            + _qualified("l", *join),
            error=e,
        ),
        Query(
            shape="int_group_linenumber",
            from_sql="lineitem",
            keys=("l_linenumber",),
            aggs=(Agg("qty", SUM, ("l_quantity",)), Agg("cnt", COUNT)),
            preds=(Pred("l_shipdate", "<", int(rng.integers(1900, 2200))),),
            error=e,
        ),
        Query(**q6),
        Query(**q12),
        Query(
            shape="int_group_suppkey",
            from_sql="lineitem",
            keys=("l_suppkey",),
            aggs=(Agg("qty", SUM, ("l_quantity",)), Agg("cnt", COUNT)),
            preds=(Pred("l_shipdate", "<", int(rng.integers(1900, 2200))),),
        ),
    ]


# ----------------------------------------------------------------------
# short-queries
# ----------------------------------------------------------------------
def short_query(rng: np.random.Generator, shape: int, unique: int,
                strata=None) -> Query:
    """One small-table query. ``unique`` (≥ 0) makes a literal no pooled
    query uses, so the text and its kernel signature are new. ``strata``
    (two fractions in [0, 1)) places the literals instead of drawing them,
    so every seed's pool spans the same selectivities."""
    u, v = strata if strata is not None else rng.random(2)
    base = float(int(900 * u))
    x = round(base + (unique + 1) * 1e-4, 4) if unique >= 0 else base
    size = 5 + int(40 * v)
    error = 0.05 if shape % 4 == 3 else None
    if shape % 6 == 0:
        return Query(
            shape="part_brand",
            from_sql="part",
            keys=("p_brand",),
            aggs=(Agg("n", COUNT), Agg("avg_price", AVG, ("p_retailprice",))),
            preds=(Pred("p_size", "<", size), Pred("p_retailprice", ">", 900 + x)),
            error=error,
        )
    if shape % 6 == 1:
        return Query(
            shape="part_sum",
            from_sql="part",
            keys=(),
            aggs=(Agg("total", SUM, ("p_retailprice",)),),
            preds=(Pred("p_size", "between", size - 4, size + 5), Pred("p_retailprice", ">", 900 + x)),
            error=error,
        )
    if shape % 6 == 2:
        return Query(
            shape="customer_segment",
            from_sql="customer",
            keys=("c_mktsegment",),
            aggs=(Agg("bal", SUM, ("c_acctbal",)), Agg("n", COUNT)),
            preds=(Pred("c_acctbal", ">", x),),
            error=error,
        )
    if shape % 6 == 3:
        return Query(
            shape="customer_nation_join",
            from_sql=CUSTOMER_NATION,
            keys=("n_name",),
            aggs=(Agg("n", COUNT), Agg("bal", SUM, ("c_acctbal",))),
            preds=(Pred("c_acctbal", ">", x),),
            spelling=(("n_name", "n.n_name"), ("c_acctbal", "c.c_acctbal")),
            error=error,
        )
    if shape % 6 == 4:
        return Query(
            shape="supplier_int_group",
            from_sql="supplier",
            keys=("s_nationkey",),
            aggs=(Agg("bal", SUM, ("s_acctbal",)), Agg("n", COUNT)),
            preds=(Pred("s_acctbal", "<", 5000 + x),),
            error=error,
        )
    return Query(
        shape="part_size_int_group",
        from_sql="part",
        keys=("p_size",),
        aggs=(Agg("n", COUNT), Agg("price", SUM, ("p_retailprice",))),
        preds=(Pred("p_retailprice", ">", 900 + x),),
        error=error,
    )


def short_pool(rng: np.random.Generator, size: int = 64) -> List[Query]:
    """The repeated texts; their literals are stratified, one per
    ``1/size`` slice of each literal's range, in a seeded order."""
    u = (rng.permutation(size) + rng.random(size)) / size
    v = (rng.permutation(size) + rng.random(size)) / size
    return [short_query(rng, i, -1, (u[i], v[i])) for i in range(size)]


# ----------------------------------------------------------------------
# sharded-groupby
# ----------------------------------------------------------------------
def sharded_round(rng: Literals) -> List[Query]:
    """One round of the four query classes, three of each, named by
    ``shape``: ``ungrouped``, ``sample`` (ungrouped, answered from
    per-shard samples), ``int_group`` (2k groups) and ``str_group``."""
    rng.next_round()

    def ungrouped(error=None):
        return Query(
            shape="sample" if error else "ungrouped",
            from_sql="lineitem",
            keys=(),
            aggs=(Agg("s", SUM, ("l_extendedprice",)), Agg("c", COUNT)),
            preds=(Pred("l_shipdate", "<", int(rng.integers(1800, 2200))),),
            error=error,
        )

    def int_group():
        return Query(
            shape="int_group",
            from_sql="lineitem",
            keys=("l_suppkey",),
            aggs=(Agg("q", SUM, ("l_quantity",)), Agg("c", COUNT)),
            preds=(Pred("l_shipdate", "<", int(rng.integers(1900, 2200))),),
        )

    def str_group():
        return Query(
            shape="str_group",
            from_sql="lineitem",
            keys=("l_shipmode",),
            aggs=(Agg("s", SUM, ("l_extendedprice",)), Agg("c", COUNT)),
            preds=(Pred("l_quantity", "<", int(rng.integers(40, 50))),),
        )

    return [
        q
        for _ in range(3)
        for q in (ungrouped(), int_group(), str_group(), ungrouped(0.1))
    ]


# ----------------------------------------------------------------------
# serving-ingest
# ----------------------------------------------------------------------
#: group columns the BlinkDB samples are stratified on
DASHBOARD_STRATA = ("country", "device")


def serving_query(rng: np.random.Generator, kind: str) -> Query:
    """``dashboard_<column>`` (covered by a stratified sample),
    ``grouped`` (uncovered, online sampling), ``exact_page`` and
    ``exact_page_group``, and ``deadline`` (the ``grouped`` query sent
    with a deadline shorter than its unloaded service time)."""
    if kind.startswith("dashboard_"):
        col = kind[len("dashboard_"):]
        return Query(
            shape=f"dashboard_{col}",
            from_sql="events",
            keys=(col,),
            aggs=(Agg("rev", SUM, ("revenue",)), Agg("n", COUNT)),
            error=0.1,
        )
    if kind in ("grouped", "deadline"):
        return Query(
            shape=f"{kind}_page",
            from_sql="events",
            keys=("page",),
            aggs=(Agg("rev", SUM, ("revenue",)),),
            preds=(Pred("page", "<", int(rng.integers(5, 7))),),
            error=0.1,
        )
    if kind == "exact_page":
        return Query(
            shape="exact_page",
            from_sql="events",
            keys=(),
            aggs=(Agg("rev", SUM, ("revenue",)), Agg("n", COUNT)),
            preds=(Pred("page", "=", int(rng.integers(0, 20))),),
        )
    return Query(
        shape="exact_page_group",
        from_sql="events",
        keys=("page",),
        aggs=(Agg("n", COUNT), Agg("rev", SUM, ("revenue",))),
        preds=(
            Pred("ev_time", ">", int(rng.integers(140_000, 160_000))),
            Pred("page", "<", int(rng.integers(34, 37))),
        ),
    )


#: one cycle of the serving workload's queries, shuffled by the seed,
#: so every run sends the same mix; every ``APPEND_EVERY``-th operation
#: is an append, so every run spaces its writes the same way
SERVING_CYCLE = (
    ("dashboard_country", 6),
    ("dashboard_device", 2),
    ("grouped", 5),
    ("exact_page", 1),
    ("exact_page_group", 4),
    ("deadline", 1),
)
APPEND_EVERY = 40
#: phases are whole multiples of this many operations
SERVING_CYCLE_OPS = 20


def serving_ops(rng: np.random.Generator, count: int) -> List[object]:
    """``count`` operations: a :class:`Query`, or the string ``"append"``."""
    cycle = [kind for kind, n in SERVING_CYCLE for _ in range(n)]
    pending: List[str] = []
    ops: List[object] = []
    while len(ops) < count:
        if len(ops) % APPEND_EVERY == APPEND_EVERY - 1:
            ops.append("append")
            continue
        if not pending:
            pending = [cycle[i] for i in rng.permutation(len(cycle))]
        ops.append(serving_query(rng, pending.pop()))
    return ops

"""Seeded input generation for the benchmark.

The benchmark generates every column itself, in plain numpy, so that the
reference answers (see ``reference.py``) are computed from exactly the
arrays the program was given and never from the program's own output.
The same seed always yields the same arrays.

``tpch_lite`` follows the TPC-H-lite schema the program ships
(``repro.workloads.tpch``): scale 1 is about 60k ``lineitem`` rows, the
dimension tables keep the TPC-H size ratios and string vocabularies.
``clickstream`` is a skewed web-events table for the serving workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUS = ["F", "O"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]

#: order dates are integer day offsets, as in the program's TPC-H-lite
DATE_HI = 2406

Columns = Dict[str, np.ndarray]


class Dataset:
    """Generated tables plus, for every string column, the integer codes
    and vocabulary it was drawn from (the reference groups on codes)."""

    def __init__(self) -> None:
        self.tables: Dict[str, Columns] = {}
        self.codes: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def strings(self, rng, column: str, vocab, n: int, p=None) -> np.ndarray:
        codes = rng.choice(len(vocab), n, p=p) if p is not None else rng.integers(
            0, len(vocab), n
        )
        labels = np.asarray(vocab, dtype=object)
        self.codes[column] = (codes, labels)
        return labels[codes]


def tpch_lite(scale: float, seed: int) -> Dataset:
    """The seven TPC-H-lite tables (only the columns the queries use)."""
    rng = np.random.default_rng([seed, 1])
    n_orders = max(int(15_000 * scale), 100)
    n_customers = max(int(1_500 * scale), 50)
    n_parts = max(int(2_000 * scale), 50)
    n_suppliers = max(int(100 * scale), 10)

    ds = Dataset()
    ds.tables["region"] = {
        "r_regionkey": np.arange(len(REGIONS), dtype=np.int64),
        "r_name": np.asarray(REGIONS, dtype=object),
    }
    ds.codes["r_name"] = (
        np.arange(len(REGIONS)), np.asarray(REGIONS, dtype=object)
    )
    nation_names = [n for n, _ in NATIONS]
    ds.codes["n_name"] = (
        np.arange(len(NATIONS)), np.asarray(nation_names, dtype=object)
    )
    ds.tables["nation"] = {
        "n_nationkey": np.arange(len(NATIONS), dtype=np.int64),
        "n_name": np.asarray(nation_names, dtype=object),
        "n_regionkey": np.asarray([r for _, r in NATIONS], dtype=np.int64),
    }
    ds.tables["supplier"] = {
        "s_suppkey": np.arange(n_suppliers, dtype=np.int64),
        "s_nationkey": rng.integers(0, len(NATIONS), n_suppliers),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_suppliers), 2),
    }
    retail = np.round(900.0 + rng.uniform(0, 1200, n_parts), 2)
    ds.tables["part"] = {
        "p_partkey": np.arange(n_parts, dtype=np.int64),
        "p_brand": ds.strings(rng, "p_brand", BRANDS, n_parts),
        "p_size": rng.integers(1, 51, n_parts),
        "p_retailprice": retail,
    }
    ds.tables["customer"] = {
        "c_custkey": np.arange(n_customers, dtype=np.int64),
        "c_nationkey": rng.integers(0, len(NATIONS), n_customers),
        "c_mktsegment": ds.strings(rng, "c_mktsegment", SEGMENTS, n_customers),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_customers), 2),
    }
    o_orderdate = rng.integers(0, DATE_HI - 150, n_orders)
    ds.tables["orders"] = {
        "o_orderkey": np.arange(n_orders, dtype=np.int64),
        "o_custkey": rng.integers(0, n_customers, n_orders),
        "o_orderdate": o_orderdate,
        "o_orderpriority": ds.strings(
            rng, "o_orderpriority", PRIORITIES, n_orders
        ),
        "o_totalprice": np.round(rng.lognormal(10.0, 0.6, n_orders), 2),
    }
    per_order = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(np.arange(n_orders, dtype=np.int64), per_order)
    n = len(l_orderkey)
    starts = np.repeat(np.cumsum(per_order) - per_order, per_order)
    l_quantity = rng.integers(1, 51, n).astype(np.float64)
    l_partkey = rng.integers(0, n_parts, n)
    ds.tables["lineitem"] = {
        "l_orderkey": l_orderkey,
        "l_partkey": l_partkey,
        "l_suppkey": rng.integers(0, n_suppliers, n),
        "l_linenumber": np.arange(n, dtype=np.int64) - starts + 1,
        "l_quantity": l_quantity,
        "l_extendedprice": np.round(l_quantity * retail[l_partkey] / 10.0, 2),
        "l_discount": np.round(rng.uniform(0.0, 0.10, n), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, n), 2),
        "l_returnflag": ds.strings(rng, "l_returnflag", RETURN_FLAGS, n),
        "l_linestatus": ds.strings(rng, "l_linestatus", LINE_STATUS, n),
        "l_shipdate": o_orderdate[l_orderkey] + rng.integers(1, 122, n),
        "l_shipmode": ds.strings(rng, "l_shipmode", SHIP_MODES, n),
    }
    return ds


COUNTRIES = ["US", "DE", "IN", "BR", "JP", "FR", "GB", "CA"]
COUNTRY_SHARE = [0.30, 0.18, 0.16, 0.12, 0.08, 0.07, 0.05, 0.04]
DEVICES = ["desktop", "mobile", "tablet"]
PAGES = 500


def clickstream(rows: int, seed: int) -> Dataset:
    """An ``events`` table: country/device strata, a Zipf-skewed page id,
    latency and revenue measures, and a monotone event time.

    The serving workload registers a prefix of these rows and appends the
    rest in fixed-size batches, so every table version is a prefix.
    """
    rng = np.random.default_rng([seed, 2])
    ds = Dataset()
    page = np.minimum(rng.zipf(1.3, rows), PAGES) - 1
    ds.tables["events"] = {
        "ev_time": np.arange(rows, dtype=np.int64),
        "country": ds.strings(rng, "country", COUNTRIES, rows, p=COUNTRY_SHARE),
        "device": ds.strings(rng, "device", DEVICES, rows),
        "page": page.astype(np.int64),
        "latency_ms": np.round(rng.gamma(2.0, 40.0, rows), 3),
        "revenue": np.round(rng.exponential(5.0, rows), 2),
    }
    return ds

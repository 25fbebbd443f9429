"""Dictionary-encoded string columns and the ``factorize`` kernel.

``factorize`` must be bitwise ``np.unique(..., return_inverse=True)`` on
every input the engine hands it, and a Table's dictionary encoding —
however it was obtained (computed, or inherited through ``take``,
``slice_rows``, ``select``, ``rename``, ``concat``, sharding, joins or
appends) — must equal a fresh encoding of the column it describes.
Runs with the fused differential suite (``pytest -m fused``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.aggregates import encode_groups_arrays, factorize, value_counts
from repro.engine.table import DictEncoding, Table, code_dtype

pytestmark = pytest.mark.fused

WORDS = ["", "a", "b", "ab", "ba", "é", "Z", "zz", "a b", "AIR", "MAIL"]


def assert_same_arrays(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if want.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def assert_matches_unique(key, values) -> None:
    want_u, want_i = np.unique(values, return_inverse=True)
    got_u, got_i = factorize(key)
    assert_same_arrays(got_u, want_u)
    assert_same_arrays(got_i, want_i)


def fresh(values: np.ndarray) -> DictEncoding:
    uniques, inverse = np.unique(values, return_inverse=True)
    return DictEncoding(inverse.astype(code_dtype(len(uniques))), uniques)


def assert_encoding_fresh(table: Table, name: str) -> None:
    enc = table.encoding(name)
    want = fresh(table[name])
    assert_same_arrays(enc.codes, want.codes)
    assert_same_arrays(enc.dictionary, want.dictionary)


strings = st.lists(st.sampled_from(WORDS), min_size=0, max_size=60).map(
    lambda xs: np.array(xs, dtype=object)
)


# --- factorize == np.unique ---------------------------------------------

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_factorize_integers(dtype, data):
    info = np.iinfo(dtype)
    lo = data.draw(st.integers(int(info.min), int(info.max)))
    width = data.draw(st.integers(0, 300))
    hi = min(int(info.max), lo + width)
    values = np.array(
        data.draw(st.lists(st.integers(lo, hi), max_size=80)), dtype=dtype
    )
    assert_matches_unique(values, values)
    want_u, want_c = np.unique(values, return_counts=True)
    got_u, got_c = value_counts(values)
    assert_same_arrays(got_u, want_u)
    assert_same_arrays(got_c, want_c)


def test_factorize_integer_extremes():
    for dtype in INT_DTYPES:
        info = np.iinfo(dtype)
        values = np.array([info.max, info.min, info.max, info.min], dtype=dtype)
        assert_matches_unique(values, values)
        near_top = np.array([info.max, info.max - 1, info.max], dtype=dtype)
        assert_matches_unique(near_top, near_top)


@given(st.lists(st.booleans(), max_size=50))
@settings(max_examples=30, deadline=None)
def test_factorize_bool(xs):
    values = np.array(xs, dtype=bool)
    assert_matches_unique(values, values)


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.sampled_from([0.0, -0.0, float("nan"), 1.5]),
        ),
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_factorize_floats_with_nan(xs):
    values = np.array(xs, dtype=np.float64)
    assert_matches_unique(values, values)
    want_u, want_c = np.unique(values, return_counts=True)
    got_u, got_c = value_counts(values)
    assert_same_arrays(got_u, want_u)
    assert_same_arrays(got_c, want_c)


@given(strings)
@settings(max_examples=80, deadline=None)
def test_factorize_strings_and_their_codes(values):
    assert_matches_unique(values, values)
    if len(values):
        # A loose encoding: a dictionary with values no row uses.
        extra = np.array(sorted(set(WORDS) | {"~"}), dtype=object)
        codes = np.searchsorted(extra, values).astype(np.uint8)
        loose = DictEncoding(codes, extra)
        assert_matches_unique(loose, values)
        want_u, want_c = np.unique(values, return_counts=True)
        got_u, got_c = value_counts(loose)
        assert_same_arrays(got_u, want_u)
        assert_same_arrays(got_c, want_c)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "values",
    [
        ["a", 1, "b"],
        [1, "a"],
        ["a", None, "b"],  # left-join padding among strings
        [None, None],
        [None],
        ["a", float("nan")],
        [1, 2.5, 1],
        [b"x", "x"],
    ],
)
def test_factorize_mixed_objects_behave_like_unique(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    want = _raised(lambda: np.unique(arr, return_inverse=True))
    got = _raised(lambda: factorize(arr))
    assert got == want
    if want is None:
        assert_matches_unique(arr, arr)


def test_left_join_padding_groups_like_before():
    db = Database()
    db.create_table("l", {"k": np.array([1, 2, 3]), "v": np.array([1.0, 2.0, 3.0])})
    db.create_table(
        "r", {"k": np.array([1, 2]), "tag": np.array(["x", "y"], dtype=object)}
    )
    joined = db.sql("SELECT * FROM l LEFT JOIN r ON l.k = r.k").table
    tag = joined["r.tag"] if "r.tag" in joined else joined["tag"]
    assert list(tag) == ["x", "y", None]
    want = _raised(lambda: np.unique(tag, return_inverse=True))
    got = _raised(lambda: encode_groups_arrays([tag]))
    assert got == want


@given(st.lists(strings, min_size=1, max_size=3), st.data())
@settings(max_examples=40, deadline=None)
def test_encode_groups_codes_equal_values(columns, data):
    n = min(len(c) for c in columns)
    columns = [c[:n] for c in columns]
    ints = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    plain = [*columns, ints]
    coded = [fresh(c) for c in columns] + [ints]
    want_ids, want_keys = encode_groups_arrays(plain)
    got_ids, got_keys = encode_groups_arrays(coded)
    assert_same_arrays(got_ids, want_ids)
    for got, want in zip(got_keys, want_keys):
        assert_same_arrays(got, want)
    if n:
        # Groups are in lexicographic order of the key values.
        tuples = list(zip(*(k.tolist() for k in want_keys)))
        assert tuples == sorted(set(zip(*(c.tolist() for c in plain))))


# --- inherited encodings == fresh encodings -----------------------------

@pytest.fixture
def encoded() -> Table:
    rng = np.random.default_rng(7)
    t = Table(
        {
            "s": rng.choice(np.array(WORDS, dtype=object), 500),
            "g": rng.choice(np.array(["p", "q"], dtype=object), 500),
            "x": rng.integers(0, 10, 500),
        },
        name="t",
        block_size=64,
    )
    t.encoding("s")
    t.encoding("g")
    return t


def test_encodings_are_lazy_and_memoized():
    t = Table({"s": np.array(["b", "a"], dtype=object), "x": np.array([1, 2])})
    assert t.held_codes() == {}
    assert t.encoding("x") is None
    first = t.encoding("s")
    assert t.encoding("s") is first
    assert first.codes.dtype == np.uint8
    assert first.dictionary.tolist() == ["a", "b"]


def test_code_dtype_is_smallest_unsigned():
    assert code_dtype(256) == np.uint8
    assert code_dtype(257) == np.uint16
    assert code_dtype(65537) == np.uint32


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_take_and_slice_inherit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    t = Table(
        {"s": rng.choice(np.array(WORDS, dtype=object), 200), "x": np.arange(200)},
        block_size=32,
    )
    t.encoding("s")
    mask = rng.random(200) < data.draw(st.floats(0.0, 1.0))
    index = rng.integers(0, 200, data.draw(st.integers(0, 50)))
    start = data.draw(st.integers(0, 200))
    stop = data.draw(st.integers(start, 200))
    for derived in (t.take(mask), t.take(index), t.slice_rows(start, stop), t.head(5)):
        assert "s" in derived.held_codes()
        assert_encoding_fresh(derived, "s")


def test_select_rename_with_name_inherit(encoded):
    assert "s" in encoded.select(["s", "x"]).held_codes()
    assert "g" not in encoded.select(["s"]).held_codes()
    renamed = encoded.rename({"s": "t.s"})
    assert renamed.held_codes()["t.s"] is encoded.held_codes()["s"]
    assert_encoding_fresh(renamed, "t.s")
    assert encoded.with_name("other").held_codes() == encoded.held_codes()
    assert "s" not in encoded.with_column("s", np.zeros(500)).held_codes()


def test_concat_merges_dictionaries(encoded):
    extra = Table(
        {
            "s": np.array(["new", "a", "zzz"], dtype=object),
            "g": np.array(["q", "r", "p"], dtype=object),
            "x": np.array([1, 2, 3]),
        }
    )
    out = Table.concat([encoded, extra])
    # The base's codes were remapped, not recomputed from strings.
    assert set(out.held_codes()) == {"s", "g"}
    assert out.held_codes()["s"].dictionary.tolist() == sorted(set(WORDS) | {"new", "zzz"})
    for name in ("s", "g"):
        assert_encoding_fresh(out, name)
    # No part holds codes: nothing is computed.
    plain = Table({"s": np.array(["a"], dtype=object)})
    assert Table.concat([plain, plain]).held_codes() == {}


def test_concat_with_unorderable_rows_drops_the_encoding(encoded):
    extra = Table(
        {
            "s": np.array([None], dtype=object),
            "g": np.array(["p"], dtype=object),
            "x": np.array([0]),
        }
    )
    out = Table.concat([encoded, extra])
    assert "s" not in out.held_codes()
    assert_encoding_fresh(out, "g")


def test_split_by_assignment_inherits(encoded):
    assignment = np.arange(500) % 3
    for part in encoded.split_by_assignment(assignment, 3):
        assert "s" in part.held_codes()
        assert_encoding_fresh(part, "s")


@pytest.mark.parametrize("fused", [True, False])
def test_join_output_inherits(fused):
    rng = np.random.default_rng(3)
    db = Database()
    db.create_table(
        "fact",
        {"k": rng.integers(0, 20, 400), "v": rng.random(400)},
    )
    db.create_table(
        "dim",
        {
            "k": np.arange(20),
            "name": rng.choice(np.array(WORDS, dtype=object), 20),
        },
    )
    sql = "SELECT f.v, d.name FROM fact f JOIN dim d ON f.k = d.k WHERE f.v > 0.3"
    from repro.sql.binder import bind_sql

    plan = bind_sql(sql, db).plan
    out, _ = db.execute(plan, fused=fused)
    name = next(n for n in out.column_names if n.endswith("name"))
    assert name in out.held_codes()
    assert_encoding_fresh(out, name)


def test_string_join_keys_use_codes_and_match_strings():
    from repro.engine.executor import join_indices

    left = np.array(["b", "a", "c", "a", "zz"], dtype=object)
    right = np.array(["a", "c", "c", "q"], dtype=object)
    plain = join_indices([left], [right])
    coded = join_indices([fresh(left)], [fresh(right)])
    for got, want in zip(coded, plain):
        assert_same_arrays(got, want)


# --- catalog sequences ---------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "replace", "append", "group", "stats"]),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=30),
    ),
    min_size=1,
    max_size=8,
)


@given(OPS)
@settings(max_examples=40, deadline=None)
def test_catalog_sequences_group_and_stats_match_unique(ops):
    db = Database()
    for op, words in ops:
        values = np.array(words, dtype=object)
        data = {"s": values, "x": np.arange(len(values), dtype=np.float64)}
        if op == "create" or not db.has_table("t"):
            if db.has_table("t"):
                db.drop_table("t")
            db.create_table("t", data)
        elif op == "replace":
            db.replace_table("t", Table(data))
        elif op == "append":
            db.append_rows("t", data)
        elif op == "group":
            db.sql("SELECT s, COUNT(*) AS n FROM t GROUP BY s")
        else:
            db.stats("t")
        table = db.table("t")
        current = table["s"]
        result = db.sql("SELECT s, COUNT(*) AS n, SUM(x) AS sx FROM t GROUP BY s").table
        want_u, want_c = np.unique(current, return_counts=True)
        assert result["s"].tolist() == want_u.tolist()
        assert result["n"].tolist() == want_c.astype(float).tolist()
        stats = db.stats("t").column("s")
        assert stats.num_distinct == len(want_u)
        assert sorted(stats.mcv_counts, reverse=True) == sorted(want_c, reverse=True)[:8]
        assert_encoding_fresh(table, "s")


def test_append_does_not_reencode_the_table():
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table(
        "t", {"s": rng.choice(np.array(WORDS, dtype=object), 5000), "x": np.arange(5000)}
    )
    db.stats("t")  # encodes the string column once
    base_codes = db.table("t").held_codes()["s"]
    db.append_rows("t", {"s": np.array(["zzz"], dtype=object), "x": np.array([1])})
    after = db.table("t").held_codes()["s"]
    assert "zzz" in after.dictionary.tolist()
    # Old rows' codes were remapped through the merged dictionary.
    assert np.array_equal(
        after.dictionary[after.codes[:5000]], base_codes.dictionary[base_codes.codes]
    )
    assert_encoding_fresh(db.table("t"), "s")


def test_unorderable_string_column_scans_and_fails_only_when_grouped():
    db = Database()
    mixed = np.array(["a", None, "b", 3], dtype=object)
    db.create_table("m", {"s": mixed, "x": np.arange(4.0)})
    assert db.table("m").codes_of("s") is None
    for fused in (True, False):
        from repro.sql.binder import bind_sql

        out, _ = db.execute(bind_sql("SELECT s, x FROM m WHERE x > 0", db).plan, fused=fused)
        assert out["s"].tolist() == [None, "b", 3]
    want = _raised(lambda: np.unique(mixed, return_inverse=True))
    got = _raised(lambda: db.sql("SELECT s, COUNT(*) AS n FROM m GROUP BY s"))
    assert got == want

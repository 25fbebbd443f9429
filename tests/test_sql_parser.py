"""Tests for the SQL parser."""

import pytest

from repro import SQLSyntaxError
from repro.sql import ast as A
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_sql, split_explain


class TestSelectStructure:
    def test_simple(self):
        stmt = parse_sql("SELECT a FROM t")
        assert stmt.from_table.name == "t"
        assert isinstance(stmt.items[0].expr, A.ColumnRef)

    def test_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert stmt.items[0].expr.name == "*"

    def test_aliases(self):
        stmt = parse_sql("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_table_alias(self):
        stmt = parse_sql("SELECT a FROM tbl AS t")
        assert stmt.from_table.alias == "t"
        stmt2 = parse_sql("SELECT a FROM tbl t2")
        assert stmt2.from_table.alias == "t2"

    def test_where_group_having_order_limit(self):
        stmt = parse_sql(
            "SELECT g, SUM(v) AS s FROM t WHERE v > 0 GROUP BY g "
            "HAVING SUM(v) > 10 ORDER BY s DESC LIMIT 5"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5

    def test_trailing_semicolon(self):
        assert parse_sql("SELECT a FROM t;").limit is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            parse_sql("SELECT a FROM t extra nonsense stuff")


class TestJoins:
    def test_inner_join(self):
        stmt = parse_sql("SELECT a FROM l JOIN r ON l.k = r.k")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].how == "inner"

    def test_left_join(self):
        stmt = parse_sql("SELECT a FROM l LEFT JOIN r ON l.k = r.k")
        assert stmt.joins[0].how == "left"

    def test_multi_join(self):
        stmt = parse_sql(
            "SELECT a FROM x JOIN y ON x.k = y.k INNER JOIN z ON y.j = z.j"
        )
        assert len(stmt.joins) == 2

    def test_join_requires_on(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM l JOIN r")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        stmt = parse_sql("SELECT 1 + 2 * 3 FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, A.Binary) and expr.op == "+"
        assert isinstance(expr.right, A.Binary) and expr.right.op == "*"

    def test_parentheses(self):
        stmt = parse_sql("SELECT (1 + 2) * 3 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "*"

    def test_and_or_precedence(self):
        stmt = parse_sql("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
        assert stmt.where.op == "OR"

    def test_not(self):
        stmt = parse_sql("SELECT a FROM t WHERE NOT x = 1")
        assert isinstance(stmt.where, A.Unary) and stmt.where.op == "NOT"

    def test_in_list(self):
        stmt = parse_sql("SELECT a FROM t WHERE g IN (1, 2, 3)")
        assert isinstance(stmt.where, A.InListExpr)
        assert len(stmt.where.values) == 3

    def test_not_in(self):
        stmt = parse_sql("SELECT a FROM t WHERE g NOT IN ('x')")
        assert stmt.where.negated

    def test_between(self):
        stmt = parse_sql("SELECT a FROM t WHERE v BETWEEN 1 AND 10")
        assert isinstance(stmt.where, A.BetweenExpr)

    def test_not_between(self):
        stmt = parse_sql("SELECT a FROM t WHERE v NOT BETWEEN 1 AND 10")
        assert stmt.where.negated

    def test_case_when(self):
        stmt = parse_sql(
            "SELECT CASE WHEN v > 0 THEN 1 ELSE 0 END FROM t"
        )
        assert isinstance(stmt.items[0].expr, A.CaseExpr)

    def test_function_call(self):
        stmt = parse_sql("SELECT abs(v) FROM t")
        assert isinstance(stmt.items[0].expr, A.FuncExpr)

    def test_count_star(self):
        stmt = parse_sql("SELECT COUNT(*) FROM t")
        assert stmt.items[0].expr.star

    def test_count_distinct(self):
        stmt = parse_sql("SELECT COUNT(DISTINCT u) FROM t")
        assert stmt.items[0].expr.distinct

    def test_qualified_column(self):
        stmt = parse_sql("SELECT t.a FROM t")
        assert stmt.items[0].expr.qualifier == "t"

    def test_unary_minus(self):
        stmt = parse_sql("SELECT -v FROM t")
        assert isinstance(stmt.items[0].expr, A.Unary)

    def test_modulo(self):
        stmt = parse_sql("SELECT a FROM t WHERE a % 2 = 0")
        assert stmt.where.op == "="

    def test_boolean_literals(self):
        stmt = parse_sql("SELECT TRUE, FALSE FROM t")
        assert stmt.items[0].expr.value is True

    def test_order_by_position(self):
        stmt = parse_sql("SELECT a FROM t ORDER BY 1")
        assert isinstance(stmt.order_by[0].expr, A.NumberLit)


class TestTablesample:
    def test_bernoulli(self):
        stmt = parse_sql("SELECT a FROM t TABLESAMPLE BERNOULLI (5)")
        assert stmt.from_table.sample.method == "BERNOULLI"
        assert stmt.from_table.sample.value == 5.0

    def test_system_repeatable(self):
        stmt = parse_sql("SELECT a FROM t TABLESAMPLE SYSTEM (1.5) REPEATABLE (7)")
        assert stmt.from_table.sample.method == "SYSTEM"
        assert stmt.from_table.sample.seed == 7

    def test_fixed_rows_extension(self):
        stmt = parse_sql("SELECT a FROM t TABLESAMPLE ROWS (100)")
        assert stmt.from_table.sample.method == "ROWS"

    def test_bad_method(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM t TABLESAMPLE GAUSSIAN (5)")

    def test_sample_on_join_table(self):
        stmt = parse_sql(
            "SELECT a FROM l JOIN r TABLESAMPLE SYSTEM (10) ON l.k = r.k"
        )
        assert stmt.joins[0].table.sample is not None


class TestErrorClause:
    def test_parsed(self):
        stmt = parse_sql(
            "SELECT SUM(v) FROM t ERROR WITHIN 5% CONFIDENCE 95%"
        )
        assert stmt.error_spec.relative_error == pytest.approx(0.05)
        assert stmt.error_spec.confidence == pytest.approx(0.95)

    def test_fractional(self):
        stmt = parse_sql("SELECT SUM(v) FROM t ERROR WITHIN 2.5% CONFIDENCE 99%")
        assert stmt.error_spec.relative_error == pytest.approx(0.025)

    def test_requires_confidence(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT SUM(v) FROM t ERROR WITHIN 5%")

    def test_requires_percent_signs(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT SUM(v) FROM t ERROR WITHIN 5 CONFIDENCE 95")


class TestErrorReporting:
    def test_missing_from_item(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT FROM t")

    def test_dangling_not(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM t WHERE x NOT")

    def test_position_attached(self):
        try:
            parse_sql("SELECT a FROM t WHERE")
        except SQLSyntaxError as e:
            assert e.position >= 0


def _split_by_tokens(text):
    """Reference: decide the EXPLAIN prefix from the full token list."""
    tokens = tokenize(text)
    if tokens[0].kind != "IDENT" or tokens[0].value.upper() != "EXPLAIN":
        return None, text
    if tokens[1].kind == "EOF":
        raise SQLSyntaxError("EXPLAIN requires a statement", tokens[0].position)
    mode, rest = "explain", tokens[1]
    if rest.kind == "IDENT" and rest.value.upper() == "ANALYZE":
        mode = "analyze"
        if tokens[2].kind == "EOF":
            raise SQLSyntaxError("EXPLAIN ANALYZE requires a statement", rest.position)
        rest = tokens[2]
    return mode, text[rest.position:]


def _outcome(fn, text):
    try:
        return fn(text)
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.position)


class TestSplitExplain:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM t",
            "EXPLAIN SELECT a FROM t",
            "explain select a from t",
            "Explain Analyze SELECT a FROM t",
            "  \n\tEXPLAIN   SELECT a FROM t",
            "-- a comment\nEXPLAIN -- another\n ANALYZE\n-- third\nSELECT a FROM t",
            "EXPLAIN\n\nSELECT a FROM t -- trailing",
            '"explain" SELECT a FROM t',
            'EXPLAIN "analyze" SELECT a FROM t',
            "EXPLAIN (SELECT a FROM t)",
            "EXPLAINED SELECT a FROM t",
            "EXPLAIN_ SELECT a FROM t",
            "EXPLAIN ANALYZED SELECT a FROM t",
            "EXPLAIN",
            "  explain  ",
            "EXPLAIN -- nothing follows",
            "EXPLAIN ANALYZE",
            "explain analyze -- nothing\n   ",
            "",
            "   ",
            "analyze SELECT a FROM t",
        ],
    )
    def test_matches_token_reference(self, text):
        assert _outcome(split_explain, text) == _outcome(_split_by_tokens, text)

    def test_bare_explain_positions(self):
        with pytest.raises(SQLSyntaxError) as info:
            split_explain("  EXPLAIN  ")
        assert info.value.position == 2
        with pytest.raises(SQLSyntaxError) as info:
            split_explain("explain  analyze ")
        assert info.value.position == 9

    def test_inner_slice_is_verbatim(self):
        text = "-- c\n explain\tANALYZE  SELECT  a\n FROM t -- x"
        assert split_explain(text) == ("analyze", "SELECT  a\n FROM t -- x")

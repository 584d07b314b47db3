"""Tests for the SQL lexer and parser."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError
from repro.sql import ast, parse_sql, tokenize_sql
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import parse_expression


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize_sql("SELECT foo FROM bar")
        kinds = [(t.kind, t.value.lower()) for t in tokens[:-1]]
        assert kinds == [
            ("keyword", "select"),
            ("identifier", "foo"),
            ("keyword", "from"),
            ("identifier", "bar"),
        ]

    def test_string_quote_undoubling(self):
        tokens = tokenize_sql("'O''Brien'")
        assert tokens[0].value == "O'Brien"

    def test_bracket_identifiers(self):
        tokens = tokenize_sql("[My Table]")
        assert tokens[0].kind == "identifier"
        assert tokens[0].value == "My Table"

    def test_windows_paths_become_strings(self):
        tokens = tokenize_sql(r"MakeTable(Mail, d:\mail\smith.mmf)")
        values = [t.value for t in tokens if t.kind == "string"]
        assert values == [r"d:\mail\smith.mmf"]

    def test_comments_skipped(self):
        tokens = tokenize_sql("SELECT 1 -- trailing\n/* block */ + 2")
        texts = [t.value for t in tokens if t.kind != "eof"]
        assert texts == ["SELECT", "1", "+", "2"]

    def test_parameters(self):
        tokens = tokenize_sql("@customerId")
        assert tokens[0].kind == "parameter"

    def test_numbers(self):
        tokens = tokenize_sql("1 2.5 1e3")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "1e3"]

    def test_garbage_raises(self):
        with pytest.raises(LexerError):
            tokenize_sql("SELECT \x01")

    def test_markers_are_parameters_named_by_ordinal(self):
        tokens = tokenize_sql("a = ? AND b = @b AND c = ?")
        parameters = [
            (t.value, t.position) for t in tokens if t.kind == "parameter"
        ]
        assert parameters == [("?0", 4), ("@b", 14), ("?1", 25)]

    def test_question_mark_inside_a_token_is_no_marker(self):
        tokens = tokenize_sql("x = 'a?' AND [b?] = ? -- ?\n/* ? */")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("identifier", "x"), ("operator", "="), ("string", "a?"),
            ("keyword", "AND"), ("identifier", "b?"), ("operator", "="),
            ("parameter", "?0"),
        ]


# ----------------------------------------------------------------------
# the lexer is one alternation; the loop it replaced is the reference
# ----------------------------------------------------------------------
_REFERENCE_PATTERNS = [
    ("ws", re.compile(r"\s+")),
    ("comment", re.compile(r"--[^\n]*")),
    ("block_comment", re.compile(r"/\*.*?\*/", re.DOTALL)),
    ("path", re.compile(r"[A-Za-z]:[\\/][^\s,()']*")),
    ("number", re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?")),
    ("string", re.compile(r"'(?:[^']|'')*'")),
    ("bracket_ident", re.compile(r"\[[^\]]*\]")),
    ("quoted_ident", re.compile(r'"[^"]*"')),
    ("parameter", re.compile(r"@[A-Za-z_][A-Za-z0-9_]*")),
    ("marker", re.compile(r"\?")),
    ("identifier", re.compile(r"[A-Za-z_#][A-Za-z0-9_$#]*")),
    ("operator", re.compile(r"<>|!=|<=|>=|=|<|>|\+|-|\*|/|%")),
    ("punct", re.compile(r"[(),.;:]")),
]


def reference_tokenize(text):
    """The lexer before it became one alternation — every pattern tried
    in turn at every position — plus the ``?`` marker row; returns
    (kind, value, position) triples."""
    tokens, position, markers = [], 0, 0
    while position < len(text):
        for kind, pattern in _REFERENCE_PATTERNS:
            match = pattern.match(text, position)
            if match is None:
                continue
            lexeme = match.group()
            if kind in ("ws", "comment", "block_comment"):
                pass
            elif kind == "string":
                inner = lexeme[1:-1].replace("''", "'")
                tokens.append(("string", inner, position))
            elif kind == "path":
                tokens.append(("string", lexeme, position))
            elif kind in ("bracket_ident", "quoted_ident"):
                tokens.append(("identifier", lexeme[1:-1], position))
            elif kind == "marker":
                tokens.append(("parameter", f"?{markers}", position))
                markers += 1
            elif kind == "identifier":
                token_kind = (
                    "keyword" if lexeme.lower() in KEYWORDS else "identifier"
                )
                tokens.append((token_kind, lexeme, position))
            else:
                tokens.append((kind, lexeme, position))
            position = match.end()
            break
        else:
            raise LexerError(
                f"unexpected character {text[position]!r}", position
            )
    tokens.append(("eof", "", len(text)))
    return tokens


def _lex_outcome(tokenize, text):
    try:
        return tokenize(text)
    except LexerError as error:
        return ("LexerError", str(error), error.position)


def _token_triples(text):
    return [(t.kind, t.value, t.position) for t in tokenize_sql(text)]


def assert_lexes_like_the_reference(text):
    assert _lex_outcome(_token_triples, text) == _lex_outcome(
        reference_tokenize, text
    ), text


def _corpus():
    """Every text the lexer is handed (and every remote text the
    decoder emits, chosen plan or not) while the testcheck worlds are
    built and 300 generated statements are compiled against the
    distributed world of schema seeds 0-2."""
    from repro.core import decoder
    from repro.sql import parser
    from repro.testcheck import worlds
    from repro.testcheck.oracle import build_world
    from repro.testcheck.schema import generate_schema
    from repro.testcheck.sqlgen import generate_query

    texts, generated = set(), 0
    patch = pytest.MonkeyPatch()
    lex, decoded_init = parser.tokenize_sql, decoder.DecodedQuery.__init__

    def recording_lex(text):
        texts.add(text)
        return lex(text)

    def recording_init(self, sql_text, *args, **kwargs):
        texts.add(sql_text)
        decoded_init(self, sql_text, *args, **kwargs)

    patch.setattr(parser, "tokenize_sql", recording_lex)
    patch.setattr(decoder.DecodedQuery, "__init__", recording_init)
    try:
        worlds.build_people_engine()
        worlds.build_remote_pair()
        worlds.build_partitioned_engine()
        worlds.build_fig4_world(customers=20, suppliers=5)
        for schema_seed in range(3):
            schema = generate_schema(schema_seed)
            world = build_world(schema, "distributed")
            for index in range(100):
                query = generate_query(schema, schema_seed * 10_000 + index)
                world.engine.plan(query.render(world.name_map))
                generated += 1
    finally:
        patch.undo()
    return texts, generated


class TestLexerMatchesReference:
    def test_generated_statements_remote_texts_and_world_ddl(self):
        texts, generated = _corpus()
        assert generated == 300
        assert any("[" in t and "?" in t for t in texts), "no marker text"
        assert any(t.startswith("CREATE VIEW") for t in texts)
        for text in texts:
            assert_lexes_like_the_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a = 'x?' AND b = ?",
            "'it''s' ? '' ?",
            "'unterminated ?",
            "/* open comment ? ",
            "[open bracket ?",
            '"open quote ?',
            r"MakeTable(Mail, d:\mail\smith?.mmf) ?",
            "1e5 1.5E-3 .5 12. 1e 1e+ 3.e2",
            "a.b.[c d].\"e\" @p@q ?? @ 1",
            "x -- ? \n ? /* ? */ ?",
            "a <> b != c <= d >= e % f ! g",
            "tab\tnew\nline\r\x0b ?",
            "caf\u00e9 ?",
        ],
    )
    def test_edge_cases(self, text):
        assert_lexes_like_the_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "'", "''", '"', "[", "]", "--", "/*", "*/", "@", "?",
                    ".", ",", "(", ")", ";", ":", " ", "\n", "\t",
                    r"c:\dir\f.mmf", "d:/x/y", "1e5", "1.5E-3", ".5", "12.",
                    "e", "E+", "7", "abc", "SELECT", "_x1", "#t", "$",
                    "@p", "<>", "!=", "<=", "!", "=", "-", "/", "*", "%",
                    "\x01", "\u00e9", "\\",
                ]
            ),
            max_size=12,
        ).map("".join)
    )
    def test_fragment_alphabet(self, text):
        assert_lexes_like_the_reference(text)


class TestSelectParsing:
    def test_four_part_name(self):
        stmt = parse_sql("SELECT * FROM Dept.Northwind.dbo.Employees")
        assert stmt.sources[0].parts == (
            "Dept", "Northwind", "dbo", "Employees"
        )

    def test_aliases(self):
        stmt = parse_sql("SELECT c.name AS n FROM customer AS c")
        assert stmt.items[0].alias == "n"
        assert stmt.sources[0].alias == "c"

    def test_implicit_alias(self):
        stmt = parse_sql("SELECT 1 x FROM t u")
        assert stmt.items[0].alias == "x"
        assert stmt.sources[0].alias == "u"

    def test_star_and_qualified_star(self):
        stmt = parse_sql("SELECT *, c.* FROM t, c")
        assert isinstance(stmt.items[0].expr, ast.StarExpr)
        assert stmt.items[1].expr.qualifier == "c"

    def test_join_syntax(self):
        stmt = parse_sql(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT OUTER JOIN c ON b.y = c.y"
        )
        outer = stmt.sources[0]
        assert outer.kind == "left_outer"
        assert outer.left.kind == "inner"

    def test_cross_join(self):
        stmt = parse_sql("SELECT * FROM a CROSS JOIN b")
        assert stmt.sources[0].kind == "cross"
        assert stmt.sources[0].condition is None

    def test_group_by_having_order_by(self):
        stmt = parse_sql(
            "SELECT city, COUNT(*) FROM t GROUP BY city "
            "HAVING COUNT(*) > 2 ORDER BY city DESC"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False

    def test_distinct_and_top(self):
        stmt = parse_sql("SELECT DISTINCT TOP 5 a FROM t")
        assert stmt.distinct
        assert stmt.top == 5

    def test_union_all(self):
        stmt = parse_sql("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert len(stmt.union_all) == 1

    def test_union_requires_all(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t UNION SELECT a FROM u")

    def test_select_without_from(self):
        stmt = parse_sql("SELECT 1 + 2")
        assert stmt.sources == []

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError, match="alias"):
            parse_sql("SELECT * FROM (SELECT 1)")

    def test_openrowset(self):
        stmt = parse_sql(
            "SELECT FS.path FROM OpenRowset('MSIDXS','Cat';'';'', "
            "'Select Path from SCOPE()') AS FS"
        )
        src = stmt.sources[0]
        assert src.provider == "MSIDXS"
        assert src.datasource == "Cat"
        assert src.alias == "FS"

    def test_openquery(self):
        stmt = parse_sql("SELECT * FROM OPENQUERY(olap, 'native text') q")
        assert stmt.sources[0].server == "olap"

    def test_maketable_with_table_arg(self):
        stmt = parse_sql(
            r"SELECT * FROM MakeTable(Access, d:\a.mdb, Customers) c"
        )
        src = stmt.sources[0]
        assert src.provider == "Access"
        assert src.table == "Customers"

    def test_empty_schema_part(self):
        stmt = parse_sql("SELECT * FROM srv.db..t")
        assert stmt.sources[0].parts == ("srv", "db", "", "t")


class TestExpressionParsing:
    def test_precedence_and_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BinaryExpr) and expr.op == "OR"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_between_desugar_target(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, ast.BetweenExpr)

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 5")
        assert expr.negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert len(expr.items) == 3

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1)")
        assert expr.negated

    def test_is_null_and_is_not_null(self):
        assert parse_expression("x IS NULL").negated is False
        assert parse_expression("x IS NOT NULL").negated is True

    def test_like(self):
        expr = parse_expression("name LIKE 'A%'")
        assert isinstance(expr, ast.LikeExpr)

    def test_exists(self):
        stmt = parse_sql(
            "SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.x)"
        )
        assert isinstance(stmt.where, ast.ExistsExpr)

    def test_scalar_subquery_comparison(self):
        stmt = parse_sql("SELECT * FROM t WHERE x = (SELECT MAX(x) FROM t)")
        assert isinstance(stmt.where.right, ast.ScalarSubqueryExpr)

    def test_case_expression(self):
        expr = parse_expression(
            "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END"
        )
        assert isinstance(expr, ast.CaseExpr)
        assert len(expr.whens) == 2

    def test_contains(self):
        expr = parse_expression("CONTAINS(body, 'word')")
        assert isinstance(expr, ast.ContainsExpr)

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr.star

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, ast.UnaryExpr)

    def test_nested_functions(self):
        expr = parse_expression("date(today(), -2)")
        assert expr.name == "date"
        assert expr.args[0].name == "today"


class TestDmlDdlParsing:
    def test_insert_values_multi_row(self):
        stmt = parse_sql("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_sql("INSERT INTO t SELECT * FROM u")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse_sql("UPDATE t SET a = 1, b = b + 1 WHERE id = 2")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_sql("DELETE FROM t WHERE id = 2")
        assert stmt.where is not None

    def test_create_table_with_checks(self):
        stmt = parse_sql(
            "CREATE TABLE li (d datetime NOT NULL CHECK (d >= '1992-1-1'), "
            "k int PRIMARY KEY, CONSTRAINT big CHECK (k < 100))"
        )
        assert stmt.columns[0].not_null
        assert stmt.columns[0].check is not None
        assert stmt.columns[1].primary_key
        assert stmt.table_checks[0][0] == "big"

    def test_create_index(self):
        stmt = parse_sql("CREATE UNIQUE INDEX ix ON t (a, b)")
        assert stmt.unique
        assert stmt.columns == ["a", "b"]

    def test_create_view_captures_text(self):
        stmt = parse_sql("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        assert stmt.select_sql == "SELECT a FROM t WHERE a > 1"

    def test_create_view_requires_select(self):
        with pytest.raises(ParseError):
            parse_sql("CREATE VIEW v AS DELETE FROM t")

    def test_drop_table(self):
        stmt = parse_sql("DROP TABLE t")
        assert stmt.table.parts == ("t",)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT 1 SELECT 2")

    def test_semicolon_tolerated(self):
        parse_sql("SELECT 1;")

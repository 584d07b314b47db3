"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` nodes."""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize_sql


def parse_sql(text: str) -> ast.Statement:
    """Parse one SQL statement."""
    parser = _Parser(text)
    statement = parser.statement()
    parser.expect_eof()
    return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar expression (CHECK constraint bodies)."""
    parser = _Parser(text)
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize_sql(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        return self.peek().is_keyword(*words)

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.next()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word.upper()}, got {token.value!r}", token.position
            )

    def accept_punct(self, value: str) -> bool:
        token = self.peek()
        if token.kind in ("punct", "operator") and token.value == value:
            self.next()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        token = self.next()
        if token.kind not in ("punct", "operator") or token.value != value:
            raise ParseError(
                f"expected {value!r}, got {token.value!r}", token.position
            )

    def expect_identifier(self) -> str:
        token = self.next()
        if token.kind not in ("identifier", "keyword"):
            raise ParseError(
                f"expected identifier, got {token.value!r}", token.position
            )
        return token.value

    def expect_string(self) -> str:
        token = self.next()
        if token.kind != "string":
            raise ParseError(
                f"expected string literal, got {token.value!r}", token.position
            )
        return token.value

    def expect_number(self) -> float:
        token = self.next()
        if token.kind != "number":
            raise ParseError(
                f"expected number, got {token.value!r}", token.position
            )
        return _numeric(token.value)

    def expect_eof(self) -> None:
        self.accept_punct(";")
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input at {token.value!r}", token.position
            )

    # -- statements -----------------------------------------------------------
    def statement(self) -> ast.Statement:
        if self.at_keyword("explain"):
            self.next()
            analyze, verbose = self._explain_options()
            return ast.ExplainStmt(
                self.select_statement(), analyze=analyze, verbose=verbose
            )
        if self.at_keyword("select"):
            return self.select_statement()
        if self.at_keyword("insert"):
            return self.insert_statement()
        if self.at_keyword("update"):
            return self.update_statement()
        if self.at_keyword("delete"):
            return self.delete_statement()
        if self.at_keyword("create"):
            return self.create_statement()
        if self.at_keyword("drop"):
            return self.drop_statement()
        if self.at_keyword("set"):
            return self.set_statement()
        token = self.peek()
        raise ParseError(
            f"expected a statement, got {token.value!r}", token.position
        )

    def set_statement(self) -> ast.SetStmt:
        """``SET <option> ON|OFF``, ``SET <option> <integer>`` or
        ``SET <option> '<string>'`` — ``on`` is a reserved word (join
        syntax), ``off`` lexes as a plain identifier.  Integer-valued
        options (``PARALLEL_DOP n``) take a bare numeric literal;
        string-valued options (``WORKLOAD GROUP 'name'``) take a
        quoted literal.  The two-word ``WORKLOAD GROUP`` option folds
        to the single name ``workload_group``."""
        self.expect_keyword("set")
        option = self.expect_identifier()
        if option.lower() == "workload" and (
            self._accept_name("group") or self.accept_keyword("group")
        ):
            option = "workload_group"
        value: bool | int | str
        if self.accept_keyword("on"):
            value = True
        elif self._accept_name("off"):
            value = False
        elif self.peek().kind == "number":
            token = self.next()
            try:
                value = int(token.value)
            except ValueError:
                raise ParseError(
                    f"SET {option} expects an integer, got {token.value!r}",
                    token.position,
                )
        elif self.peek().kind == "string":
            value = self.next().value
        else:
            token = self.peek()
            raise ParseError(
                f"expected ON, OFF, an integer or a string literal, "
                f"got {token.value!r}",
                token.position,
            )
        return ast.SetStmt(option, value)

    def _explain_options(self) -> tuple[bool, bool]:
        """ANALYZE / VERBOSE after EXPLAIN: bare words or a parenthesized
        option list.  The option names are ordinary identifiers, not
        reserved words, so columns named ``analyze`` stay legal."""
        analyze = verbose = False
        if (
            self.peek().kind in ("punct", "operator")
            and self.peek().value == "("
            and self.peek(1).kind == "identifier"
        ):
            self.next()  # consume "("
            while True:
                if self._accept_name("analyze"):
                    analyze = True
                elif self._accept_name("verbose"):
                    verbose = True
                else:
                    token = self.peek()
                    raise ParseError(
                        f"unknown EXPLAIN option {token.value!r}",
                        token.position,
                    )
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            return analyze, verbose
        if self._accept_name("analyze"):
            analyze = True
        if self._accept_name("verbose"):
            verbose = True
        return analyze, verbose

    def _at_name(self, *names: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == "identifier" and token.value.lower() in names

    def _accept_name(self, *names: str) -> bool:
        if self._at_name(*names):
            self.next()
            return True
        return False

    def select_statement(self) -> ast.SelectStmt:
        first = self.core_select()
        branches: list[ast.SelectStmt] = []
        while self.at_keyword("union"):
            self.next()
            self.expect_keyword("all")
            branches.append(self.core_select())
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self.order_items()
        first.union_all = branches
        first.order_by = order_by
        return first

    def core_select(self) -> ast.SelectStmt:
        self.expect_keyword("select")
        distinct = False
        top: Optional[int] = None
        if self.accept_keyword("distinct"):
            distinct = True
        if self.accept_keyword("top"):
            top = int(self.expect_number())
        items = self.select_items()
        sources: list[ast.TableSource] = []
        if self.accept_keyword("from"):
            sources = self.table_sources()
        where = self.expression() if self.accept_keyword("where") else None
        group_by: list[ast.Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = [self.expression()]
            while self.accept_punct(","):
                group_by.append(self.expression())
        having = self.expression() if self.accept_keyword("having") else None
        return ast.SelectStmt(
            items,
            sources,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            top=top,
        )

    def select_items(self) -> list[ast.SelectItem]:
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> ast.SelectItem:
        # '*' or 'alias.*'
        token = self.peek()
        if token.kind == "operator" and token.value == "*":
            self.next()
            return ast.SelectItem(ast.StarExpr())
        if (
            token.kind in ("identifier",)
            and self.peek(1).kind == "punct"
            and self.peek(1).value == "."
            and self.peek(2).kind == "operator"
            and self.peek(2).value == "*"
        ):
            qualifier = self.next().value
            self.next()  # '.'
            self.next()  # '*'
            return ast.SelectItem(ast.StarExpr(qualifier))
        expr = self.expression()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind == "identifier":
            alias = self.next().value
        return ast.SelectItem(expr, alias)

    def order_items(self) -> list[ast.OrderItem]:
        items = [self.order_item()]
        while self.accept_punct(","):
            items.append(self.order_item())
        return items

    def order_item(self) -> ast.OrderItem:
        expr = self.expression()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expr, ascending)

    # -- table sources -----------------------------------------------------------
    def table_sources(self) -> list[ast.TableSource]:
        sources = [self.table_source()]
        while self.accept_punct(","):
            sources.append(self.table_source())
        return sources

    def table_source(self) -> ast.TableSource:
        source = self.primary_source()
        while True:
            if self.at_keyword("inner") or self.at_keyword("join"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                right = self.primary_source()
                self.expect_keyword("on")
                condition = self.expression()
                source = ast.JoinSource(source, right, "inner", condition)
            elif self.at_keyword("left"):
                self.next()
                self.accept_keyword("outer")
                self.expect_keyword("join")
                right = self.primary_source()
                self.expect_keyword("on")
                condition = self.expression()
                source = ast.JoinSource(source, right, "left_outer", condition)
            elif self.at_keyword("cross"):
                self.next()
                self.expect_keyword("join")
                right = self.primary_source()
                source = ast.JoinSource(source, right, "cross", None)
            else:
                return source

    def primary_source(self) -> ast.TableSource:
        if self.accept_punct("("):
            subquery = self.select_statement()
            self.expect_punct(")")
            alias = self._source_alias(required=True)
            assert alias is not None
            return ast.DerivedTable(subquery, alias)
        if self.at_keyword("openrowset"):
            return self.openrowset_source()
        if self.at_keyword("openquery"):
            return self.openquery_source()
        if self.at_keyword("maketable"):
            return self.maketable_source()
        parts = [self.expect_identifier()]
        while self.accept_punct("."):
            # empty part in 'server..table' means default schema
            if self.peek().kind == "punct" and self.peek().value == ".":
                parts.append("")
                continue
            parts.append(self.expect_identifier())
        if len(parts) > 4:
            raise ParseError(
                f"too many name parts in {'.'.join(parts)!r}",
                self.peek().position,
            )
        alias = self._source_alias()
        return ast.NamedTable(parts, alias)

    def _source_alias(self, required: bool = False) -> Optional[str]:
        if self.accept_keyword("as"):
            return self.expect_identifier()
        if self.peek().kind == "identifier":
            return self.next().value
        if required:
            raise ParseError(
                "derived table requires an alias", self.peek().position
            )
        return None

    def openrowset_source(self) -> ast.OpenRowsetSource:
        self.expect_keyword("openrowset")
        self.expect_punct("(")
        provider = self.expect_string()
        self.expect_punct(",")
        datasource = self.expect_string()
        user = ""
        password = ""
        if self.accept_punct(";"):
            user = self.expect_string()
            if self.accept_punct(";"):
                password = self.expect_string()
        self.expect_punct(",")
        token = self.next()
        if token.kind == "string":
            query_or_table = token.value
        elif token.kind in ("identifier", "keyword"):
            query_or_table = token.value
        else:
            raise ParseError(
                f"expected query text or table name, got {token.value!r}",
                token.position,
            )
        self.expect_punct(")")
        alias = self._source_alias() or "openrowset"
        return ast.OpenRowsetSource(
            provider, datasource, query_or_table, alias, user, password
        )

    def openquery_source(self) -> ast.OpenQuerySource:
        self.expect_keyword("openquery")
        self.expect_punct("(")
        server = self.expect_identifier()
        self.expect_punct(",")
        query_text = self.expect_string()
        self.expect_punct(")")
        alias = self._source_alias() or "openquery"
        return ast.OpenQuerySource(server, query_text, alias)

    def maketable_source(self) -> ast.MakeTableSource:
        self.expect_keyword("maketable")
        self.expect_punct("(")
        provider = self.expect_identifier()
        self.expect_punct(",")
        token = self.next()
        if token.kind not in ("string", "identifier"):
            raise ParseError(
                f"expected path, got {token.value!r}", token.position
            )
        path = token.value
        table: Optional[str] = None
        if self.accept_punct(","):
            token = self.next()
            if token.kind not in ("string", "identifier"):
                raise ParseError(
                    f"expected table name, got {token.value!r}", token.position
                )
            table = token.value
        self.expect_punct(")")
        alias = self._source_alias() or "maketable"
        return ast.MakeTableSource(provider, path, table, alias)

    # -- DML -----------------------------------------------------------------
    def insert_statement(self) -> ast.InsertStmt:
        self.expect_keyword("insert")
        self.accept_keyword("into")
        table = self._named_table()
        columns: Optional[list[str]] = None
        if self.accept_punct("("):
            columns = [self.expect_identifier()]
            while self.accept_punct(","):
                columns.append(self.expect_identifier())
            self.expect_punct(")")
        if self.accept_keyword("values"):
            rows = [self._value_row()]
            while self.accept_punct(","):
                rows.append(self._value_row())
            return ast.InsertStmt(table, columns, rows=rows)
        if self.at_keyword("select"):
            select = self.select_statement()
            return ast.InsertStmt(table, columns, select=select)
        raise ParseError(
            "INSERT requires VALUES or SELECT", self.peek().position
        )

    def _value_row(self) -> list[ast.Expr]:
        self.expect_punct("(")
        row = [self.expression()]
        while self.accept_punct(","):
            row.append(self.expression())
        self.expect_punct(")")
        return row

    def _named_table(self) -> ast.NamedTable:
        parts = [self.expect_identifier()]
        while self.accept_punct("."):
            parts.append(self.expect_identifier())
        return ast.NamedTable(parts, parts[-1])

    def update_statement(self) -> ast.UpdateStmt:
        self.expect_keyword("update")
        table = self._named_table()
        self.expect_keyword("set")
        assignments = [self._assignment()]
        while self.accept_punct(","):
            assignments.append(self._assignment())
        where = self.expression() if self.accept_keyword("where") else None
        return ast.UpdateStmt(table, assignments, where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_identifier()
        self.expect_punct("=")
        return column, self.expression()

    def delete_statement(self) -> ast.DeleteStmt:
        self.expect_keyword("delete")
        self.accept_keyword("from")
        table = self._named_table()
        where = self.expression() if self.accept_keyword("where") else None
        return ast.DeleteStmt(table, where)

    # -- DDL -----------------------------------------------------------------
    def create_statement(self) -> ast.Statement:
        self.expect_keyword("create")
        if self.accept_keyword("database"):
            return ast.CreateDatabaseStmt(self.expect_identifier())
        if self.accept_keyword("table"):
            return self.create_table_body()
        unique = self.accept_keyword("unique")
        if self.accept_keyword("index"):
            return self.create_index_body(unique)
        if unique:
            raise ParseError("expected INDEX after UNIQUE", self.peek().position)
        if self.accept_keyword("view"):
            return self.create_view_body()
        token = self.peek()
        raise ParseError(
            f"unsupported CREATE {token.value!r}", token.position
        )

    def create_table_body(self) -> ast.CreateTableStmt:
        table = self._named_table()
        self.expect_punct("(")
        columns: list[ast.ColumnDefSyntax] = []
        table_checks: list[tuple[Optional[str], ast.Expr]] = []
        while True:
            if self.at_keyword("check"):
                self.next()
                self.expect_punct("(")
                table_checks.append((None, self.expression()))
                self.expect_punct(")")
            elif self.at_keyword("constraint"):
                self.next()
                constraint_name = self.expect_identifier()
                self.expect_keyword("check")
                self.expect_punct("(")
                table_checks.append((constraint_name, self.expression()))
                self.expect_punct(")")
            else:
                columns.append(self.column_definition())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTableStmt(table, columns, table_checks)

    def column_definition(self) -> ast.ColumnDefSyntax:
        name = self.expect_identifier()
        type_name = self.expect_identifier()
        type_arg: Optional[int] = None
        if self.accept_punct("("):
            type_arg = int(self.expect_number())
            self.expect_punct(")")
        not_null = False
        primary_key = False
        check: Optional[ast.Expr] = None
        while True:
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                not_null = True
            elif self.accept_keyword("null"):
                pass
            elif self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary_key = True
            elif self.accept_keyword("check"):
                self.expect_punct("(")
                check = self.expression()
                self.expect_punct(")")
            else:
                break
        return ast.ColumnDefSyntax(
            name, type_name, type_arg, not_null, primary_key, check
        )

    def create_index_body(self, unique: bool) -> ast.CreateIndexStmt:
        index_name = self.expect_identifier()
        self.expect_keyword("on")
        table = self._named_table()
        self.expect_punct("(")
        columns = [self.expect_identifier()]
        while self.accept_punct(","):
            columns.append(self.expect_identifier())
        self.expect_punct(")")
        return ast.CreateIndexStmt(index_name, table, columns, unique)

    def create_view_body(self) -> ast.CreateViewStmt:
        view = self._named_table()
        self.expect_keyword("as")
        # capture the raw SELECT text from here to end of statement
        start_token = self.peek()
        if not start_token.is_keyword("select"):
            raise ParseError(
                "CREATE VIEW body must be a SELECT", start_token.position
            )
        select_sql = self.text[start_token.position:].rstrip().rstrip(";")
        # parse the body as a statement of its own -- the view keeps the
        # result, so no use of the view parses it again -- then consume
        # all remaining tokens
        body = _Parser(select_sql)
        select = body.select_statement()
        body.expect_eof()
        while self.peek().kind != "eof":
            self.next()
        return ast.CreateViewStmt(view, select_sql, select)

    def drop_statement(self) -> ast.DropTableStmt:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        return ast.DropTableStmt(self._named_table())

    # -- expressions (precedence climbing) ----------------------------------------
    def expression(self) -> ast.Expr:
        return self.or_expr()

    def or_expr(self) -> ast.Expr:
        expr = self.and_expr()
        while self.accept_keyword("or"):
            expr = ast.BinaryExpr("OR", expr, self.and_expr())
        return expr

    def and_expr(self) -> ast.Expr:
        expr = self.not_expr()
        while self.accept_keyword("and"):
            expr = ast.BinaryExpr("AND", expr, self.not_expr())
        return expr

    def not_expr(self) -> ast.Expr:
        if self.accept_keyword("not"):
            return ast.NotExpr(self.not_expr())
        return self.predicate()

    def predicate(self) -> ast.Expr:
        if self.at_keyword("exists"):
            self.next()
            self.expect_punct("(")
            subquery = self.select_statement()
            self.expect_punct(")")
            return ast.ExistsExpr(subquery)
        if self.at_keyword("contains"):
            return self.contains_predicate("contains")
        if self.at_keyword("freetext"):
            return self.contains_predicate("freetext")
        expr = self.additive()
        token = self.peek()
        if token.kind == "operator" and token.value in (
            "=",
            "<>",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            op = self.next().value
            right = self.comparison_rhs()
            return ast.BinaryExpr(op, expr, right)
        negated = False
        if self.at_keyword("not"):
            # lookahead for NOT IN / NOT BETWEEN / NOT LIKE
            follower = self.peek(1)
            if follower.is_keyword("in", "between", "like"):
                self.next()
                negated = True
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return ast.IsNullExpr(expr, is_negated)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            if self.at_keyword("select"):
                subquery = self.select_statement()
                self.expect_punct(")")
                return ast.InExpr(expr, subquery=subquery, negated=negated)
            items = [self.expression()]
            while self.accept_punct(","):
                items.append(self.expression())
            self.expect_punct(")")
            return ast.InExpr(expr, items=items, negated=negated)
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return ast.BetweenExpr(expr, low, high, negated)
        if self.accept_keyword("like"):
            pattern = self.additive()
            return ast.LikeExpr(expr, pattern, negated)
        return expr

    def comparison_rhs(self) -> ast.Expr:
        """Right side of a comparison: scalar subquery or additive expr."""
        if (
            self.peek().kind == "punct"
            and self.peek().value == "("
            and self.peek(1).is_keyword("select")
        ):
            self.next()
            subquery = self.select_statement()
            self.expect_punct(")")
            return ast.ScalarSubqueryExpr(subquery)
        return self.additive()

    def contains_predicate(self, keyword: str) -> ast.ContainsExpr:
        self.expect_keyword(keyword)
        self.expect_punct("(")
        parts = [self.expect_identifier()]
        while self.accept_punct("."):
            parts.append(self.expect_identifier())
        self.expect_punct(",")
        query_text = self.expect_string()
        self.expect_punct(")")
        return ast.ContainsExpr(
            ast.NameExpr(parts), query_text, freetext=(keyword == "freetext")
        )

    def additive(self) -> ast.Expr:
        expr = self.multiplicative()
        while True:
            token = self.peek()
            if token.kind == "operator" and token.value in ("+", "-"):
                op = self.next().value
                expr = ast.BinaryExpr(op, expr, self.multiplicative())
            else:
                return expr

    def multiplicative(self) -> ast.Expr:
        expr = self.unary()
        while True:
            token = self.peek()
            if token.kind == "operator" and token.value in ("*", "/", "%"):
                op = self.next().value
                expr = ast.BinaryExpr(op, expr, self.unary())
            else:
                return expr

    def unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "operator" and token.value == "-":
            self.next()
            return ast.UnaryExpr("-", self.unary())
        if token.kind == "operator" and token.value == "+":
            self.next()
            return self.unary()
        return self.primary()

    def primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "number":
            self.next()
            return ast.LiteralExpr(_numeric(token.value))
        if token.kind == "string":
            self.next()
            return ast.LiteralExpr(token.value)
        if token.kind == "parameter":
            self.next()
            return ast.ParamExpr(token.value)
        if token.is_keyword("null"):
            self.next()
            return ast.LiteralExpr(None)
        if token.is_keyword("case"):
            return self.case_expression()
        if token.kind == "punct" and token.value == "(":
            self.next()
            if self.at_keyword("select"):
                subquery = self.select_statement()
                self.expect_punct(")")
                return ast.ScalarSubqueryExpr(subquery)
            expr = self.expression()
            self.expect_punct(")")
            return expr
        if token.kind in ("identifier", "keyword"):
            # function call?
            if self.peek(1).kind == "punct" and self.peek(1).value == "(":
                return self.function_call()
            self.next()
            parts = [token.value]
            while self.accept_punct("."):
                parts.append(self.expect_identifier())
            return ast.NameExpr(parts)
        raise ParseError(
            f"unexpected token {token.value!r} in expression", token.position
        )

    def case_expression(self) -> ast.CaseExpr:
        self.expect_keyword("case")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("when"):
            condition = self.expression()
            self.expect_keyword("then")
            whens.append((condition, self.expression()))
        else_value: Optional[ast.Expr] = None
        if self.accept_keyword("else"):
            else_value = self.expression()
        self.expect_keyword("end")
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self.peek().position)
        return ast.CaseExpr(whens, else_value)

    def function_call(self) -> ast.Expr:
        name = self.expect_identifier()
        self.expect_punct("(")
        distinct = self.accept_keyword("distinct")
        star = False
        args: list[ast.Expr] = []
        token = self.peek()
        if token.kind == "operator" and token.value == "*":
            self.next()
            star = True
        elif not (token.kind == "punct" and token.value == ")"):
            args.append(self.expression())
            while self.accept_punct(","):
                args.append(self.expression())
        self.expect_punct(")")
        return ast.FuncExpr(name, args, distinct=distinct, star=star)


def _numeric(text: str) -> float:
    if "." in text or "e" in text.lower():
        return float(text)
    return int(text)

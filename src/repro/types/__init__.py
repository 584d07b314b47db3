"""SQL type system: datatypes, typed values, rows, schemas, intervals.

This package is the foundation of the reproduction.  Rows are plain
Python tuples for speed; columns carry a :class:`~repro.types.datatypes.SqlType`
that governs coercion, comparison, literal rendering, and the byte-width
estimates used by the network cost model.  :mod:`repro.types.intervals`
implements the interval-set algebra behind the paper's constraint
property framework (Section 4.1.5).
"""

from repro.types.datatypes import (
    SqlType,
    IntType,
    BigIntType,
    FloatType,
    BoolType,
    VarcharType,
    DateType,
    DateTimeType,
    INT,
    BIGINT,
    FLOAT,
    BOOL,
    DATE,
    DATETIME,
    varchar,
    infer_type,
    common_super_type,
)
from repro.types.values import (
    NULL,
    sql_eq,
    sql_lt,
    sql_le,
    sql_gt,
    sql_ge,
    sql_ne,
    sql_and,
    sql_or,
    sql_not,
    sql_is_null,
    sql_add,
    sql_sub,
    sql_mul,
    sql_div,
    sql_like,
    date_add_days,
    make_date,
)
from repro.types.schema import Column, Schema
from repro.types.intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    SortKey,
)
from repro.types.collation import Collation, DEFAULT_COLLATION

__all__ = [
    "SqlType",
    "IntType",
    "BigIntType",
    "FloatType",
    "BoolType",
    "VarcharType",
    "DateType",
    "DateTimeType",
    "INT",
    "BIGINT",
    "FLOAT",
    "BOOL",
    "DATE",
    "DATETIME",
    "varchar",
    "infer_type",
    "common_super_type",
    "NULL",
    "sql_eq",
    "sql_lt",
    "sql_le",
    "sql_gt",
    "sql_ge",
    "sql_ne",
    "sql_and",
    "sql_or",
    "sql_not",
    "sql_is_null",
    "sql_add",
    "sql_sub",
    "sql_mul",
    "sql_div",
    "sql_like",
    "date_add_days",
    "make_date",
    "Column",
    "Schema",
    "Interval",
    "IntervalSet",
    "NEG_INF",
    "POS_INF",
    "SortKey",
    "Collation",
    "DEFAULT_COLLATION",
]

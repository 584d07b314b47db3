"""Three-valued SQL value semantics.

SQL comparisons involving NULL yield UNKNOWN, which we model as Python
``None``.  The helpers here implement comparison, boolean connectives,
arithmetic, LIKE matching, and the date helpers used by the Section 2.4
email scenario (``date(today(), -2)``).

All helpers accept and return plain Python values; NULL is ``None``.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Optional

from repro.errors import ExecutionError
from repro.types.collation import DEFAULT_COLLATION

#: canonical NULL marker (SQL NULL == Python None)
NULL = None


def collation_key(value: Any) -> Any:
    """Canonical comparison/hash key for a value under the engine's
    default collation: strings fold per Latin1_General_CI_AS (so
    ``'Apple' = 'APPLE'``, matching LIKE's existing behaviour); other
    values pass through.  Every equality/grouping/hashing site must use
    the same fold or hash joins and stream aggregates would disagree
    with ``=``.
    """
    if isinstance(value, str):
        return DEFAULT_COLLATION.normalize(value)
    return value


def equality_key(value: Any) -> Any:
    """Grouping/hashing key under ``=``: ``bool`` and integral floats
    unify with ``int``, strings fold by :func:`collation_key`.  Exact
    ``int``, NULL and ``str`` take their answer without the general
    tests; every other value goes through them."""
    kind = type(value)
    if kind is int or value is None:
        return value
    if kind is str:
        return DEFAULT_COLLATION.normalize(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return collation_key(value)


def _comparable(a: Any, b: Any) -> tuple[Any, Any]:
    """Normalize a pair of non-NULL values so Python can compare them."""
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a, b
    if isinstance(a, str) and isinstance(b, str):
        # string comparison honours the default collation
        return DEFAULT_COLLATION.normalize(a), DEFAULT_COLLATION.normalize(b)
    if isinstance(a, _dt.datetime) and isinstance(b, _dt.date) and not isinstance(
        b, _dt.datetime
    ):
        return a, _dt.datetime(b.year, b.month, b.day)
    if isinstance(b, _dt.datetime) and isinstance(a, _dt.date) and not isinstance(
        a, _dt.datetime
    ):
        return _dt.datetime(a.year, a.month, a.day), b
    if type(a) is type(b):
        return a, b
    if isinstance(a, str) and isinstance(b, (int, float)):
        try:
            return float(a), float(b)
        except ValueError:
            pass
    if isinstance(b, str) and isinstance(a, (int, float)):
        try:
            return float(a), float(b)
        except ValueError:
            pass
    if isinstance(a, str) and isinstance(b, (_dt.date, _dt.datetime)):
        return _parse_temporal(a, b), b
    if isinstance(b, str) and isinstance(a, (_dt.date, _dt.datetime)):
        return a, _parse_temporal(b, a)
    raise ExecutionError(f"cannot compare {a!r} with {b!r}")


def _parse_temporal(text: str, like: Any) -> Any:
    try:
        if isinstance(like, _dt.datetime):
            return _dt.datetime.fromisoformat(text)
        return _dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        # SQL-Serverish loose dates: '1992-1-1'
        parts = [int(p) for p in text.split("-")]
        if len(parts) == 3:
            if isinstance(like, _dt.datetime):
                return _dt.datetime(*parts)
            return _dt.date(*parts)
    except (ValueError, TypeError):
        pass
    raise ExecutionError(f"cannot compare {text!r} with {like!r}")


def sql_eq(a: Any, b: Any) -> Optional[bool]:
    """SQL ``=``: NULL if either side is NULL."""
    if a is None or b is None:
        return None
    a, b = _comparable(a, b)
    return a == b


def sql_ne(a: Any, b: Any) -> Optional[bool]:
    """SQL ``<>``."""
    eq = sql_eq(a, b)
    return None if eq is None else not eq


def sql_lt(a: Any, b: Any) -> Optional[bool]:
    """SQL ``<``."""
    if a is None or b is None:
        return None
    a, b = _comparable(a, b)
    return a < b


def sql_le(a: Any, b: Any) -> Optional[bool]:
    """SQL ``<=``."""
    if a is None or b is None:
        return None
    a, b = _comparable(a, b)
    return a <= b


def sql_gt(a: Any, b: Any) -> Optional[bool]:
    """SQL ``>``."""
    if a is None or b is None:
        return None
    a, b = _comparable(a, b)
    return a > b


def sql_ge(a: Any, b: Any) -> Optional[bool]:
    """SQL ``>=``."""
    if a is None or b is None:
        return None
    a, b = _comparable(a, b)
    return a >= b


def sql_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued AND: FALSE dominates UNKNOWN."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued OR: TRUE dominates UNKNOWN."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_not(a: Optional[bool]) -> Optional[bool]:
    """Three-valued NOT."""
    if a is None:
        return None
    return not a


def sql_is_null(a: Any) -> bool:
    """SQL ``IS NULL`` — never UNKNOWN."""
    return a is None


def sql_add(a: Any, b: Any) -> Any:
    """SQL ``+`` with NULL propagation; strings concatenate."""
    if a is None or b is None:
        return None
    if isinstance(a, str) and isinstance(b, str):
        return a + b
    return a + b


def sql_sub(a: Any, b: Any) -> Any:
    """SQL ``-`` with NULL propagation."""
    if a is None or b is None:
        return None
    return a - b


def sql_mul(a: Any, b: Any) -> Any:
    """SQL ``*`` with NULL propagation."""
    if a is None or b is None:
        return None
    return a * b


def sql_div(a: Any, b: Any) -> Any:
    """SQL ``/`` with NULL propagation; division by zero is an error."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # T-SQL integer division truncates toward zero
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def _like_regex(pattern: str) -> re.Pattern[str]:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("".join(parts) + r"\Z", re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def sql_like(value: Any, pattern: Any) -> Optional[bool]:
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (case-insensitive,
    matching SQL Server's default collation behaviour)."""
    if value is None or pattern is None:
        return None
    return _like_regex(str(pattern)).match(str(value)) is not None


def date_add_days(base: Any, days: Any) -> Any:
    """The paper's ``date(d, n)`` function: ``d`` shifted by ``n`` days."""
    if base is None or days is None:
        return None
    if isinstance(base, str):
        base = _dt.date.fromisoformat(base)
    return base + _dt.timedelta(days=int(days))


def make_date(year: int, month: int, day: int) -> _dt.date:
    """Construct a date value."""
    return _dt.date(year, month, day)

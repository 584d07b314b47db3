"""Per-session execution state for a shared engine.

A :class:`Session` owns everything that used to live as mutable
singletons on :class:`~repro.engine.ServerInstance` — ``PARALLEL_DOP``,
``PARTIAL_RESULTS``, the current transaction —
so many threads can run statements against one engine concurrently
without settings leaking between them.  ``engine.execute`` without an
explicit session runs on the engine's *default session*, preserving
the single-user API; ``engine.create_session()`` mints independent
ones.

Settings are applied atomically by ``SET``: validation happens before
any field is mutated, so a failed ``SET`` leaves the session exactly
as it was (the historical bug was ``SET`` writing through to the
engine singleton, where a mid-statement failure left half-applied
state visible to every caller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SqlError, UnknownSetOptionError
from repro.observability.trace import NO_SPAN

__all__ = ["Session", "StatementContext", "apply_set"]


class Session:
    """One client's settings + transaction scope over a shared engine.

    A session is *not* a thread: any thread may use it, but a single
    session should not run two statements at once (like one ODBC
    connection).  Cross-session concurrency is the supported mode.
    """

    def __init__(self, engine: Any, session_id: int, name: str = ""):
        self.engine = engine
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        #: degree of parallelism for exchange scheduling (cache-invariant)
        self.parallel_dop = 1
        #: answer PV reads from live partitions when members are dark
        self.partial_results = False
        #: active local transaction attached to DML when none is passed
        self.txn: Optional[Any] = None
        #: explicit workload-group binding (SET WORKLOAD GROUP 'name');
        #: None lets the governor's classifier rules decide
        self.workload_group: Optional[str] = None
        #: statements executed through this session (DMV surface)
        self.statement_count = 0

    # -- statement entry points --------------------------------------------
    def execute(self, sql_text: str, params: Any = None, txn: Any = None):
        return self.engine.execute(sql_text, params, txn=txn, session=self)

    def plan(self, sql_text: str):
        return self.engine.plan(sql_text, session=self)

    # -- transactions -------------------------------------------------------
    def begin_transaction(self, name: str = ""):
        from repro.storage.transactions import LocalTransaction

        if self.txn is not None and self.txn.state == LocalTransaction.ACTIVE:
            raise RuntimeError(
                f"{self.name} already has an active transaction"
            )
        self.txn = LocalTransaction(name or f"{self.name}-txn")
        return self.txn

    def commit(self) -> None:
        if self.txn is None:
            raise RuntimeError(f"{self.name} has no active transaction")
        self.txn.commit()
        self.txn = None

    def abort(self) -> None:
        if self.txn is None:
            raise RuntimeError(f"{self.name} has no active transaction")
        self.txn.abort()
        self.txn = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Session({self.name!r}, dop={self.parallel_dop}, "
            f"partial={self.partial_results})"
        )


@dataclass
class StatementContext:
    """What one statement carries from the driver (``engine.execute``)
    through its handler: whose statement it is, what it may spend, and
    where its telemetry goes."""

    session: Session
    #: None for a SELECT nested in DML, which makes it uncacheable
    sql_text: Optional[str] = None
    params: Optional[dict] = None
    txn: Any = None
    trace: Any = None
    #: the statement's :class:`~repro.network.ledger.StatementLedger`:
    #: what it charged per channel, plus the trace and timeout budget
    #: those charges reach (inherited from an enclosing statement when
    #: this one brings none)
    ledger: Any = None
    #: the workload group, once the governor has classified
    group: Any = None
    #: the statement cache's entry for ``sql_text`` (the parsed
    #: statement and the normalized text), once the driver has probed
    cached: Any = None

    def span(self, name: str, **attrs: Any):
        """A trace span, or the shared no-op when tracing is off."""
        if self.trace is None:
            return NO_SPAN
        return self.trace.span(name, **attrs)


# -- SET ------------------------------------------------------------------
def _dop(engine: Any, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SqlError("SET PARALLEL_DOP expects an integer >= 1")
    return value


def _mirror_dop(engine: Any, dop: int) -> None:
    engine.optimizer.parallel_dop = dop
    engine.metrics.set_gauge("engine.parallel_dop", float(dop))


def _on_off(engine: Any, value: Any) -> bool:
    if not isinstance(value, bool):
        raise SqlError("SET PARTIAL_RESULTS expects ON or OFF")
    return value


def _mirror_partial_results(engine: Any, on: bool) -> None:
    engine.metrics.set_gauge("engine.partial_results", 1.0 if on else 0.0)


def _group_name(engine: Any, value: Any) -> str:
    if not isinstance(value, str):
        raise SqlError("SET WORKLOAD GROUP expects a quoted group name")
    if value.lower() not in engine.governor.groups:
        raise SqlError(
            f"unknown workload group {value!r}; defined groups are: "
            f"{', '.join(sorted(engine.governor.groups))}"
        )
    return value.lower()


#: option, which is also the Session attribute it sets -> (display name,
#: validate(engine, value) -> value, mirror(engine, value) or None)
SET_OPTIONS = {
    "parallel_dop": ("PARALLEL_DOP", _dop, _mirror_dop),
    "partial_results": ("PARTIAL_RESULTS", _on_off, _mirror_partial_results),
    "workload_group": ("WORKLOAD GROUP", _group_name, None),
}


def apply_set(engine: Any, session: Session, option: str, value: Any) -> None:
    """Apply one ``SET`` atomically: the value is validated before the
    session changes, and only the session changes (the default session
    alone mirrors to the engine's optimizer and gauges) — so a failed
    or racing SET can neither half-apply nor leak into another session."""
    row = SET_OPTIONS.get(option)
    if row is None:
        raise UnknownSetOptionError(
            option, supported=tuple(row[0] for row in SET_OPTIONS.values())
        )
    __, validate, mirror = row
    value = validate(engine, value)
    setattr(session, option, value)
    if mirror is not None and session is engine._default_session:
        mirror(engine, value)

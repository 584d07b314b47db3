"""Write-ahead coordinator log for presumed-abort two-phase commit.

The log is the coordinator's only durable state.  Records are appended
to a volatile tail and become crash-survivable on :meth:`flush` — the
simulated fsync, which charges ``FSYNC_MS`` to the engine's
:class:`~repro.resilience.health.SimulatedClock` so durability has a
visible latency cost in every experiment.  A coordinator crash
(:meth:`crash`) discards the volatile tail, exactly like losing the OS
page cache.

Presumed abort needs only one forced write per committed transaction —
the ``commit-decision`` record.  Everything else (``begin``,
per-branch ``prepared`` votes, phase-2 ``branch-acked`` entries and the
terminal ``forgotten`` record) rides along unforced: if they are lost,
recovery *presumes abort* for transactions with no durable decision and
conservatively re-delivers COMMIT (idempotently) for transactions whose
decision survived but whose acks did not.

Record kinds::

    begin            txn started phase 1 (participants listed)
    prepared         one branch voted yes
    commit-decision  the commit point (the only forced record)
    branch-acked     one branch acknowledged the decision
    forgotten        all acks in; the coordinator may drop the txn
"""

from __future__ import annotations

from typing import Any, Optional

#: simulated cost of one forced log write
FSYNC_MS = 2.0

BEGIN = "begin"
PREPARED = "prepared"
COMMIT_DECISION = "commit-decision"
BRANCH_ACKED = "branch-acked"
FORGOTTEN = "forgotten"

RECORD_KINDS = (BEGIN, PREPARED, COMMIT_DECISION, BRANCH_ACKED, FORGOTTEN)


class LogRecord:
    """One coordinator-log entry."""

    __slots__ = ("kind", "txn_id", "data", "at_ms", "durable")

    def __init__(self, kind: str, txn_id: int, data: dict, at_ms: float):
        self.kind = kind
        self.txn_id = txn_id
        self.data = data
        self.at_ms = at_ms
        #: True once a flush has made this record crash-survivable
        self.durable = False

    def __repr__(self) -> str:
        tag = "durable" if self.durable else "volatile"
        return f"LogRecord({self.kind}, txn={self.txn_id}, {tag})"


class ReplayedTransaction:
    """What the durable log knows about one transaction after a crash."""

    __slots__ = ("txn_id", "participants", "decided", "acked", "forgotten")

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.participants: list[str] = []
        #: True iff a durable commit-decision record exists
        self.decided = False
        self.acked: set[str] = set()
        self.forgotten = False

    @property
    def decision(self) -> str:
        """``commit`` when the decision record survived, else the
        presumed-abort default."""
        return "commit" if self.decided else "abort"

    def __repr__(self) -> str:
        return (
            f"ReplayedTransaction(txn={self.txn_id}, "
            f"decision={self.decision}, acked={sorted(self.acked)})"
        )


class CoordinatorLog:
    """In-memory WAL with explicit fsync points on the simulated clock."""

    def __init__(self, clock: Any, metrics: Optional[Any] = None,
                 fsync_ms: float = FSYNC_MS):
        self._clock = clock
        self._metrics = metrics
        self.fsync_ms = fsync_ms
        self._records: list[LogRecord] = []
        self.fsyncs = 0

    # -- writing -----------------------------------------------------------
    def append(self, kind: str, txn_id: int, **data: Any) -> LogRecord:
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown log record kind {kind!r}")
        record = LogRecord(kind, txn_id, data, self._clock.now_ms)
        self._records.append(record)
        return record

    def flush(self) -> None:
        """Force every appended record to stable storage (simulated):
        charges one fsync to the clock and marks the tail durable."""
        self._clock.advance(self.fsync_ms)
        self.fsyncs += 1
        if self._metrics is not None:
            self._metrics.increment("dtc.fsyncs")
        for record in self._records:
            record.durable = True

    # -- crash & recovery ---------------------------------------------------
    def crash(self) -> int:
        """Lose the volatile tail (a coordinator process crash).
        Returns how many unflushed records were dropped."""
        survivors = [r for r in self._records if r.durable]
        dropped = len(self._records) - len(survivors)
        self._records = survivors
        return dropped

    @property
    def records(self) -> list[LogRecord]:
        return list(self._records)

    def replay(self) -> dict[int, ReplayedTransaction]:
        """Reconstruct per-transaction durable state — the recovery
        scan.  Only durable records count: a lost ``commit-decision``
        means the transaction is presumed aborted."""
        replayed: dict[int, ReplayedTransaction] = {}

        def entry(txn_id: int) -> ReplayedTransaction:
            found = replayed.get(txn_id)
            if found is None:
                found = ReplayedTransaction(txn_id)
                replayed[txn_id] = found
            return found

        for record in self._records:
            if not record.durable:
                continue
            txn = entry(record.txn_id)
            if record.kind == BEGIN:
                txn.participants = list(record.data.get("participants", ()))
            elif record.kind == COMMIT_DECISION:
                txn.decided = True
                participants = record.data.get("participants")
                if participants:
                    txn.participants = list(participants)
            elif record.kind == BRANCH_ACKED:
                txn.acked.add(record.data.get("branch", ""))
            elif record.kind == FORGOTTEN:
                txn.forgotten = True
        return replayed

    def __repr__(self) -> str:
        durable = sum(1 for r in self._records if r.durable)
        return (
            f"CoordinatorLog({len(self._records)} records, "
            f"{durable} durable, {self.fsyncs} fsyncs)"
        )

"""Crash-safe presumed-abort two-phase commit coordinator.

The protocol (Section 2 delegates this to MS DTC; we implement it):

::

    phase 1                      phase 2
    -------                      -------
    PREPARE -> every branch      log commit-decision  (FORCED write)
    collect votes                COMMIT -> every branch
    any "no" -> abort all        log branch-acked per ack
                                 log forgotten, drop the txn

*Presumed abort* means the only forced log write is the commit
decision: a transaction with no durable decision record is aborted by
definition, so recovery after any crash earlier than the decision
flush rolls every prepared branch back, while a crash after it
re-drives COMMIT (idempotently) until every branch acks.

Crash injection: a :class:`~repro.resilience.faults.TwoPCFaultPlan`
arms protocol-step crash points (``coordinator_mid_commit``,
``commit_ack_lost:r1``, ...).  A fired coordinator crash point drops
the volatile log tail and surfaces as
:class:`~repro.errors.TransactionInDoubtError`; the transaction parks
in the in-doubt set until :meth:`TransactionCoordinator.recover`
replays the durable log and re-drives the logged decision to every
branch with the standard :class:`~repro.resilience.retry.RetryPolicy`.

While a transaction is in doubt its participants hold prepared state
whose effects are visible in the storage layer (undo is logical, not
versioned), so the coordinator doubles as the **in-doubt resolver**:
the engine consults :meth:`TransactionCoordinator.check_accessible`
before running statements against members or tables an in-doubt
transaction touches, failing them fast instead of exposing torn state.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional

from repro.dtc.log import (
    BEGIN,
    BRANCH_ACKED,
    COMMIT_DECISION,
    CoordinatorLog,
    FORGOTTEN,
    PREPARED,
)
from repro.errors import (
    TransactionAborted,
    TransactionError,
    TransactionInDoubtError,
    TransientNetworkError,
    ServerUnavailableError,
)
from repro.network.ledger import current_trace
from repro.resilience.health import SimulatedClock
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.storage.transactions import ResourceManager


class Branch:
    """One enlisted resource manager (one participating server)."""

    ENLISTED = "enlisted"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"

    __slots__ = ("name", "rm", "state", "prepared_at_ms")

    def __init__(self, name: str, rm: ResourceManager):
        self.name = name
        self.rm = rm
        self.state = self.ENLISTED
        self.prepared_at_ms: Optional[float] = None

    def touched_tables(self) -> frozenset:
        tables = getattr(self.rm, "touched_tables", None)
        if callable(tables):
            return frozenset(tables())
        return frozenset()

    def __repr__(self) -> str:
        return f"Branch({self.name}, {self.state})"


class DistributedTransaction:
    """One distributed transaction spanning multiple resource managers."""

    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"
    IN_DOUBT = "in-doubt"

    def __init__(self, txn_id: int, coordinator: Optional[
            "TransactionCoordinator"] = None):
        self.txn_id = txn_id
        self.state = self.ACTIVE
        self._branches: list[Branch] = []
        self._coordinator = coordinator
        self._lock = threading.RLock()
        #: exactly-once counter latch: set when the coordinator has
        #: attributed this txn to committed_count or aborted_count
        self._counted = False
        #: clock reading when the txn entered the in-doubt state
        self.in_doubt_since_ms: Optional[float] = None
        #: the protocol step whose injected crash parked the txn
        self.crash_point: Optional[str] = None

    def enlist(self, name: str, branch: ResourceManager) -> None:
        """Add a resource manager branch (one per participating server)."""
        with self._lock:
            if self.state != self.ACTIVE:
                raise TransactionError(
                    f"cannot enlist in {self.state} transaction {self.txn_id}"
                )
            self._branches.append(Branch(name, branch))

    @property
    def branches(self) -> list[Branch]:
        return list(self._branches)

    @property
    def branch_names(self) -> list[str]:
        return [branch.name for branch in self._branches]

    def commit(self) -> None:
        """Run both phases through the owning coordinator."""
        if self._coordinator is None:
            raise TransactionError(
                f"transaction {self.txn_id} has no coordinator"
            )
        self._coordinator.commit(self)

    def abort(self) -> None:
        """Roll back every branch.

        The sweep always attempts *every* branch: a failure rolling one
        back is collected, the remaining branches are still aborted,
        and the aggregate surfaces afterwards — one unreachable member
        must never leave its siblings un-rolled-back.
        """
        with self._lock:
            if self.state == self.COMMITTED:
                raise TransactionError(
                    f"transaction {self.txn_id} already committed"
                )
            if self.state == self.ABORTED:
                return
            if self.state == self.IN_DOUBT:
                raise TransactionInDoubtError(
                    f"transaction {self.txn_id} is in doubt; only "
                    f"recovery may resolve it",
                    txn_id=self.txn_id,
                    crash_point=self.crash_point,
                )
            self.state = self.ABORTING
        failures = self._abort_sweep()
        with self._lock:
            self.state = self.ABORTED
        if failures:
            details = "; ".join(
                f"{name}: {type(error).__name__}: {error}"
                for name, error in failures
            )
            raise TransactionError(
                f"transaction {self.txn_id} aborted, but "
                f"{len(failures)} branch rollback(s) failed: {details}"
            )

    def _abort_sweep(self) -> list[tuple[str, Exception]]:
        """Abort every branch not already terminal; aggregate failures."""
        failures: list[tuple[str, Exception]] = []
        for branch in self._branches:
            if branch.state in (Branch.COMMITTED, Branch.ABORTED):
                continue
            try:
                branch.rm.abort()
                branch.state = Branch.ABORTED
            except Exception as error:  # noqa: BLE001 - aggregated
                failures.append((branch.name, error))
        return failures

    def __repr__(self) -> str:
        return (
            f"DistributedTransaction({self.txn_id}, {self.state}, "
            f"branches={self.branch_names})"
        )


class RecoveryReport:
    """What one :meth:`TransactionCoordinator.recover` pass resolved."""

    def __init__(self) -> None:
        #: txn ids whose durable commit decision was re-driven to
        #: completion
        self.committed: list[int] = []
        #: txn ids presumed aborted (no durable decision survived)
        self.aborted: list[int] = []
        #: txn ids still unresolved (a branch stayed unreachable)
        self.unresolved: list[int] = []

    @property
    def resolved(self) -> int:
        return len(self.committed) + len(self.aborted)

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(committed={self.committed}, "
            f"aborted={self.aborted}, unresolved={self.unresolved})"
        )


class TransactionCoordinator:
    """The MS DTC role: registry, WAL, crash points, and recovery.

    Thread-safe: ``begin``/``commit``/``abort`` may race across
    sessions — id minting, the active/in-doubt registries and the
    outcome counters all mutate under one lock, and each transaction
    is attributed to ``committed_count``/``aborted_count`` exactly once
    (a ``_counted`` latch survives commit-then-abort error paths).
    The 2PC protocol itself runs outside the registry lock (branch
    prepare/commit calls can traverse the simulated network), guarded
    per-transaction by the transaction's own lock-protected state
    machine.
    """

    def __init__(
        self,
        name: str = "dtc",
        clock: Optional[SimulatedClock] = None,
        metrics: Optional[Any] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.name = name
        self.clock = clock or SimulatedClock()
        self.metrics = metrics
        self.retry_policy = retry_policy or RetryPolicy()
        self.log = CoordinatorLog(self.clock, metrics)
        #: armed protocol-step crash points (None = no injection)
        self.crash_plan = None
        self._lock = threading.RLock()
        self._next_id = 1
        self._active: dict[int, DistributedTransaction] = {}
        self._in_doubt: dict[int, DistributedTransaction] = {}
        self.committed_count = 0
        self.aborted_count = 0
        self.recovered_count = 0

    # -- metrics / trace helpers -------------------------------------------
    def _count(self, metric: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.increment(metric, amount)

    def _gauge_in_doubt(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                "dtc.in_doubt_active", float(len(self._in_doubt))
            )

    @staticmethod
    def _trace_event(name: str, **attrs: Any) -> None:
        trace = current_trace()
        if trace is not None:
            trace.event(name, **attrs)

    # -- lifecycle ----------------------------------------------------------
    def begin(self) -> DistributedTransaction:
        with self._lock:
            txn = DistributedTransaction(self._next_id, self)
            self._active[self._next_id] = txn
            self._next_id += 1
        return txn

    def commit(self, txn: DistributedTransaction) -> None:
        """Drive both phases; raises :class:`TransactionAborted` on a
        "no" vote (after rolling every branch back) and
        :class:`TransactionInDoubtError` when an injected crash leaves
        the outcome to recovery."""
        with txn._lock:
            if txn.state != DistributedTransaction.ACTIVE:
                raise TransactionError(
                    f"transaction {txn.txn_id} already {txn.state}"
                )
            txn.state = DistributedTransaction.PREPARING
        try:
            self._phase_one(txn)
            self._phase_two(txn)
        except TransactionAborted:
            self._finish(txn, DistributedTransaction.ABORTED)
            raise
        except TransactionInDoubtError:
            raise
        self._finish(txn, DistributedTransaction.COMMITTED)

    def abort(self, txn: DistributedTransaction) -> None:
        try:
            txn.abort()
        finally:
            if txn.state == DistributedTransaction.ABORTED:
                self._finish(txn, DistributedTransaction.ABORTED)

    # -- the protocol -------------------------------------------------------
    def _phase_one(self, txn: DistributedTransaction) -> None:
        self._crash(txn, "coordinator_before_prepare")
        self.log.append(BEGIN, txn.txn_id, participants=txn.branch_names)
        for branch in txn.branches:
            refusal: Optional[str] = None
            try:
                vote = self._deliver(txn, branch, "prepare")
            except Exception as error:  # noqa: BLE001 - vote no
                vote = False
                refusal = f"{type(error).__name__}: {error}"
            if not vote:
                # the refusing branch self-aborted (or is unreachable);
                # sweep the rest — every branch, aggregated failures
                branch.state = Branch.ABORTED
                failures = txn._abort_sweep()
                with txn._lock:
                    txn.state = DistributedTransaction.ABORTED
                detail = f" ({refusal})" if refusal else ""
                if failures:
                    detail += (
                        "; rollback also failed on "
                        + ", ".join(name for name, __ in failures)
                    )
                self._trace_event(
                    "txn_abort", txn_id=txn.txn_id, branch=branch.name
                )
                raise TransactionAborted(
                    f"transaction {txn.txn_id} aborted: branch "
                    f"{branch.name!r} voted no during prepare{detail}"
                )
            branch.state = Branch.PREPARED
            branch.prepared_at_ms = self.clock.now_ms
            self.log.append(PREPARED, txn.txn_id, branch=branch.name)
            self._count("dtc.prepares")
        self._crash(txn, "coordinator_after_prepare")

    def _phase_two(self, txn: DistributedTransaction) -> None:
        with txn._lock:
            txn.state = DistributedTransaction.COMMITTING
        self.log.append(
            COMMIT_DECISION, txn.txn_id, participants=txn.branch_names
        )
        self._crash(txn, "coordinator_after_decision_append")
        self.log.flush()  # THE commit point: the one forced write
        self._trace_event("txn_decision", txn_id=txn.txn_id,
                          decision="commit")
        self._crash(txn, "coordinator_after_decision_flush")
        first = True
        for branch in txn.branches:
            self._deliver_commit(txn, branch)
            self.log.append(BRANCH_ACKED, txn.txn_id, branch=branch.name)
            if first:
                first = False
                self._crash(txn, "coordinator_mid_commit")
        self._crash(txn, "coordinator_before_forget")
        self.log.append(FORGOTTEN, txn.txn_id)

    def _deliver_commit(
        self, txn: DistributedTransaction, branch: Branch
    ) -> None:
        """Phase-2 delivery: converts an undeliverable decision into
        the in-doubt state (the decision is already durable, so only
        recovery — not this statement — may resolve the branch)."""
        try:
            self._deliver(txn, branch, "commit")
        except TransactionInDoubtError:
            raise
        except Exception as error:  # noqa: BLE001 - park in doubt
            self._park_in_doubt(
                txn, f"participant_down_on_commit:{branch.name}"
            )
            raise TransactionInDoubtError(
                f"commit decision for transaction {txn.txn_id} could not "
                f"be delivered to branch {branch.name!r} "
                f"({type(error).__name__}: {error}); the branch holds "
                f"prepared state until recovery re-drives the decision",
                txn_id=txn.txn_id,
                crash_point=f"participant_down_on_commit:{branch.name}",
            ) from error

    def _deliver(
        self, txn: DistributedTransaction, branch: Branch, verb: str
    ) -> Any:
        """One protocol message to one branch, under the retry policy.

        Injected delivery faults fire here: ``participant_down_on_commit``
        makes the branch unreachable (non-retryable), ``commit_ack_lost``
        applies the commit but loses the ack, so the retry loop
        re-delivers and the branch must treat the duplicate as a no-op.
        """
        plan = self.crash_plan
        attempts = {"n": 0}

        def attempt() -> Any:
            attempts["n"] += 1
            if (
                verb == "commit"
                and plan is not None
                and plan.should_fire(
                    f"participant_down_on_commit:{branch.name}"
                )
            ):
                raise ServerUnavailableError(
                    f"participant {branch.name!r} unreachable between "
                    f"prepare-ack and commit"
                )
            result = getattr(branch.rm, verb)()
            if (
                verb == "commit"
                and plan is not None
                and plan.should_fire(f"commit_ack_lost:{branch.name}")
            ):
                self._count("dtc.acks_lost")
                raise TransientNetworkError(
                    f"commit ack from branch {branch.name!r} lost; "
                    f"re-delivering"
                )
            return result

        channel = getattr(branch.rm, "channel", None)
        result = call_with_retry(
            self.retry_policy, channel, attempt,
            description=f"dtc-{verb}:{branch.name}",
        )
        if attempts["n"] > 1:
            self._count("dtc.redeliveries", float(attempts["n"] - 1))
        if verb == "commit":
            branch.state = Branch.COMMITTED
        return result

    # -- crash modeling -----------------------------------------------------
    def _crash(self, txn: DistributedTransaction, step: str) -> None:
        plan = self.crash_plan
        if plan is None or not plan.should_fire(step):
            return
        dropped = self.log.crash()
        self._park_in_doubt(txn, step)
        self._trace_event(
            "txn_in_doubt", txn_id=txn.txn_id, crash_point=step,
            log_records_lost=dropped,
        )
        raise TransactionInDoubtError(
            f"coordinator crashed at {step} during transaction "
            f"{txn.txn_id} ({dropped} volatile log record(s) lost); "
            f"run recover() to resolve",
            txn_id=txn.txn_id,
            crash_point=step,
        )

    def _park_in_doubt(
        self, txn: DistributedTransaction, step: str
    ) -> None:
        with txn._lock:
            txn.state = DistributedTransaction.IN_DOUBT
            txn.in_doubt_since_ms = self.clock.now_ms
            txn.crash_point = step
        with self._lock:
            self._active.pop(txn.txn_id, None)
            self._in_doubt[txn.txn_id] = txn
            self._count("dtc.in_doubt")
            self._gauge_in_doubt()

    def _finish(self, txn: DistributedTransaction, state: str) -> None:
        """Terminal bookkeeping; counts each txn exactly once."""
        with txn._lock:
            txn.state = state
        with self._lock:
            if not txn._counted:
                txn._counted = True
                if state == DistributedTransaction.COMMITTED:
                    self.committed_count += 1
                    self._count("dtc.commits")
                else:
                    self.aborted_count += 1
                    self._count("dtc.aborts")
            self._active.pop(txn.txn_id, None)
            self._in_doubt.pop(txn.txn_id, None)
            self._gauge_in_doubt()

    # -- recovery -----------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Replay the durable log and resolve every in-doubt txn.

        Transactions with a durable ``commit-decision`` get the commit
        re-driven to every branch (idempotently — branches that already
        committed treat the duplicate as a no-op); transactions without
        one are *presumed aborted* and every prepared branch is rolled
        back.  Idempotent: a second pass with nothing in doubt is a
        no-op, and re-running after a partial recovery only touches the
        still-unresolved transactions.
        """
        report = RecoveryReport()
        with self._lock:
            pending = list(self._in_doubt.values())
        replayed = self.log.replay()
        for txn in pending:
            info = replayed.get(txn.txn_id)
            commit = (
                info is not None and info.decided and not info.forgotten
            )
            verb = "commit" if commit else "abort"
            failures: list[tuple[str, Exception]] = []
            for branch in txn.branches:
                target = Branch.COMMITTED if commit else Branch.ABORTED
                try:
                    self._deliver(txn, branch, verb)
                    branch.state = target
                    if commit:
                        self.log.append(
                            BRANCH_ACKED, txn.txn_id, branch=branch.name
                        )
                except Exception as error:  # noqa: BLE001 - aggregated
                    failures.append((branch.name, error))
            if failures:
                report.unresolved.append(txn.txn_id)
                continue
            self.log.append(FORGOTTEN, txn.txn_id)
            self.log.flush()
            self._finish(
                txn,
                DistributedTransaction.COMMITTED
                if commit
                else DistributedTransaction.ABORTED,
            )
            with self._lock:
                self.recovered_count += 1
            self._count("dtc.recoveries")
            (report.committed if commit else report.aborted).append(
                txn.txn_id
            )
        return report

    # -- the in-doubt resolver ----------------------------------------------
    def has_in_doubt(self) -> bool:
        return bool(self._in_doubt)

    def in_doubt_transactions(self) -> list[DistributedTransaction]:
        with self._lock:
            return list(self._in_doubt.values())

    @staticmethod
    def _undecided(branch: Branch) -> bool:
        # a committed or aborted branch holds decided, final state —
        # reading it is safe even while the txn awaits its forget
        # record; only enlisted/prepared branches hide torn state
        return branch.state not in (Branch.COMMITTED, Branch.ABORTED)

    def in_doubt_branches(self) -> frozenset:
        """Lower-cased branch (server) names with *undecided* state
        held by in-doubt txns."""
        with self._lock:
            return frozenset(
                branch.name.lower()
                for txn in self._in_doubt.values()
                for branch in txn.branches
                if self._undecided(branch)
            )

    def in_doubt_tables(self) -> frozenset:
        """Lower-cased table names touched by undecided branches."""
        with self._lock:
            return frozenset(
                table.lower()
                for txn in self._in_doubt.values()
                for branch in txn.branches
                if self._undecided(branch)
                for table in branch.touched_tables()
            )

    def check_accessible(
        self,
        servers: Iterable[str] = (),
        tables: Iterable[str] = (),
    ) -> None:
        """Fail fast when a statement would touch in-doubt state.

        ``servers`` are linked-server names the statement reads or
        writes through; ``tables`` are unqualified table names.  Any
        overlap with an in-doubt transaction's branches or touched
        tables raises :class:`TransactionInDoubtError` — the statement
        must not observe effects whose fate is undecided.
        """
        if not self._in_doubt:
            return
        blocked_servers = sorted(
            {s.lower() for s in servers} & self.in_doubt_branches()
        )
        blocked_tables = sorted(
            {t.lower() for t in tables} & self.in_doubt_tables()
        )
        if not blocked_servers and not blocked_tables:
            return
        with self._lock:
            txn_ids = sorted(self._in_doubt)
        what = []
        if blocked_servers:
            what.append(f"member(s) {', '.join(blocked_servers)}")
        if blocked_tables:
            what.append(f"table(s) {', '.join(blocked_tables)}")
        raise TransactionInDoubtError(
            f"{' and '.join(what)} held by in-doubt transaction(s) "
            f"{txn_ids}; run recover() or SET PARTIAL_RESULTS ON to "
            f"degrade around the member",
            txn_id=txn_ids[0] if txn_ids else None,
        )

    # -- introspection -------------------------------------------------------
    @property
    def active_transactions(self) -> Iterable[DistributedTransaction]:
        with self._lock:
            return list(self._active.values())

    def transaction_rows(self) -> list[tuple]:
        """Rows for ``sys.dm_tran_active_transactions``: every active
        and in-doubt transaction with its branch roster and (for
        in-doubt ones) how long it has been awaiting recovery."""
        replayed = self.log.replay()
        rows: list[tuple] = []
        with self._lock:
            txns = list(self._active.values()) + list(
                self._in_doubt.values()
            )
        for txn in txns:
            info = replayed.get(txn.txn_id)
            decision = (
                "commit"
                if info is not None and info.decided
                else ("abort" if txn.state == txn.IN_DOUBT else None)
            )
            age = (
                self.clock.now_ms - txn.in_doubt_since_ms
                if txn.in_doubt_since_ms is not None
                else None
            )
            rows.append(
                (
                    txn.txn_id,
                    txn.state,
                    len(txn.branches),
                    ",".join(txn.branch_names),
                    age,
                    decision,
                    txn.crash_point,
                )
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"TransactionCoordinator(active={len(self._active)}, "
            f"in_doubt={len(self._in_doubt)}, "
            f"committed={self.committed_count}, aborted={self.aborted_count})"
        )

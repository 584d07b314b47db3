"""Network channels with latency/bandwidth accounting and fault hooks.

A channel charges a fixed per-message latency plus a per-byte transfer
cost, in simulated milliseconds, and keeps running totals.  Remote
rowsets stream through a channel row by row (with batching, mirroring
tabular data stream packets); commands (SQL text) are charged on the
way out.

Channels are also the failure surface (docs/FAULT_MODEL.md): an
attached :class:`~repro.resilience.faults.FaultInjector` decides per
message whether the channel drops it (transient), hangs past
``timeout_ms`` (timeout), or is unreachable (server-down); a slow-link
factor stretches transfer time.  The channel does all charging, metric
increments and trace events itself so every failure is accounted for
exactly once, whichever layer triggered it.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Optional, TYPE_CHECKING

from repro.errors import (
    RemoteTimeoutError,
    ServerUnavailableError,
    TransientNetworkError,
)
from repro.types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.trace import QueryTrace
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import QueryBudget

#: default per-row batch size for rowset streaming
DEFAULT_BATCH_ROWS = 128

#: per-thread charge accumulator for parallel workers (see
#: :func:`attach_worker_charges`)
_WORKER = threading.local()


def attach_worker_charges(accumulator: list) -> None:
    """Route every subsequent simulated-ms charge made on the calling
    thread into ``accumulator[0]`` (in addition to normal accounting).

    The exchange scheduler attaches a fresh one-element list per plan
    branch so each branch's exact simulated time is known even when
    several branches share a channel — the basis for the ``saved_ms``
    latency-hiding credit.  Charges are counters, not sleeps, so this
    is the only way to observe per-branch overlap."""
    _WORKER.charges = accumulator


def detach_worker_charges() -> None:
    """Stop routing the calling thread's charges (see
    :func:`attach_worker_charges`)."""
    _WORKER.charges = None


#: per-thread statement scope: the (trace, budget) pair of the statement
#: currently running on this thread.  Channels are shared by every
#: session of an engine, so statement attribution must be thread-local —
#: a plain instance attribute would leak one session's trace/budget into
#: a concurrent session's charges.
_SCOPE = threading.local()


def attach_statement_scope(
    trace: Optional["QueryTrace"], budget: Optional["QueryBudget"]
) -> tuple:
    """Bind ``(trace, budget)`` to the calling thread for the duration
    of one statement; returns the prior pair for
    :func:`restore_statement_scope`."""
    prior = current_statement_scope()
    _SCOPE.trace = trace
    _SCOPE.budget = budget
    return prior


def restore_statement_scope(prior: tuple) -> None:
    """Undo :func:`attach_statement_scope` (pass its return value)."""
    _SCOPE.trace, _SCOPE.budget = prior


def current_statement_scope() -> tuple:
    """The calling thread's ``(trace, budget)`` pair (``(None, None)``
    when no statement is in flight)."""
    return (
        getattr(_SCOPE, "trace", None),
        getattr(_SCOPE, "budget", None),
    )


class NetworkStats:
    """Running totals for one channel (or an aggregate of channels).

    Besides raw traffic, the stats carry resilience outcomes — retry
    attempts, backoff time, breaker trips and breaker fast-fails — so a
    per-statement snapshot/delta (``QueryResult.network``) attributes
    them to the statement that paid for them, not just the aggregate
    ``network.*`` counters.
    """

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "round_trips",
        "simulated_ms",
        "retries",
        "backoff_ms",
        "breaker_trips",
        "breaker_fast_fails",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.round_trips = 0
        self.simulated_ms = 0.0
        self.retries = 0
        self.backoff_ms = 0.0
        self.breaker_trips = 0
        self.breaker_fast_fails = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def merge(self, other: "NetworkStats") -> None:
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.round_trips += other.round_trips
        self.simulated_ms += other.simulated_ms
        self.retries += other.retries
        self.backoff_ms += other.backoff_ms
        self.breaker_trips += other.breaker_trips
        self.breaker_fast_fails += other.breaker_fast_fails

    def snapshot(self) -> dict[str, float]:
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "round_trips": self.round_trips,
            "simulated_ms": self.simulated_ms,
            "retries": self.retries,
            "backoff_ms": self.backoff_ms,
            "breaker_trips": self.breaker_trips,
            "breaker_fast_fails": self.breaker_fast_fails,
        }

    def delta(self, before: dict[str, float]) -> dict[str, float]:
        """Difference against an earlier :meth:`snapshot` — the traffic
        attributable to whatever ran between the two points."""
        current = self.snapshot()
        return {
            key: current[key] - before.get(key, 0)
            for key in current
        }

    def __repr__(self) -> str:
        return (
            f"NetworkStats(sent={self.bytes_sent}B, recv={self.bytes_received}B, "
            f"rt={self.round_trips}, {self.simulated_ms:.2f}ms)"
        )


class NetworkChannel:
    """A simulated link between the local engine and one remote source.

    ``latency_ms`` is charged once per round trip; ``mb_per_second``
    converts bytes to simulated transfer time.  ``timeout_ms``, when
    set, bounds one message (command or streamed batch): a message whose
    simulated cost would exceed it charges exactly ``timeout_ms`` and
    raises :class:`~repro.errors.RemoteTimeoutError`.

    A channel with zero latency and infinite bandwidth (see
    :func:`local_channel`) models in-process access to the local storage
    engine — the paper notes local access goes through the same OLE DB
    path.  Local channels skip fault/timeout processing entirely.
    """

    def __init__(
        self,
        name: str = "remote",
        latency_ms: float = 1.0,
        mb_per_second: float = 100.0,
        timeout_ms: Optional[float] = None,
    ):
        self.name = name
        self.latency_ms = float(latency_ms)
        self.mb_per_second = float(mb_per_second)
        self.timeout_ms = timeout_ms
        self.stats = NetworkStats()
        #: marks the in-process channel (no faults, no charging)
        self.is_local = False
        #: optional failure source (docs/FAULT_MODEL.md)
        self.fault_injector: Optional["FaultInjector"] = None
        #: owning engine's registry; fault/retry counters land here
        self.metrics: Optional["MetricsRegistry"] = None
        #: pinned statement trace — overrides the thread-local scope
        #: when set directly (legacy single-session hook; the engine
        #: now attaches per-statement scope thread-locally, see
        #: :func:`attach_statement_scope`)
        self.trace: Optional["QueryTrace"] = None
        #: pinned timeout budget — same override semantics as ``trace``
        self.budget: Optional["QueryBudget"] = None
        #: guards ``stats`` mutations — parallel workers may stream
        #: through the same channel concurrently
        self._lock = threading.RLock()

    # -- cost primitives ------------------------------------------------------
    def transfer_ms(self, nbytes: int) -> float:
        """Simulated milliseconds to move ``nbytes`` (excl. latency)."""
        if self.mb_per_second <= 0:
            return 0.0
        return nbytes / (self.mb_per_second * 1024 * 1024) * 1000.0

    @property
    def slow_factor(self) -> float:
        """Slow-link multiplier from the attached injector (1.0 = none)."""
        injector = self.fault_injector
        return injector.slow_factor if injector is not None else 1.0

    # -- statement attribution ------------------------------------------------
    @property
    def active_trace(self) -> Optional["QueryTrace"]:
        """The trace charges should land on: a directly-pinned
        ``channel.trace`` wins, else the calling thread's statement
        scope."""
        if self.trace is not None:
            return self.trace
        return getattr(_SCOPE, "trace", None)

    @property
    def active_budget(self) -> Optional["QueryBudget"]:
        """The budget charges draw down (same resolution as
        :attr:`active_trace`)."""
        if self.budget is not None:
            return self.budget
        return getattr(_SCOPE, "budget", None)

    # -- charging ---------------------------------------------------------------
    def _charge_ms(self, ms: float) -> None:
        """Add simulated time to the running totals and, when a
        statement budget is attached, draw it down (which may raise)."""
        with self._lock:
            self.stats.simulated_ms += ms
        charges = getattr(_WORKER, "charges", None)
        if charges is not None:
            charges[0] += ms
        trace = self.active_trace
        if trace is not None:
            # attribute the charge to every open span so each level of
            # the span tree carries its inclusive network time
            trace.add_network_ms(ms)
        budget = self.active_budget
        if budget is not None:
            budget.charge(ms)

    # -- fault surface ----------------------------------------------------------
    def check_available(self) -> None:
        """Raise :class:`ServerUnavailableError` when the peer is down.

        Metadata operations (schema rowsets) use this as their only
        fault check: metadata itself stays free of charge, but an
        unreachable server must still refuse it.
        """
        injector = self.fault_injector
        if injector is not None and injector.is_down:
            self._count("network.faults_injected")
            self._count("network.faults_down")
            self._trace_event("fault_injected", kind="down")
            raise ServerUnavailableError(
                f"server behind channel {self.name!r} is unreachable"
            )

    def _consult_injector(self) -> None:
        """One fault decision for one message; raises on a fault."""
        injector = self.fault_injector
        if injector is None or self.is_local:
            return
        decision = injector.decide()
        if decision == "ok":
            return
        self._count("network.faults_injected")
        self._count(f"network.faults_{decision}")
        self._trace_event("fault_injected", kind=decision)
        if decision == "down":
            raise ServerUnavailableError(
                f"server behind channel {self.name!r} is unreachable"
            )
        if decision == "timeout":
            # the remote side hung: the consumer waits out the full
            # per-message timeout (or one latency, if none configured)
            waited = self.timeout_ms if self.timeout_ms is not None else self.latency_ms
            self._charge_ms(waited)
            self._count("network.timeouts")
            raise RemoteTimeoutError(
                f"message on channel {self.name!r} timed out "
                f"after {waited:g}ms"
            )
        # transient: the message is lost after one latency of waiting
        self._charge_ms(self.latency_ms)
        raise TransientNetworkError(
            f"transient fault on channel {self.name!r}"
        )

    def _charge_message(self, cost_ms: float) -> None:
        """Charge one message's simulated cost, enforcing the
        per-message timeout."""
        if self.timeout_ms is not None and cost_ms > self.timeout_ms:
            self._charge_ms(self.timeout_ms)
            self._count("network.timeouts")
            self._trace_event(
                "message_timeout", cost_ms=round(cost_ms, 3),
                timeout_ms=self.timeout_ms,
            )
            raise RemoteTimeoutError(
                f"message on channel {self.name!r} needed {cost_ms:.2f}ms "
                f"but timeout_ms={self.timeout_ms:g}"
            )
        self._charge_ms(cost_ms)

    # -- retry accounting (called by resilience.retry) --------------------------
    def charge_backoff(
        self, backoff_ms: float, attempt: int, description: str,
        error: Exception,
    ) -> None:
        """Account one retry: simulated backoff time + counters."""
        self._charge_ms(backoff_ms)
        with self._lock:
            self.stats.retries += 1
            self.stats.backoff_ms += backoff_ms
        self._count("network.retries")
        self._count("network.backoff_ms", backoff_ms)
        self._trace_event(
            "retry",
            attempt=attempt,
            backoff_ms=round(backoff_ms, 3),
            operation=description,
            error=type(error).__name__,
        )

    def note_retries_exhausted(self, description: str, attempts: int) -> None:
        self._count("network.retry_giveups")
        self._trace_event(
            "retries_exhausted", operation=description, attempts=attempts
        )

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def _trace_event(self, name: str, **attrs: Any) -> None:
        trace = self.active_trace
        if trace is not None:
            trace.event(name, channel=self.name, **attrs)

    # -- accounting -------------------------------------------------------------
    def send_command(self, text: str) -> None:
        """Charge an outgoing command (SQL text) and one round trip."""
        nbytes = len(text.encode("utf-8"))
        if self.is_local:
            with self._lock:
                self.stats.bytes_sent += nbytes
                self.stats.round_trips += 1
            return
        self._consult_injector()
        with self._lock:
            self.stats.bytes_sent += nbytes
            self.stats.round_trips += 1
        self._charge_message(
            self.latency_ms + self.transfer_ms(nbytes) * self.slow_factor
        )

    def stream_rows(
        self,
        rows: Iterable[tuple[Any, ...]],
        schema: Optional[Schema] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> Iterator[tuple[Any, ...]]:
        """Stream rows through the channel, charging per batch.

        Yields rows unchanged; the accounting happens as a side effect,
        with one round trip per ``batch_rows`` rows plus the per-row
        byte volume.  Each batch is one message for fault purposes: the
        injector is consulted at every batch boundary, and a batch whose
        accumulated cost exceeds ``timeout_ms`` raises mid-stream.
        """
        in_batch = 0
        batch_cost = 0.0
        for row in rows:
            if in_batch == 0:
                self._consult_injector()
                with self._lock:
                    self.stats.round_trips += 1
                batch_cost = self.latency_ms
                self._charge_ms(self.latency_ms)
            nbytes = self._row_bytes(row, schema)
            with self._lock:
                self.stats.bytes_received += nbytes
            row_cost = self.transfer_ms(nbytes) * self.slow_factor
            batch_cost += row_cost
            if (
                self.timeout_ms is not None
                and not self.is_local
                and batch_cost > self.timeout_ms
            ):
                self._count("network.timeouts")
                self._trace_event(
                    "message_timeout",
                    cost_ms=round(batch_cost, 3),
                    timeout_ms=self.timeout_ms,
                )
                raise RemoteTimeoutError(
                    f"streamed batch on channel {self.name!r} exceeded "
                    f"timeout_ms={self.timeout_ms:g}"
                )
            self._charge_ms(row_cost)
            in_batch = (in_batch + 1) % batch_rows
            yield row

    @staticmethod
    def _row_bytes(row: tuple[Any, ...], schema: Optional[Schema]) -> int:
        if schema is not None:
            return schema.row_width(row)
        total = 0
        for value in row:
            if value is None:
                total += 1
            elif isinstance(value, str):
                total += len(value) + 2
            elif isinstance(value, bool):
                total += 1
            elif isinstance(value, float):
                total += 8
            elif isinstance(value, int):
                total += 4 if -(2**31) <= value < 2**31 else 8
            else:
                total += 8
        return total

    def __repr__(self) -> str:
        return (
            f"NetworkChannel({self.name}, {self.latency_ms}ms, "
            f"{self.mb_per_second}MB/s)"
        )


def local_channel() -> NetworkChannel:
    """A fresh in-process "channel": free, instantaneous, fault-proof.

    Every :class:`~repro.oledb.datasource.DataSource` without an
    explicit channel gets its *own* local channel, so local traffic
    counters never aggregate across unrelated instances (the old
    module-level singleton silently did).
    """
    channel = NetworkChannel("local", latency_ms=0.0, mb_per_second=float("inf"))
    channel.is_local = True
    return channel

"""Network channels with latency/bandwidth accounting and fault hooks.

A channel charges every exchange by one rule (docs/ARCHITECTURE.md):
a request and its first response message are one round trip and one
latency, whatever interface carries them; each further
``DEFAULT_BATCH_ROWS`` batch of the response is one more; bytes count
both ways, at the link's bandwidth; a local channel costs no time,
and the rows it delivers pass uncounted.
:meth:`NetworkChannel.request` charges the request,
:meth:`NetworkChannel.stream_rows` the batches after the first, and
:meth:`NetworkChannel.exchange_ms` prices an exchange by the same
rule for the optimizer, which therefore never prices the wire itself.
A response message's bytes and transfer time are charged once: at its
boundary, or when the stream ends or is closed.

Channels are also the failure surface (docs/FAULT_MODEL.md): an
attached :class:`~repro.resilience.faults.FaultInjector` decides per
message whether the channel drops it (transient), hangs past
``timeout_ms`` (timeout), or is unreachable (server-down); a slow-link
factor stretches transfer time.  The channel does all charging, metric
increments and trace events itself so every failure is accounted for
exactly once, whichever layer triggered it.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Iterator, Optional, TYPE_CHECKING

from repro.errors import (
    RemoteTimeoutError,
    ServerUnavailableError,
    TransientNetworkError,
)
from repro.network.ledger import NetworkStats, current_ledger, current_trace
from repro.types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry
    from repro.resilience.faults import FaultInjector

#: default per-row batch size for rowset streaming
DEFAULT_BATCH_ROWS = 128


class NetworkChannel:
    """A simulated link between the local engine and one remote source.

    ``latency_ms`` is charged once per round trip; ``mb_per_second``
    converts bytes to simulated transfer time.  ``timeout_ms``, when
    set, bounds one message (command or streamed batch): a request whose
    simulated cost would exceed it charges exactly ``timeout_ms``, a
    streamed batch what it carried so far (:meth:`stream_rows`), and
    either raises :class:`~repro.errors.RemoteTimeoutError`.

    A channel with zero latency and infinite bandwidth (see
    :func:`local_channel`) models in-process access to the local storage
    engine — the paper notes local access goes through the same OLE DB
    path.  Local channels skip fault/timeout processing entirely, and
    rows a provider hands over through :meth:`deliver` are not charged.
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
        #: guards ``stats`` mutations — parallel workers may stream
        #: through the same channel concurrently
        self._lock = threading.RLock()

    # -- cost primitives ------------------------------------------------------
    def transfer_ms(self, nbytes: float) -> float:
        """Simulated milliseconds to move ``nbytes`` (excl. latency)."""
        if self.mb_per_second <= 0:
            return 0.0
        return nbytes / (self.mb_per_second * 1024 * 1024) * 1000.0

    def exchange_ms(
        self, request_bytes: float, rows: float = 0.0, row_width: float = 0.0
    ) -> float:
        """The exchange rule's price of one request of ``request_bytes``
        answered by ``rows`` rows of ``row_width`` bytes: one latency per
        message (the request with the first batch, then one per further
        batch) plus the transfer of both directions' bytes.  This is
        what :meth:`request` and :meth:`stream_rows` charge for it on a
        healthy link, and all the optimizer knows of the wire."""
        messages = math.ceil(rows / DEFAULT_BATCH_ROWS) if rows > 0 else 1
        return messages * self.latency_ms + self.transfer_ms(
            request_bytes + rows * row_width
        )

    @property
    def slow_factor(self) -> float:
        """Slow-link multiplier from the attached injector (1.0 = none)."""
        injector = self.fault_injector
        return injector.slow_factor if injector is not None else 1.0

    # -- charging ---------------------------------------------------------------
    def _charge(
        self,
        ms: float = 0.0,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        round_trips: int = 0,
    ) -> None:
        """The one place traffic is charged.  It lands on the channel's
        running totals (locked: parallel workers share the channel) and
        on the calling thread's statement ledger (unlocked: a ledger is
        written by one thread only); simulated time also lands on the
        thread's innermost span of the statement's trace (rolled up the
        span tree when the statement ends) and draws down the
        statement's budget (which may raise)."""
        self._charge_totals(ms, bytes_sent, bytes_received, round_trips)
        ledger = current_ledger()
        if ledger is None:
            return
        row = ledger.on(self)
        row.simulated_ms += ms
        row.bytes_sent += bytes_sent
        row.bytes_received += bytes_received
        row.round_trips += round_trips
        if ms:
            if ledger.trace is not None:
                ledger.trace.add_network_ms(ms)
            if ledger.budget is not None:
                ledger.budget.charge(ms)

    def _charge_totals(
        self,
        ms: float = 0.0,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        round_trips: int = 0,
    ) -> None:
        """Charge the channel's running totals only: for traffic whose
        statement has already ended (see :meth:`stream_rows`)."""
        stats = self.stats
        with self._lock:
            stats.simulated_ms += ms
            stats.bytes_sent += bytes_sent
            stats.bytes_received += bytes_received
            stats.round_trips += round_trips

    def tally(self, outcome: str, amount: float = 1) -> None:
        """Count one resilience outcome (``retries``, ``backoff_ms``,
        ``breaker_trips``, ``breaker_fast_fails``) on the running totals
        and on the calling thread's statement ledger."""
        with self._lock:
            setattr(self.stats, outcome, getattr(self.stats, outcome) + amount)
        ledger = current_ledger()
        if ledger is not None:
            row = ledger.on(self)
            setattr(row, outcome, getattr(row, outcome) + amount)

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
            self._charge(waited)
            self._count("network.timeouts")
            raise RemoteTimeoutError(
                f"message on channel {self.name!r} timed out "
                f"after {waited:g}ms"
            )
        # transient: the message is lost after one latency of waiting
        self._charge(self.latency_ms)
        raise TransientNetworkError(
            f"transient fault on channel {self.name!r}"
        )

    def request(self, nbytes: int = 0) -> None:
        """The one request primitive: a request of ``nbytes`` and its
        first response message (or a further batch of the response),
        charged as one round trip and one latency plus the request's
        transfer, after the injector's fault decision and under the
        per-message timeout.  A local channel's request never faults and
        costs no time; its bytes and round trip are still counted."""
        self._consult_injector()
        cost_ms = self.latency_ms + self.transfer_ms(nbytes) * self.slow_factor
        if self.timeout_ms is not None and cost_ms > self.timeout_ms:
            self._charge(self.timeout_ms, bytes_sent=nbytes, round_trips=1)
            self._count("network.timeouts")
            self._trace_event(
                "message_timeout", cost_ms=round(cost_ms, 3),
                timeout_ms=self.timeout_ms,
            )
            raise RemoteTimeoutError(
                f"message on channel {self.name!r} needed {cost_ms:.2f}ms "
                f"but timeout_ms={self.timeout_ms:g}"
            )
        self._charge(cost_ms, bytes_sent=nbytes, round_trips=1)

    # -- retry accounting (called by resilience.retry) --------------------------
    def charge_backoff(
        self, backoff_ms: float, attempt: int, description: str,
        error: Exception,
    ) -> None:
        """Account one retry: simulated backoff time + counters."""
        self._charge(backoff_ms)
        self.tally("retries")
        self.tally("backoff_ms", backoff_ms)
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
        trace = current_trace()
        if trace is not None:
            trace.event(name, channel=self.name, **attrs)

    # -- accounting -------------------------------------------------------------
    def send_command(self, text: str) -> None:
        """Send a command (SQL text, a DTC control message): one
        request.  Its result, if any, comes back through
        :meth:`reply`."""
        self.request(len(text.encode("utf-8")))

    def reply(
        self,
        rows: Iterable[tuple[Any, ...]],
        schema: Optional[Schema] = None,
    ) -> Iterable[tuple[Any, ...]]:
        """The rows answering a request already made (a command's
        result).  Local access is free: in process they pass unchanged.
        Over a wire they stream through :meth:`stream_rows`."""
        return rows if self.is_local else self.stream_rows(rows, schema)

    def deliver(
        self,
        rows: Iterable[tuple[Any, ...]],
        schema: Optional[Schema] = None,
    ) -> Iterable[tuple[Any, ...]]:
        """The rows of a rowset open.  Over a wire, the open is one
        :meth:`request`, made now, even if no row follows; the rows are
        its :meth:`reply`."""
        if not self.is_local:
            self.request()
        return self.reply(rows, schema)

    def stream_rows(
        self,
        rows: Iterable[tuple[Any, ...]],
        schema: Optional[Schema] = None,
    ) -> Iterator[tuple[Any, ...]]:
        """Stream rows through the channel, charging per message.

        Yields rows unchanged; the accounting happens as a side effect.
        Each ``DEFAULT_BATCH_ROWS`` batch is one message: the first
        travels with the request that asked for the rows (see
        :meth:`deliver`), each further one is a :meth:`request` made at
        its boundary.  A message's bytes and transfer time are charged
        once — before the next request, when the rows run out, or when
        the consumer closes the stream early (the rows it pulled, no
        more; a close never raises, so a query budget that charge
        exhausts trips when the plan's run ends, see
        :func:`~repro.execution.executor.execute_plan`).  A remainder
        charged at close goes to the ledger that pulled the first row
        only while that ledger is still the thread's: a stream that
        outlives its statement (held by a traceback, or finalized by
        the collector on another thread) charges the channel's running
        totals alone, never another statement.  Each row is still
        judged against ``timeout_ms``: a message whose cost so far,
        latency included, exceeds it raises mid-stream, charged the
        bytes it carried and the time of the rows before the one that
        broke the limit.
        """
        row_bytes = (
            schema.row_width_function() if schema is not None
            else _untyped_row_bytes
        )
        timeout_ms = None if self.is_local else self.timeout_ms
        transfer_ms, slow = self.transfer_ms, self.slow_factor
        ledger = current_ledger()
        message_bytes = message_rows = 0
        closed_early = False
        try:
            for row in rows:
                if message_rows == DEFAULT_BATCH_ROWS:
                    sent, message_bytes, message_rows = message_bytes, 0, 0
                    self._charge(
                        transfer_ms(sent) * slow, bytes_received=sent
                    )
                    self.request()
                    slow = self.slow_factor
                nbytes = row_bytes(row)
                message_bytes += nbytes
                message_rows += 1
                if timeout_ms is not None:
                    cost_ms = (
                        self.latency_ms + transfer_ms(message_bytes) * slow
                    )
                    if cost_ms > timeout_ms:
                        sent, message_bytes = message_bytes, 0
                        self._charge(
                            transfer_ms(sent - nbytes) * slow,
                            bytes_received=sent,
                        )
                        self._count("network.timeouts")
                        self._trace_event(
                            "message_timeout",
                            cost_ms=round(cost_ms, 3),
                            timeout_ms=timeout_ms,
                        )
                        raise RemoteTimeoutError(
                            f"streamed batch on channel {self.name!r} "
                            f"exceeded timeout_ms={timeout_ms:g}"
                        )
                yield row
        except GeneratorExit:
            closed_early = True
            raise
        finally:
            if message_bytes:
                ms = transfer_ms(message_bytes) * slow
                if current_ledger() is not ledger:
                    # the statement that pulled these rows has ended:
                    # its ledger, trace and budget are closed
                    self._charge_totals(ms, bytes_received=message_bytes)
                else:
                    try:
                        self._charge(ms, bytes_received=message_bytes)
                    except RemoteTimeoutError:
                        # a close must not raise (a consumer that drops
                        # the stream cannot catch it): the budget this
                        # exhausted trips when the plan's run ends
                        if not closed_early:
                            raise

    def __repr__(self) -> str:
        return (
            f"NetworkChannel({self.name}, {self.latency_ms}ms, "
            f"{self.mb_per_second}MB/s)"
        )


def _untyped_row_bytes(row: tuple[Any, ...]) -> int:
    """Wire width of a row streamed without a schema, from its values."""
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

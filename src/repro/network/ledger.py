"""The statement ledger: the one answer to "whose traffic is this?".

A :class:`~repro.network.channel.NetworkChannel` is shared by every
session of an engine, so its cumulative ``stats`` cannot say which
statement paid for a byte.  Each statement therefore owns one
:class:`StatementLedger`, bound to the thread that runs it
(:func:`bind_ledger`); every charge a channel makes lands on the
channel's running totals *and* on the bound ledger's row for that
channel.  The ledger also carries what a charge must reach besides the
counters: the statement's trace (simulated time lands on the
charging thread's innermost span) and its timeout budget (drawn down
live).

Ledgers nest.  A nested ``execute`` on the same thread (a member
running shipped SQL), the run of an EXPLAIN ANALYZE and each exchange
worker's plan branch get a *child* ledger: it inherits the parent's
trace and budget, accumulates on its own, and is folded into the parent
by :meth:`StatementLedger.close` when the nested statement or branch
ends.  A ledger is only ever written by the thread it is
bound to — a worker's child is closed by the exchange *consumer* when
it takes the branch's completion marker off the queue — so no charge
takes a ledger lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.trace import QueryTrace
    from repro.resilience.retry import QueryBudget

#: the ledger of the statement (or plan branch) running on this thread
_BOUND = threading.local()


class NetworkStats:
    """Running totals for one channel: cumulative on the channel
    itself, per statement as a ledger row.

    Besides raw traffic, the stats carry resilience outcomes — retry
    attempts, backoff time, breaker trips and breaker fast-fails — so
    ``QueryResult.network`` attributes them to the statement that paid
    for them, not just the aggregate ``network.*`` counters.
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

    def __repr__(self) -> str:
        return (
            f"NetworkStats(sent={self.bytes_sent}B, recv={self.bytes_received}B, "
            f"rt={self.round_trips}, {self.simulated_ms:.2f}ms)"
        )


class StatementLedger:
    """One statement's (or one plan branch's) account of the network."""

    __slots__ = ("trace", "budget", "parent", "stats")

    def __init__(
        self,
        trace: Optional["QueryTrace"] = None,
        budget: Optional["QueryBudget"] = None,
        parent: Optional["StatementLedger"] = None,
    ):
        # a child that brings no trace (or no budget) of its own charges
        # the enclosing statement's
        if parent is not None:
            trace = trace if trace is not None else parent.trace
            budget = budget if budget is not None else parent.budget
        self.trace = trace
        self.budget = budget
        self.parent = parent
        #: channel -> what this statement charged on it
        self.stats: Dict[Any, NetworkStats] = {}

    def on(self, channel: Any) -> NetworkStats:
        """This ledger's row for ``channel`` (created on first touch)."""
        row = self.stats.get(channel)
        if row is None:
            row = self.stats[channel] = NetworkStats()
        return row

    @property
    def simulated_ms(self) -> float:
        """Simulated network time charged so far, all channels."""
        return sum(row.simulated_ms for row in self.stats.values())

    def close(self) -> None:
        """Fold this ledger into its parent.  Call on the thread the
        parent is bound to, once nothing charges this ledger any more."""
        if self.parent is not None:
            for channel, row in self.stats.items():
                self.parent.on(channel).merge(row)


class RemoteCommandSpan:
    """A re-enterable ``remote_command`` trace span around one remote
    operation.

    The span is created on the first ``with`` — while the consuming
    operator's span is current — and re-entered by every later one (a
    lazy rowset enters it around each pull), so per-batch charges land
    on it.  Its ``round_trips`` / ``retries`` / ``backoff_ms`` /
    ``breaker_fast_fails`` attributes add up what the ledger's row for
    the channel gained *inside* the blocks: thread-exact, whoever else
    shares the channel and whatever the thread did between pulls.
    """

    __slots__ = ("trace", "row", "attrs", "span", "started", "marks", "backoff")

    def __init__(
        self, ledger: StatementLedger, channel: Any, server_name: str,
        operation: str,
    ):
        self.trace = ledger.trace
        self.row = ledger.on(channel)
        self.attrs = {"server": server_name, "operation": operation}
        self.span: Any = None
        self.backoff = 0.0

    def __enter__(self) -> "RemoteCommandSpan":
        trace, row = self.trace, self.row
        if self.span is None:
            self.span = trace.begin_span(
                "remote_command", **self.attrs, retries=0, backoff_ms=0.0,
                breaker_fast_fails=0, round_trips=0,
            )
        else:
            trace.enter_span(self.span)
        self.marks = (
            row.retries, row.backoff_ms, row.breaker_fast_fails,
            row.round_trips,
        )
        self.started = trace.clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        span, row, marks = self.span, self.row, self.marks
        span.duration_ms += self.trace.clock() - self.started
        attrs = span.attrs
        attrs["retries"] += row.retries - marks[0]
        self.backoff += row.backoff_ms - marks[1]
        attrs["backoff_ms"] = round(self.backoff, 3)
        attrs["breaker_fast_fails"] += row.breaker_fast_fails - marks[2]
        attrs["round_trips"] += row.round_trips - marks[3]
        self.trace.exit_span(span)


def current_ledger() -> Optional[StatementLedger]:
    """The ledger bound to the calling thread, if a statement is."""
    return getattr(_BOUND, "ledger", None)


def current_trace() -> Optional["QueryTrace"]:
    """The trace of the statement running on the calling thread."""
    ledger = current_ledger()
    return ledger.trace if ledger is not None else None


@contextmanager
def bind_ledger(ledger: StatementLedger) -> Iterator[StatementLedger]:
    """Bind ``ledger`` to the calling thread for the block, restoring
    whatever was bound before."""
    prior = getattr(_BOUND, "ledger", None)
    _BOUND.ledger = ledger
    try:
        yield ledger
    finally:
        _BOUND.ledger = prior

"""Per-linked-server circuit breakers and the engine health registry.

PR 2's retry machinery masks *transient* faults, but a member that is
down (or flapping hard enough to exhaust every retry budget) makes the
engine pay the full attempt + backoff cost on every statement that
touches it.  The circuit breaker turns that repeated discovery into a
remembered state: after ``failure_threshold`` consecutive final
failures (or a single definitive :class:`ServerUnavailableError`) the
breaker *opens* and further operations against the member fail fast
with :class:`~repro.errors.CircuitOpenError` — no connection attempt,
no retries, no backoff.  After ``open_interval_ms`` of simulated time
the next operation is admitted as a *half-open probe*; a successful
probe closes the breaker, a failed one re-opens it for another
interval.

Time is the :class:`SimulatedClock` — a plain counter of simulated
milliseconds the engine advances once per statement (and tests advance
directly) — so open intervals and probe admission are exactly
reproducible: no wall clock is ever consulted.

The :class:`HealthRegistry` owns one breaker per linked server and is
the single surface the rest of the engine consults: the optimizer asks
``state_of(server)`` to penalize or disqualify plans against degraded
members, the executor's replan path asks it which members to exclude,
and ``sys.dm_server_health`` renders its rows.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import CircuitOpenError

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class SimulatedClock:
    """Deterministic time source for breaker intervals (simulated ms).

    Thread-safe: parallel exchange workers share the engine's clock
    through their breakers, so advances are locked (reads of ``now_ms``
    are single attribute loads and need no lock)."""

    __slots__ = ("now_ms", "_lock")

    def __init__(self, now_ms: float = 0.0):
        self.now_ms = float(now_ms)
        self._lock = threading.Lock()

    def advance(self, ms: float) -> float:
        with self._lock:
            self.now_ms += ms
            return self.now_ms

    def __repr__(self) -> str:
        return f"SimulatedClock({self.now_ms:.1f}ms)"


class CircuitBreaker:
    """Closed/open/half-open state machine for one linked server.

    Driven entirely by :meth:`before_attempt` / :meth:`record_success`
    / :meth:`record_failure`, which ``LinkedServer.run_with_retry``
    calls around every remote operation.  Only *final* outcomes count:
    a transient fault that a retry masked is a success; retries
    exhausted or a down server is a failure.

    Thread-safe: concurrent exchange workers hitting the same member
    drive one shared breaker, so every transition runs under a
    reentrant lock — N workers discovering a down member concurrently
    produce exactly one trip.
    """

    def __init__(
        self,
        name: str,
        clock: SimulatedClock,
        failure_threshold: int = 3,
        open_interval_ms: float = 200.0,
        half_open_successes: int = 1,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.open_interval_ms = float(open_interval_ms)
        self.half_open_successes = half_open_successes
        self.state = CLOSED
        self.consecutive_failures = 0
        #: times the breaker transitioned closed/half-open -> open
        self.trip_count = 0
        #: operations rejected without touching the network
        self.fast_fails = 0
        #: half-open probe attempts admitted
        self.probe_count = 0
        self._probe_successes = 0
        self.opened_at_ms: Optional[float] = None
        self.last_failure: Optional[str] = None
        self.last_failure_at_ms: Optional[float] = None
        self._lock = threading.RLock()

    # -- state machine ------------------------------------------------------
    @property
    def next_probe_at_ms(self) -> Optional[float]:
        """When an open breaker will admit its next probe (None unless
        open)."""
        if self.state != OPEN or self.opened_at_ms is None:
            return None
        return self.opened_at_ms + self.open_interval_ms

    def before_attempt(self, channel: Any = None, description: str = "") -> None:
        """Gate one remote operation.

        Open + interval not elapsed: raise :class:`CircuitOpenError`
        without any network charge (the whole point).  Open + interval
        elapsed: transition to half-open and admit the operation as a
        probe.  Closed/half-open: admit.
        """
        with self._lock:
            if self.state != OPEN:
                return
            if self.clock.now_ms >= (self.next_probe_at_ms or 0.0):
                self.state = HALF_OPEN
                self._probe_successes = 0
                self.probe_count += 1
                self._emit(channel, "breaker_half_open", "health.probes",
                           operation=description)
                return
            self.fast_fails += 1
            if channel is not None:
                channel.tally("breaker_fast_fails")
            self._emit(channel, "breaker_fast_fail", "health.fast_fails",
                       operation=description)
        error = CircuitOpenError(
            f"circuit for linked server {self.name!r} is open "
            f"(last failure: {self.last_failure}); next probe at "
            f"{self.next_probe_at_ms:.1f}ms simulated"
        )
        error.server_name = self.name
        raise error

    def record_success(self, channel: Any = None) -> None:
        """One remote operation completed (possibly after retries)."""
        with self._lock:
            self.consecutive_failures = 0
            if self.state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self.state = CLOSED
                    self.opened_at_ms = None
                    self._emit(
                        channel, "breaker_close", "health.breaker_closes"
                    )
            elif self.state == OPEN:
                # a success while nominally open (e.g. another path
                # raced the probe) is evidence enough to close
                self.state = CLOSED
                self.opened_at_ms = None
                self._emit(channel, "breaker_close", "health.breaker_closes")

    def record_failure(
        self, error: Exception, channel: Any = None, definitive: bool = False
    ) -> None:
        """One remote operation failed for good (retries exhausted or a
        non-retryable error).  ``definitive`` (server-down) trips the
        breaker immediately; other failures count toward the threshold.
        """
        with self._lock:
            self.consecutive_failures += 1
            self.last_failure = f"{type(error).__name__}: {error}"
            self.last_failure_at_ms = self.clock.now_ms
            if self.state == HALF_OPEN:
                self._trip(channel, reason="probe_failed")
                return
            if self.state == CLOSED and (
                definitive
                or self.consecutive_failures >= self.failure_threshold
            ):
                self._trip(
                    channel, reason="down" if definitive else "threshold"
                )

    def force_open(self, reason: str = "forced", channel: Any = None) -> None:
        """Trip the breaker directly (tests, golden plans, operators)."""
        with self._lock:
            self.last_failure = reason
            self.last_failure_at_ms = self.clock.now_ms
            self._trip(channel, reason=reason)

    def _trip(self, channel: Any, reason: str) -> None:
        # always called with _lock held
        self.state = OPEN
        self.opened_at_ms = self.clock.now_ms
        self.trip_count += 1
        if channel is not None:
            channel.tally("breaker_trips")
        self._emit(
            channel, "breaker_open", "health.breaker_trips",
            reason=reason, failures=self.consecutive_failures,
        )

    # -- plumbing -------------------------------------------------------------
    def _emit(self, channel: Any, event: str, counter: str, **attrs: Any) -> None:
        """Route one breaker transition through the channel's metric and
        trace hooks (they land in the owning engine's registry and the
        current statement's trace)."""
        if channel is None:
            return
        channel._count(counter)
        channel._trace_event(event, server=self.name, state=self.state, **attrs)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name}, {self.state}, "
            f"failures={self.consecutive_failures}, trips={self.trip_count})"
        )


class HealthRegistry:
    """All breakers of one engine, sharing one simulated clock.

    The engine advances the clock by :attr:`STATEMENT_TICK_MS` per
    statement, so an open breaker's probe interval elapses after a
    deterministic number of statements even when the fast-fail path
    never charges network time.
    """

    #: simulated ms added per executed statement
    STATEMENT_TICK_MS = 50.0

    def __init__(
        self,
        owner: str = "engine",
        clock: Optional[SimulatedClock] = None,
        failure_threshold: int = 3,
        open_interval_ms: float = 200.0,
        half_open_successes: int = 1,
    ):
        self.owner = owner
        self.clock = clock or SimulatedClock()
        self.failure_threshold = failure_threshold
        self.open_interval_ms = open_interval_ms
        self.half_open_successes = half_open_successes
        self._breakers: dict[str, CircuitBreaker] = {}
        #: guards breaker creation — workers may first-touch a member
        #: concurrently and must agree on one breaker instance
        self._lock = threading.Lock()

    def breaker(self, server_name: str) -> CircuitBreaker:
        """The breaker for one linked server (created on first use)."""
        key = server_name.lower()
        breaker = self._breakers.get(key)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.get(key)
                if breaker is None:
                    breaker = CircuitBreaker(
                        server_name,
                        self.clock,
                        failure_threshold=self.failure_threshold,
                        open_interval_ms=self.open_interval_ms,
                        half_open_successes=self.half_open_successes,
                    )
                    self._breakers[key] = breaker
        return breaker

    def get(self, server_name: str) -> Optional[CircuitBreaker]:
        """The breaker if one exists; never creates (pure reads for the
        optimizer and DMVs)."""
        return self._breakers.get(server_name.lower())

    def state_of(self, server_name: str) -> str:
        breaker = self.get(server_name)
        return breaker.state if breaker is not None else CLOSED

    def is_open(self, server_name: str) -> bool:
        return self.state_of(server_name) == OPEN

    def should_route_around(self, server_name: str) -> bool:
        """True when a plan should avoid this server entirely.

        Open *and* the probe window has not arrived.  Once the open
        interval elapses, the server must be planned *into* the query
        so the half-open probe actually runs — partial-results pruning
        that kept routing around an open breaker would otherwise never
        touch the member again and a recovered server could never be
        folded back in.  If the admitted probe fails, the statement's
        bounded replan degrades it exactly like any other mid-query
        death.
        """
        breaker = self.get(server_name)
        if breaker is None or breaker.state != OPEN:
            return False
        return self.clock.now_ms < (breaker.next_probe_at_ms or 0.0)

    def open_servers(self) -> list[str]:
        return [b.name for b in self.breakers() if b.state == OPEN]

    def tick(self, ms: Optional[float] = None) -> None:
        """Advance simulated time (once per statement by the engine)."""
        self.clock.advance(self.STATEMENT_TICK_MS if ms is None else ms)

    def breakers(self) -> list[CircuitBreaker]:
        """A snapshot taken under the lock: another session may insert
        a breaker (first touch of a member) while the caller iterates."""
        with self._lock:
            return list(self._breakers.values())

    def reset(self) -> None:
        self._breakers.clear()

    def __repr__(self) -> str:
        return (
            f"HealthRegistry({self.owner}, {len(self._breakers)} breakers, "
            f"open={self.open_servers()})"
        )

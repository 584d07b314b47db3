"""Retry policies and per-query timeout budgets.

:func:`call_with_retry` is the one retry loop in the system: linked
servers route every remote operation (command dispatch, rowset
streaming, metadata refresh) through it.  Only
:class:`~repro.errors.TransientNetworkError` — and, when the policy
says so, :class:`~repro.errors.RemoteTimeoutError` — is retried;
:class:`~repro.errors.ServerUnavailableError` always propagates, since
retrying an unreachable server inside one statement cannot help.

Backoff is *simulated*: each retry charges
``backoff_ms(attempt)`` to the channel's ``simulated_ms`` (and to the
statement's :class:`QueryBudget` when one is attached), so experiments
see retries as added latency, not wall-clock sleeps.  Jitter is
deterministic — a hash of (channel name, operation, attempt) — keeping
whole benchmark sweeps replayable while desynchronizing concurrent
retries against the same member.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import RemoteTimeoutError, TransientNetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import NetworkChannel


class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: the default of 4 means one
    initial attempt plus up to three retries.  Backoff for retry *n*
    (1-based) is ``base_backoff_ms * multiplier**(n-1)``, capped at
    ``max_backoff_ms``, plus/minus up to ``jitter`` (a fraction of the
    backoff) derived from a stable hash.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_backoff_ms: float = 4.0,
        multiplier: float = 2.0,
        max_backoff_ms: float = 100.0,
        jitter: float = 0.25,
        retry_timeouts: bool = True,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_backoff_ms = base_backoff_ms
        self.multiplier = multiplier
        self.max_backoff_ms = max_backoff_ms
        self.jitter = jitter
        self.retry_timeouts = retry_timeouts

    def is_retryable(self, error: Exception) -> bool:
        if isinstance(error, TransientNetworkError):
            return True
        if isinstance(error, RemoteTimeoutError):
            return self.retry_timeouts and not getattr(
                error, "budget_exhausted", False
            )
        return False

    def backoff_ms(self, attempt: int, jitter_key: str = "") -> float:
        """Simulated backoff before retry ``attempt`` (1-based)."""
        base = min(
            self.base_backoff_ms * (self.multiplier ** (attempt - 1)),
            self.max_backoff_ms,
        )
        if self.jitter <= 0.0:
            return base
        # stable in [-jitter, +jitter): same key + attempt -> same wait
        digest = zlib.crc32(f"{jitter_key}#{attempt}".encode("utf-8"))
        unit = digest / 0xFFFFFFFF  # [0, 1]
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.max_attempts}, "
            f"base={self.base_backoff_ms}ms x{self.multiplier}, "
            f"cap={self.max_backoff_ms}ms)"
        )


#: a policy that never retries (for ablations and strict tests)
NO_RETRY = RetryPolicy(max_attempts=1)


class QueryBudget:
    """Per-statement simulated-time budget (the query timeout).

    The budget rides the statement's ledger
    (:mod:`repro.network.ledger`), which ``engine.execute`` binds to the
    running thread: each channel charge (latency, transfer, retry
    backoff) made while it is bound draws the budget down, live.  Child
    ledgers (nested statements, exchange branches) share the parent's
    budget object, so one statement has one draw-down.  Exhaustion raises
    :class:`~repro.errors.RemoteTimeoutError` with
    ``budget_exhausted=True``, which retry loops treat as final.  A
    streamed message draws the budget down once, when it ends
    (:meth:`~repro.network.channel.NetworkChannel.stream_rows`).

    Thread-safe: parallel exchange workers draw down one shared budget,
    so accumulation is locked (the raise happens outside the lock).
    """

    __slots__ = ("limit_ms", "spent_ms", "_lock")

    def __init__(self, limit_ms: float):
        self.limit_ms = float(limit_ms)
        self.spent_ms = 0.0
        self._lock = threading.Lock()

    @property
    def remaining_ms(self) -> float:
        return max(0.0, self.limit_ms - self.spent_ms)

    def charge(self, ms: float) -> None:
        with self._lock:
            self.spent_ms += ms
        self.check()

    def check(self) -> None:
        """Raise if the budget is spent.  :meth:`charge` checks after
        every draw-down; a plan's run checks once more when it returns
        its rows, for a draw-down made where nothing could raise (a
        stream closed early)."""
        if self.spent_ms > self.limit_ms:
            error = RemoteTimeoutError(
                f"query timeout budget of {self.limit_ms:g}ms exhausted "
                f"({self.spent_ms:.2f}ms of simulated network time)"
            )
            error.budget_exhausted = True
            raise error

    def __repr__(self) -> str:
        return f"QueryBudget({self.spent_ms:.2f}/{self.limit_ms:g}ms)"


def call_with_retry(
    policy: RetryPolicy,
    channel: Optional["NetworkChannel"],
    fn: Callable[[], Any],
    description: str = "",
) -> Any:
    """Run ``fn`` under ``policy``, charging backoff to ``channel``.

    Retries only errors the policy declares retryable; the final
    failure (retries exhausted or non-retryable) propagates unchanged.
    Metrics and trace events route through the channel so they land in
    the owning engine's registry and the current statement's trace.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as error:  # noqa: BLE001 - filtered below
            attempt += 1
            if not policy.is_retryable(error) or attempt >= policy.max_attempts:
                if channel is not None and policy.is_retryable(error):
                    channel.note_retries_exhausted(description, attempt)
                raise
            # distinct jitter key per (server, operation): keying on the
            # channel name alone made every concurrent retry against one
            # member back off in lockstep, re-colliding on each attempt
            key = (
                f"{channel.name}/{description}"
                if channel is not None
                else description
            )
            backoff = policy.backoff_ms(attempt, jitter_key=key)
            if channel is not None:
                channel.charge_backoff(backoff, attempt, description, error)

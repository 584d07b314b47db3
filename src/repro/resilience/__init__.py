"""Connection resiliency: fault injection, retry/backoff, timeouts.

The paper's federation story (Section 4.1.5) assumes partial failure is
survivable: delayed schema validation exists so a query over a
distributed partitioned view still compiles and runs when servers
hosting *untouched* partitions are down.  This package supplies the
machinery that makes such failures expressible and survivable in the
simulation:

* :class:`FaultInjector` — deterministic, seedable faults on any
  :class:`~repro.network.channel.NetworkChannel` (transient errors,
  per-message timeouts, server-down, slow-link degradation);
* :class:`RetryPolicy` / :func:`call_with_retry` — exponential backoff
  with deterministic jitter, charged as simulated milliseconds;
* :class:`QueryBudget` — per-statement timeout budgets.

The failure taxonomy and its exact semantics live in
``docs/FAULT_MODEL.md``.
"""

from repro.resilience.degrade import PartialResultsInfo, SkippedPartition
from repro.resilience.faults import (
    DOWN,
    FaultInjector,
    OK,
    TIMEOUT,
    TRANSIENT,
    TWO_PC_CRASH_POINTS,
    TWO_PC_DELIVERY_FAULTS,
    TwoPCFaultPlan,
)
from repro.resilience.health import (
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    HealthRegistry,
    OPEN,
    SimulatedClock,
)
from repro.resilience.retry import (
    NO_RETRY,
    QueryBudget,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "FaultInjector",
    "RetryPolicy",
    "QueryBudget",
    "call_with_retry",
    "NO_RETRY",
    "OK",
    "TRANSIENT",
    "TIMEOUT",
    "DOWN",
    "TwoPCFaultPlan",
    "TWO_PC_CRASH_POINTS",
    "TWO_PC_DELIVERY_FAULTS",
    "CircuitBreaker",
    "HealthRegistry",
    "SimulatedClock",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "PartialResultsInfo",
    "SkippedPartition",
]

"""Simulated network substrate.

The paper ran against real remote servers; we substitute an in-process
channel that *accounts* for every byte and round trip crossing a
server boundary.  Experiments (notably E5/Figure 4 and E10) validate
plan choices by the bytes the channel records, which is exactly the
quantity the paper's remote cost model minimizes ("It aims at finding
plans with minimal network traffic", Section 4.1.3).

Attribution contract: one :class:`NetworkChannel` per linked server is
shared by every session and every exchange worker, so its ``stats`` are
cumulative and mutated under the channel's lock.  "Whose traffic is
this?" has one answer — the :class:`StatementLedger` bound to the
charging thread (:func:`bind_ledger`, done by ``engine.execute``).
Every charge lands on both.  A nested statement or an exchange
worker's branch charges a *child* ledger that is folded into its
parent when it ends, which is also how a branch's simulated time (and
so the exchange's ``saved_ms``) is known.  The channel itself never
sleeps, blocks, or spawns threads.
"""

from repro.network.channel import NetworkChannel, local_channel
from repro.network.ledger import (
    NetworkStats,
    StatementLedger,
    bind_ledger,
    current_ledger,
)

__all__ = [
    "NetworkChannel",
    "NetworkStats",
    "StatementLedger",
    "bind_ledger",
    "current_ledger",
    "local_channel",
]

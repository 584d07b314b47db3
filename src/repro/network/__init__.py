"""Simulated network substrate.

The paper ran against real remote servers; we substitute an in-process
channel that *accounts* for every byte and round trip crossing a
server boundary.  Experiments (notably E5/Figure 4 and E10) validate
plan choices by the bytes the channel records, which is exactly the
quantity the paper's remote cost model minimizes ("It aims at finding
plans with minimal network traffic", Section 4.1.3).

Concurrency contract: one :class:`NetworkChannel` per linked server is
shared by every thread of a statement — parallel exchange workers
included — so all counter mutation in ``NetworkStats`` happens under
the channel's internal lock.  Simulated time charges additionally
accumulate into a per-thread worker account
(:func:`~repro.network.channel.attach_worker_charges`) so the exchange
scheduler can compute how much per-branch network time overlapped; the
channel itself never sleeps, blocks, or spawns threads.
"""

from repro.network.channel import NetworkChannel, NetworkStats, local_channel

__all__ = ["NetworkChannel", "NetworkStats", "local_channel"]

"""Exchange operators: the parallel side of the Volcano model.

``run_gather`` and ``run_gather_merge`` execute the
:class:`~repro.core.physical.Gather` / ``GatherMerge`` plan nodes the
optimizer inserts above independent remote / partitioned-view branches
when ``SET PARALLEL_DOP n`` (n > 1) is in effect:

* **Gather** — branches run concurrently on a
  :class:`~repro.execution.scheduler.GatherScheduler` worker pool and
  rows are yielded in arrival order (any interleaving; a plain UNION
  ALL has no order contract).
* **GatherMerge** — each branch is produced already sorted on the
  exchange keys; a k-way heap merge over per-branch streams yields the
  globally sorted output without a full blocking sort, comparing with
  :class:`~repro.types.intervals.SortKey` — the SQL order
  ``PhysicalSort`` sorts in.  It streams, so unlike ``PhysicalSort`` it
  never holds a column's values to choose a native key from.

Both operators pipeline: rows flow to the consumer as soon as the
first page of any branch arrives, and abandoning the iterator (TOP,
EXISTS) shuts the worker pool down via ``GeneratorExit``.  Errors in
any branch cancel the others and re-raise on the consumer thread, so
the engine's replan-on-unavailable and partial-results machinery work
unchanged.

Concurrency contract: the generators returned here must be consumed
from the thread that opened them (span mirroring and overlap
accounting happen consumer-side); everything the worker threads touch
is covered by the locks documented in
:mod:`repro.execution.scheduler`.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Sequence, Tuple

from repro.execution.scheduler import (
    BranchStream,
    BranchTask,
    GatherMergeScheduler,
    GatherScheduler,
)
from repro.types.intervals import SortKey


def _effective_dop(plan, ctx) -> int:
    """The degree an exchange actually runs at: the session's current
    PARALLEL_DOP when known (so a shared cached plan adapts to each
    session), else the degree the plan was compiled with — then
    clamped to the workload group's MAX_DOP when the resource governor
    set one."""
    requested = getattr(ctx, "requested_dop", None)
    if requested is not None and requested > 1:
        dop = requested
    else:
        dop = plan.dop
    cap = getattr(ctx, "max_dop", None)
    if cap:
        dop = max(1, min(dop, cap))
    return dop


def run_gather(plan, ctx) -> Iterator[tuple]:
    """Execute a Gather: concurrent branches, arrival-order output."""
    scheduler = GatherScheduler(
        ctx, _effective_dop(plan, ctx), _branch_tasks(plan, ctx)
    )
    scheduler.start()
    try:
        for page in scheduler.pages():
            yield from page
    finally:
        scheduler.shutdown()


def run_gather_merge(plan, ctx) -> Iterator[tuple]:
    """Execute a GatherMerge: concurrent sorted branches, k-way heap
    merge preserving the exchange keys' global order."""
    output_ids = list(plan.output_ids())
    key_ordinals = [
        (output_ids.index(key.cid), key.ascending) for key in plan.keys
    ]
    scheduler = GatherMergeScheduler(
        ctx, _effective_dop(plan, ctx), _branch_tasks(plan, ctx)
    )
    scheduler.start()
    try:
        yield from _merge(scheduler, scheduler.streams(), key_ordinals)
    finally:
        scheduler.shutdown()


# -- branch plumbing -------------------------------------------------------

def _branch_tasks(plan, ctx) -> List[BranchTask]:
    """One :class:`BranchTask` per child, each mapping its child's
    layout onto the exchange's output layout (same ordinal mapping as
    the serial Concat)."""
    output_ids = plan.output_ids()
    tasks = []
    for index, (child, branch_map) in enumerate(
        zip(plan.children, plan.branch_maps)
    ):
        child_layout = {
            cid: pos for pos, cid in enumerate(child.output_ids())
        }
        ordinals = [child_layout[branch_map[cid]] for cid in output_ids]
        tasks.append(
            BranchTask(index, _mapped_opener(child, ordinals, ctx), child.cost)
        )
    return tasks


def _mapped_opener(child, ordinals, ctx):
    def open_rows() -> Iterator[tuple]:
        # deferred import: executor dispatches into this module
        from repro.execution.executor import open_plan

        return (
            tuple(row[o] for o in ordinals) for row in open_plan(child, ctx)
        )

    return open_rows


# -- the merge -------------------------------------------------------------

class _Descending:
    """Inverts comparisons so a descending key can ride the min-heap."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def _sort_key(row, key_ordinals: Sequence[Tuple[int, bool]]):
    return tuple(
        SortKey(row[ordinal])
        if ascending
        else _Descending(SortKey(row[ordinal]))
        for ordinal, ascending in key_ordinals
    )


def _merge(
    scheduler: GatherMergeScheduler,
    streams: List[BranchStream],
    key_ordinals: Sequence[Tuple[int, bool]],
) -> Iterator[tuple]:
    # heap entries are (key, branch_index, row); at most one entry per
    # branch is in flight, so equal keys tie-break on the branch index
    # and rows themselves are never compared
    heap: list = []
    for stream in streams:
        _advance(heap, scheduler, streams, stream, key_ordinals)
    while heap:
        __key, index, row = heapq.heappop(heap)
        yield row
        _advance(heap, scheduler, streams, streams[index], key_ordinals)
    scheduler.finish([stream.net_ms for stream in streams])


def _advance(heap, scheduler, streams, stream, key_ordinals) -> None:
    row = stream.next_row()
    if stream.error is not None:
        _abort(scheduler, streams, stream)
    if row is not None:
        heapq.heappush(
            heap, (_sort_key(row, key_ordinals), stream.task.index, row)
        )


def _abort(scheduler, streams, failed: BranchStream):
    """First branch error: cancel the others, drain every branch to
    its completion marker so overlap accounting stays exact, then
    re-raise on the consumer thread."""
    scheduler.cancel.set()
    for stream in streams:
        while stream.next_row() is not None:
            pass
    scheduler.finish([stream.net_ms for stream in streams])
    raise failed.error

"""Worker-pool scheduler for the parallel exchange operators.

Implements the producer side of :mod:`repro.execution.exchange`: a
bounded pool of worker threads runs independent plan branches (remote
subqueries, partitioned-view member scans) concurrently and pushes
*pages* of already-mapped output rows through bounded queues to the
consumer.  Because the simulated network charges latency as counters
rather than wall-clock sleeps, overlap is accounted explicitly: every
branch charges its own child of the statement's ledger
(:mod:`repro.network.ledger`), so each branch's simulated milliseconds
are measured exactly, and on completion the scheduler credits the
consumer with ``saved_ms`` — the difference between the sum of branch
times and the critical path of the slot assignment actually used.

Concurrency contract
--------------------
* Worker threads touch only thread-safe engine state: channels,
  breakers, retry/budget accounting, the per-thread trace span stack,
  and the locked spool cache.  Each plan branch is opened and iterated
  by exactly one worker thread.
* The consumer (``pages()`` / ``BranchStream``) must stay on the
  thread that opened the exchange; it folds each finished branch's
  ledger into the statement's.  A branch's network time reaches the
  consumer's spans through the trace's rollup along the branch span's
  parentage, so the execute-span invariant (net_ms == statement
  simulated_ms) holds without the consumer touching the trace.
* Cancellation is cooperative: the shared :class:`threading.Event` is
  checked at page boundaries, and blocked puts poll it, so the first
  branch error (or an abandoning consumer) stops every worker without
  deadlocking against bounded-queue backpressure.
"""

from __future__ import annotations

import itertools
import queue
import threading
from contextlib import closing
from typing import Callable, Iterator, List, Optional, Sequence

from repro.network.ledger import StatementLedger, bind_ledger, current_ledger

#: rows per page pushed through an exchange queue
PAGE_ROWS = 64
#: pages of queue headroom (per consumer for Gather, per branch for
#: GatherMerge) before producers block — the prefetch depth
QUEUE_PAGES = 4
#: seconds between cancellation checks while blocked on a queue
POLL_S = 0.05


def assign_slots(costs: Sequence[float], dop: int) -> List[int]:
    """Longest-processing-time assignment of branches onto ``dop``
    worker slots: branches sorted by descending estimated cost, each
    placed on the least-loaded slot.  Returns the slot index per
    branch (same order as ``costs``)."""
    slots = max(1, min(int(dop), len(costs)))
    loads = [0.0] * slots
    assignment = [0] * len(costs)
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        slot = min(range(slots), key=loads.__getitem__)
        assignment[index] = slot
        loads[slot] += costs[index]
    return assignment


class BranchTask:
    """One exchange input branch: a thunk that opens the branch's
    mapped row generator (called on the worker thread), its estimated
    cost for slot assignment, and the slot it landed on."""

    __slots__ = ("index", "open_rows", "est_cost", "slot")

    def __init__(
        self,
        index: int,
        open_rows: Callable[[], Iterator[tuple]],
        est_cost: float,
    ):
        self.index = index
        self.open_rows = open_rows
        self.est_cost = est_cost
        self.slot = 0


class ExchangeScheduler:
    """Shared machinery for :class:`GatherScheduler` and
    :class:`GatherMergeScheduler`: thread lifecycle, cancellation,
    queue draining, span parentage and overlap accounting."""

    def __init__(self, ctx, dop: int, tasks: Sequence[BranchTask], label: str):
        self.ctx = ctx
        self.dop = int(dop)
        # defensive second clamp: callers normally pass a pre-clamped
        # degree, but the governor's MAX_DOP must hold regardless
        cap = getattr(ctx, "max_dop", None)
        if cap:
            self.dop = max(1, min(self.dop, int(cap)))
        registry = getattr(ctx, "scheduler_registry", None)
        if registry is not None:
            registry.add(self)
        self.tasks = list(tasks)
        self.label = label
        self.cancel = threading.Event()
        self.threads: List[threading.Thread] = []
        self._queues: List[queue.Queue] = []
        for task, slot in zip(
            self.tasks,
            assign_slots([t.est_cost for t in self.tasks], self.dop),
        ):
            task.slot = slot
        trace = ctx.trace
        #: the consumer-side span every branch span parents to, so the
        #: trace tree keeps its shape even though branches run on
        #: other threads (whose span stacks start empty)
        self.parent_span_id = (
            trace.current_span_id if trace is not None else None
        )
        #: the spawning statement's ledger: every branch charges a
        #: child of it, bound to the worker thread while the branch runs
        self._ledger = current_ledger()

    # -- producer side ----------------------------------------------------
    def _worker(self, tasks: Sequence[BranchTask], out_queue: queue.Queue,
                permits: Optional[threading.Semaphore] = None) -> None:
        """Worker-thread entry: run assigned branches sequentially.
        Every branch emits exactly one completion marker, even when it
        is skipped because cancellation happened first."""
        for task in tasks:
            if self.cancel.is_set():
                self._put(
                    out_queue,
                    ("done", task.index, (StatementLedger(), None)),
                    always=True,
                )
                continue
            self._produce_branch(task, out_queue, permits)

    def _produce_branch(self, task: BranchTask, out_queue: queue.Queue,
                        permits: Optional[threading.Semaphore]) -> None:
        trace = self.ctx.trace
        ledger = StatementLedger(parent=self._ledger)
        span = None
        if trace is not None:
            span = trace.begin_span(
                "parallel_branch",
                parent_span_id=self.parent_span_id,
                exchange=self.label,
                parallelism=self.dop,
                worker=task.slot,
                branch=task.index,
            )
        failure = None
        try:
            # the branch's streams close while its ledger is bound, so
            # a cancelled branch charges the rows it carried to it
            with bind_ledger(ledger), closing(task.open_rows()) as rows:
                while not self.cancel.is_set():
                    if permits is not None:
                        permits.acquire()
                    try:
                        page = list(itertools.islice(rows, PAGE_ROWS))
                    finally:
                        if permits is not None:
                            permits.release()
                    if not page:
                        break
                    if not self._put(out_queue, ("page", task.index, page)):
                        break
        except BaseException as error:  # relayed to the consumer thread
            failure = error
            self.cancel.set()
        finally:
            if span is not None:
                trace.exit_span(span)
        self._put(
            out_queue, ("done", task.index, (ledger, failure)), always=True
        )

    def _put(self, out_queue: queue.Queue, item, always: bool = False) -> bool:
        """Blocking put that stays responsive to cancellation.

        Completion markers (``always=True``) are delivered even after
        cancellation: the consumer keeps draining until every branch
        has reported (and ``shutdown`` drains while joining), so queue
        space is guaranteed to appear."""
        while True:
            try:
                out_queue.put(item, timeout=POLL_S)
                return True
            except queue.Full:
                if not always and self.cancel.is_set():
                    return False

    # -- consumer side ----------------------------------------------------
    def _settle(self, ledger: StatementLedger) -> float:
        """Take a finished branch's ledger on the *consumer* thread:
        fold it into the statement's ledger.  Returns the branch's
        simulated ms."""
        ledger.close()
        return ledger.simulated_ms

    def finish(self, branch_ms: Sequence[float]) -> None:
        """Record overlap accounting once every branch has reported:
        ``saved_ms`` = sum of branch simulated ms minus the critical
        path (busiest slot) of the assignment the workers actually
        ran with."""
        loads: dict = {}
        for task, ms in zip(self.tasks, branch_ms):
            loads[task.slot] = loads.get(task.slot, 0.0) + ms
        elapsed = max(loads.values()) if loads else 0.0
        saved = max(0.0, sum(branch_ms) - elapsed)
        self.ctx.record_gather(
            dop=self.dop,
            branches=len(self.tasks),
            saved_ms=saved,
            busiest_ms=elapsed,
        )

    def shutdown(self) -> None:
        """Cancel, unblock and join every worker.  Safe to call after
        normal completion (threads are already dead) and from a
        ``finally`` when the consumer abandons the exchange early
        (e.g. TOP): draining while joining guarantees no producer
        stays blocked on a full queue."""
        self.cancel.set()
        for thread in self.threads:
            while thread.is_alive():
                thread.join(timeout=POLL_S)
                self._drain()
        self._drain()

    def _drain(self) -> None:
        """Discard undelivered pages; a completion marker's ledger is
        still settled, so an abandoned exchange loses no traffic."""
        for q in self._queues:
            while True:
                try:
                    kind, __, payload = q.get_nowait()
                except queue.Empty:
                    break
                if kind == "done":
                    self._settle(payload[0])


class GatherScheduler(ExchangeScheduler):
    """``min(dop, branches)`` slot workers share one bounded queue;
    each worker runs its LPT-assigned branches sequentially,
    prefetching pages ahead of the consumer."""

    def __init__(self, ctx, dop: int, tasks: Sequence[BranchTask]):
        super().__init__(ctx, dop, tasks, "Gather")
        workers = max(1, min(self.dop, len(self.tasks)))
        self.queue: queue.Queue = queue.Queue(maxsize=workers * QUEUE_PAGES)
        self._queues = [self.queue]

    def start(self) -> None:
        by_slot: dict = {}
        for task in self.tasks:
            by_slot.setdefault(task.slot, []).append(task)
        for slot, tasks in sorted(by_slot.items()):
            thread = threading.Thread(
                target=self._worker,
                args=(tasks, self.queue),
                name=f"gather-w{slot}",
                daemon=True,
            )
            self.threads.append(thread)
            thread.start()

    def pages(self) -> Iterator[list]:
        """Yield row pages in arrival order.  On the first branch
        error: cancel, keep draining until every branch has reported
        (accounting stays exact), then re-raise on this thread."""
        pending = len(self.tasks)
        branch_ms = [0.0] * len(self.tasks)
        first_error = None
        while pending:
            try:
                kind, index, payload = self.queue.get(timeout=POLL_S)
            except queue.Empty:
                continue
            if kind == "page":
                if first_error is None:
                    yield payload
                continue
            pending -= 1
            ledger, error = payload
            branch_ms[index] = self._settle(ledger)
            if error is not None:
                if first_error is None:
                    first_error = error
                self.cancel.set()
        self.finish(branch_ms)
        if first_error is not None:
            raise first_error


class GatherMergeScheduler(ExchangeScheduler):
    """One producer thread per branch, gated by a ``dop``-permit
    semaphore around each page production, with a small bounded queue
    per branch.

    The merge consumer must be able to pull the next row of *any*
    branch at any moment; slot-sequential workers would deadlock (the
    consumer blocks on a branch whose worker has not started it, while
    that worker blocks on the full queue of a branch the consumer is
    not reading).  Per-branch threads keep every stream live, and the
    semaphore still caps concurrent page production at ``dop``."""

    def __init__(self, ctx, dop: int, tasks: Sequence[BranchTask]):
        super().__init__(ctx, dop, tasks, "GatherMerge")
        permits = max(1, min(self.dop, len(self.tasks)))
        self.permits = threading.BoundedSemaphore(permits)
        self.branch_queues = [
            queue.Queue(maxsize=QUEUE_PAGES) for __ in self.tasks
        ]
        self._queues = list(self.branch_queues)

    def start(self) -> None:
        for task, branch_queue in zip(self.tasks, self.branch_queues):
            thread = threading.Thread(
                target=self._worker,
                args=([task], branch_queue, self.permits),
                name=f"gather-merge-b{task.index}",
                daemon=True,
            )
            self.threads.append(thread)
            thread.start()

    def streams(self) -> List["BranchStream"]:
        return [
            BranchStream(self, task, branch_queue)
            for task, branch_queue in zip(self.tasks, self.branch_queues)
        ]


class BranchStream:
    """Consumer-side cursor over one GatherMerge branch's page queue.
    Must only be used from the consumer thread."""

    __slots__ = (
        "scheduler", "task", "queue", "page", "pos", "done", "net_ms",
        "error",
    )

    def __init__(self, scheduler: GatherMergeScheduler, task: BranchTask,
                 branch_queue: queue.Queue):
        self.scheduler = scheduler
        self.task = task
        self.queue = branch_queue
        self.page: Optional[list] = None
        self.pos = 0
        self.done = False
        self.net_ms = 0.0
        self.error: Optional[BaseException] = None

    def next_row(self):
        """The branch's next row, or ``None`` once its completion
        marker has been processed (check ``error`` afterwards)."""
        while True:
            if self.page is not None and self.pos < len(self.page):
                row = self.page[self.pos]
                self.pos += 1
                return row
            if self.done:
                return None
            try:
                kind, __index, payload = self.queue.get(timeout=POLL_S)
            except queue.Empty:
                continue
            if kind == "page":
                self.page = payload
                self.pos = 0
            else:
                ledger, self.error = payload
                self.net_ms = self.scheduler._settle(ledger)
                self.done = True

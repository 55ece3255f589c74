"""The daemon's multi-tenant fleet scheduler: many jobs, one fleet.

PR 5's daemon ran every request through a single-thread executor and
the fleet's FIFO :meth:`~repro.parallel.pool.WorkerPool.run` — one
corpus-sized ``batch`` starved every small ``query`` behind it.  The
:class:`FleetScheduler` replaces that with shard-level interleaving: a
dedicated scheduler thread exclusively owns the
:class:`~repro.service.fleet.PersistentFleet` and multiplexes shards
from *all* admitted jobs across it.

Scheduling discipline — weighted fair queueing over virtual time:

* every job carries a virtual time; dispatching one of its shards
  advances it by ``shard.cost / 2**priority``, so a job's share of the
  fleet is proportional to its priority weight;
* a newly admitted job joins at the scheduler's virtual clock (the
  last dispatch's start tag), so it competes immediately instead of
  queueing behind the backlog of earlier jobs — the fairness property
  the bench gate measures (small-query p50 during a big batch stays
  within a small multiple of idle latency);
* among jobs with pending shards, the lowest virtual time wins;
  admission order breaks ties.

Tenant isolation — the part that makes this safe to share:

* shards are re-tagged with globally unique ids at admission, so every
  worker message is attributable to exactly one job; late ``done`` /
  ``error`` messages from a cancelled or failed job are recognised and
  dropped instead of corrupting another tenant's bookkeeping (the old
  design's answer was to hard-replace the whole fleet, killing every
  tenant's warm caches);
* retry and crash budgets are *per job*: a tenant whose spanner
  deterministically crashes its workers fails alone, with its own
  :class:`~repro.parallel.pool.ParallelExecutionError`, while the
  scheduler respawns the crashed workers and every other job keeps
  running;
* admission is bounded (``max_pending_jobs`` fleet-wide,
  ``max_jobs_per_client`` per connection): past the bound, submission
  raises :class:`~repro.service.protocol.ServiceBusyError` — a
  structured back-off signal — instead of queueing unbounded latency;
* jobs are cancellable mid-flight (wire ``cancel`` op by tag, or
  client disconnect): pending shards are dropped immediately, the
  waiter is released with
  :class:`~repro.service.protocol.JobCancelledError`, and any in-flight
  shard finishes as a no-op on arrival.

Threading contract: the scheduler thread is the *only* thread that
touches the fleet after :meth:`start` (spawn, reap, dispatch, pipe
reads) — the same one-driver rule :meth:`WorkerPool.run` relies on.
Job bookkeeping is shared with submitter threads and is guarded by one
lock; :meth:`snapshot` serves the daemon's ``ping`` from a
lock-protected copy instead of letting the event loop read fleet
internals mid-mutation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing import connection
from typing import Any, Deque, Dict, List, Optional, Sequence

from concurrent.futures import Future

from repro.engine.spec import SpannerSpec, TaskSpec
from repro.faults import fault_point
from repro.obs.metrics import get_registry, merge_snapshots
from repro.obs.trace import get_tracer
from repro.parallel.pool import ParallelExecutionError, _debug
from repro.parallel.sharding import Shard, ShardPlan

from repro.service.fleet import PersistentFleet
from repro.service.protocol import (
    DeadlineExceeded,
    JobCancelledError,
    ServiceBusyError,
    ServiceError,
)

#: Priorities outside this band are clamped: the weight is ``2**p``, and
#: a runaway exponent must not be able to freeze every other tenant.
PRIORITY_MIN = -8
PRIORITY_MAX = 8

#: Fallback cost for shards whose plan carries none: virtual time must
#: always advance, or one job could monopolise the fleet for free.
MIN_SHARD_COST = 1.0


@dataclass
class JobResult:
    """What a completed job's future resolves to."""

    results: List[object]
    shards: int
    retries: int = 0
    workers_crashed: int = 0


class Job:
    """One admitted grid evaluation: its shard queue and bookkeeping.

    Created by :meth:`FleetScheduler.submit`; waiters block on
    :attr:`future` (a :class:`concurrent.futures.Future`, bridgeable
    into asyncio with ``wrap_future``), which resolves to a
    :class:`JobResult` or raises the job's failure.
    """

    __slots__ = (
        "job_id",
        "tag",
        "client_id",
        "priority",
        "weight",
        "specs",
        "task",
        "num_items",
        "num_shards",
        "pending",
        "payloads",
        "retries",
        "retries_total",
        "crashes",
        "vtime",
        "deadline",
        "client_deadline",
        "mean_cost",
        "cancel_on_disconnect",
        "future",
        "submitted_at",
        "queue_span",
    )

    def __init__(
        self,
        job_id: int,
        specs: Sequence[SpannerSpec],
        task: TaskSpec,
        num_items: int,
        *,
        priority: int = 0,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        cancel_on_disconnect: bool = False,
        deadline: Optional[float] = None,
        client_deadline: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.tag = tag
        self.client_id = client_id
        self.priority = max(PRIORITY_MIN, min(PRIORITY_MAX, int(priority)))
        self.weight = 2.0 ** self.priority
        self.specs = tuple(specs)
        self.task = task
        self.num_items = num_items
        self.num_shards = 0  # set at admission, after re-tagging
        self.pending: Deque[Shard] = deque()
        self.payloads: Dict[int, List] = {}  # global shard id -> [(index, result)]
        self.retries: Dict[int, int] = {}  # global shard id -> attempts failed
        self.retries_total = 0
        self.crashes = 0  # workers this job's shards took down
        self.vtime = 0.0
        #: ``deadline`` is the server-side safety net (``job_timeout``);
        #: ``client_deadline`` is the caller's latency contract
        #: (``deadline_ms`` on the wire) — they expire with different
        #: exception types, so the two slots stay separate.
        self.deadline = deadline
        self.client_deadline = client_deadline
        self.mean_cost = MIN_SHARD_COST  # set at admission, from the plan
        self.cancel_on_disconnect = cancel_on_disconnect
        self.future: "Future[JobResult]" = Future()
        self.submitted_at = time.monotonic()
        # Queue-time span: opened at admission when the task carries a
        # trace context, finished at this job's *first* shard dispatch —
        # so a trace separates time-waiting-for-the-fleet from time-on-it.
        self.queue_span = None
        if task.trace is not None:
            self.queue_span = get_tracer().begin(
                "scheduler.queue",
                parent=task.trace,
                job=job_id,
                tag=tag,
                priority=self.priority,
            )

    def finish_queue_span(self) -> None:
        if self.queue_span is not None:
            self.queue_span.finish()
            self.queue_span = None

    @property
    def done(self) -> bool:
        return self.future.done()


@dataclass
class SchedulerStats:
    """Monotonic counters, snapshotted into ``ping`` responses."""

    jobs_admitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_rejected_busy: int = 0
    jobs_deadline_exceeded: int = 0
    shards_dispatched: int = 0
    shard_retries: int = 0
    workers_crashed: int = 0
    watchdog_kills: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FleetScheduler:
    """Weighted-fair, cancellable, quota-bounded multiplexer of one
    :class:`PersistentFleet` across concurrent jobs (see module doc)."""

    def __init__(
        self,
        fleet: PersistentFleet,
        *,
        max_pending_jobs: int = 32,
        max_jobs_per_client: int = 8,
        max_retries: Optional[int] = None,
        job_timeout: Optional[float] = None,
        shard_timeout: Optional[float] = None,
    ) -> None:
        self.fleet = fleet
        self.max_pending_jobs = max_pending_jobs
        self.max_jobs_per_client = max_jobs_per_client
        self.max_retries = fleet.max_retries if max_retries is None else max_retries
        self.job_timeout = fleet.timeout if job_timeout is None else job_timeout
        #: Hung-shard watchdog base: the execution allowance, in seconds,
        #: of a shard of its job's *mean* planned cost.  A costlier shard
        #: gets proportionally longer, and every failed attempt doubles
        #: the allowance so a merely-slow shard converges instead of
        #: being killed forever.  ``None`` disables the watchdog.
        self.shard_timeout = shard_timeout
        self._lock = threading.Lock()
        self._jobs: Dict[int, Job] = {}  # admitted, not yet resolved
        self._shard_owner: Dict[int, Job] = {}  # global shard id -> job
        #: Latest cumulative registry snapshot per worker ("done"/"bye"
        #: messages carry them; merged on demand by :meth:`metrics`).
        self._worker_metrics: Dict[int, Dict[str, Any]] = {}
        #: Dispatch timestamps of in-flight shards (per-shard latency,
        #: and the watchdog's notion of how long a shard has been out).
        self._dispatched_at: Dict[int, float] = {}
        #: Shards whose worker the watchdog already killed: guards
        #: against double-kills between the kill and the EOF reap.
        self._watchdog_killed: set = set()
        self._next_job_id = 1
        self._next_shard_id = 0
        self._vclock = 0.0
        self._stats = SchedulerStats()
        self._snapshot: Dict[str, Any] = {}
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        # The wake pipe sits in the same connection.wait() as the worker
        # result pipes: submit/cancel poke it so the scheduler reacts
        # immediately instead of on its next poll tick.
        self._wake_rx, self._wake_tx = connection.Pipe(duplex=False)

    # -- lifecycle (caller threads) -------------------------------------

    def start(self) -> "FleetScheduler":
        """Open the fleet and start the scheduler thread (idempotent)."""
        if self._thread is not None:
            return self
        self.fleet.open()
        with self._lock:
            self._update_snapshot_locked()
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 60.0) -> None:
        """Stop scheduling and release the fleet (idempotent).

        Outstanding jobs are failed with a shutting-down error; the
        scheduler thread then closes the fleet gracefully (sentinels,
        bounded goodbye window).  A wedged scheduler thread falls back
        to a hard fleet abort so shutdown stays bounded.
        """
        with self._lock:
            self._stop = True
        self._wake()
        thread = self._thread
        if thread is None:
            with self._lock:
                self._fail_all_jobs_locked(ServiceError("scheduler never started"))
            self.fleet.close()
            return
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - defensive backstop
            self.fleet.abort()

    @property
    def running(self) -> bool:
        return (
            self._thread is not None and self._thread.is_alive() and not self._stop
        )

    # -- admission / cancellation (caller threads) ----------------------

    def submit(
        self,
        plan: ShardPlan,
        spanners: Sequence[SpannerSpec],
        task: TaskSpec,
        *,
        priority: int = 0,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        cancel_on_disconnect: bool = False,
        deadline: Optional[float] = None,
    ) -> Job:
        """Admit one grid evaluation; returns its :class:`Job`.

        Raises :class:`ServiceBusyError` when admission would exceed
        ``max_pending_jobs`` or the client's ``max_jobs_per_client``
        quota — the job is *not* queued in that case.  ``deadline`` is
        the caller's latency budget in *seconds* (the wire carries
        ``deadline_ms``): past it the job fails with
        :class:`DeadlineExceeded` whether it is queued, between
        dispatches, or mid-shard.
        """
        fault_point("sched.admit")
        now = time.monotonic()
        job_deadline = (
            None if self.job_timeout is None else now + self.job_timeout
        )
        client_deadline = None if deadline is None else now + deadline
        with self._lock:
            if self._stop or self._thread is None:
                raise ServiceError("the scheduler is not accepting jobs (shutting down)")
            if len(self._jobs) >= self.max_pending_jobs:
                self._stats.jobs_rejected_busy += 1
                raise ServiceBusyError(
                    f"daemon at capacity: {len(self._jobs)} jobs admitted "
                    f"(max_pending_jobs={self.max_pending_jobs}); retry later"
                )
            if client_id is not None:
                mine = sum(
                    1 for j in self._jobs.values() if j.client_id == client_id
                )
                if mine >= self.max_jobs_per_client:
                    self._stats.jobs_rejected_busy += 1
                    raise ServiceBusyError(
                        f"client quota exhausted: {mine} jobs in flight "
                        f"(max_jobs_per_client={self.max_jobs_per_client}); "
                        "retry later"
                    )
            job = Job(
                self._next_job_id,
                spanners,
                task,
                plan.num_items,
                priority=priority,
                tag=tag,
                client_id=client_id,
                cancel_on_disconnect=cancel_on_disconnect,
                deadline=job_deadline,
                client_deadline=client_deadline,
            )
            self._next_job_id += 1
            # Re-tag shards with globally unique ids: worker messages for
            # dead jobs must stay attributable (and droppable) forever.
            for shard in plan.shards:
                sid = self._next_shard_id
                self._next_shard_id += 1
                tagged = replace(shard, shard_id=sid)
                job.pending.append(tagged)
                self._shard_owner[sid] = job
            job.num_shards = len(job.pending)
            if job.num_shards:
                job.mean_cost = max(
                    MIN_SHARD_COST, plan.total_cost / job.num_shards
                )
            job.vtime = self._vclock  # join *now*, not behind the backlog
            self._jobs[job.job_id] = job
            self._stats.jobs_admitted += 1
            _debug(
                "scheduler admit job", job.job_id, "shards", job.num_shards,
                "priority", job.priority, "tag", tag, "client", client_id,
            )
            if job.num_shards == 0:  # empty grid: resolve immediately
                self._resolve_locked(job)
                job.future.set_result(JobResult(results=[], shards=0))
                self._stats.jobs_completed += 1
        self._wake()
        return job

    def cancel(
        self,
        *,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        on_disconnect: bool = False,
    ) -> int:
        """Cancel every matching unresolved job; returns how many.

        Matching is the conjunction of the given criteria; pass
        ``on_disconnect=True`` to additionally require the job to have
        opted into disconnect cancellation.
        """
        cancelled = 0
        with self._lock:
            for job in list(self._jobs.values()):
                if tag is not None and job.tag != tag:
                    continue
                if client_id is not None and job.client_id != client_id:
                    continue
                if on_disconnect and not job.cancel_on_disconnect:
                    continue
                self._cancel_job_locked(job)
                cancelled += 1
        if cancelled:
            self._wake()
        return cancelled

    def snapshot(self) -> Dict[str, Any]:
        """The latest scheduler-built status snapshot (for ``ping``).

        Taken under the scheduler lock, so it is internally consistent —
        never a torn read of a fleet mid-respawn.
        """
        with self._lock:
            return dict(self._snapshot)

    # -- job resolution (any thread, lock held) -------------------------

    def _resolve_locked(self, job: Job) -> None:
        """Remove a job from the active set and drop its pending shards."""
        job.finish_queue_span()
        self._jobs.pop(job.job_id, None)
        while job.pending:
            shard = job.pending.popleft()
            self._shard_owner.pop(shard.shard_id, None)
        # In-flight shard ids stay in _shard_owner: their late messages
        # must still resolve to this (done) job so they can be dropped.

    def _cancel_job_locked(self, job: Job) -> None:
        self._resolve_locked(job)
        if not job.done:
            job.future.set_exception(
                JobCancelledError(
                    f"job {job.job_id}"
                    + (f" (tag {job.tag!r})" if job.tag else "")
                    + " was cancelled"
                )
            )
            self._stats.jobs_cancelled += 1

    def _fail_job_locked(self, job: Job, exc: BaseException) -> None:
        self._resolve_locked(job)
        if not job.done:
            job.future.set_exception(exc)
            self._stats.jobs_failed += 1

    def _complete_job_locked(self, job: Job) -> None:
        self._resolve_locked(job)
        if job.done:  # pragma: no cover - cancelled in the same beat
            return
        results: List[object] = [None] * job.num_items
        for payload in job.payloads.values():
            for index, result in payload:
                results[index] = result
        job.future.set_result(
            JobResult(
                results=results,
                shards=job.num_shards,
                retries=job.retries_total,
                workers_crashed=job.crashes,
            )
        )
        self._stats.jobs_completed += 1
        # The slow-query log: completed jobs land with their tenant tag,
        # so one tenant's q² blowup dragging the fleet is visible from
        # `stats --connect` without reading a full trace.
        elapsed = time.monotonic() - job.submitted_at
        registry = get_registry()
        registry.histogram("scheduler.job_seconds").observe(elapsed)
        registry.slow.record(
            f"job:{job.task.task}",
            elapsed,
            job=job.job_id,
            tag=job.tag,
            client=job.client_id,
            shards=job.num_shards,
            items=job.num_items,
            priority=job.priority,
        )

    def _fail_all_jobs_locked(self, exc: BaseException) -> None:
        for job in list(self._jobs.values()):
            self._fail_job_locked(job, exc)

    # -- the scheduler loop (scheduler thread only) ---------------------

    def _loop(self) -> None:
        try:
            while True:
                with self._lock:
                    if self._stop:
                        break
                    # Expire *before* dispatching: a job whose deadline
                    # already passed must not get fleet time this beat
                    # (the queued / pre-dispatch expiry stages).
                    self._expire_locked()
                    self._dispatch_locked()
                    self._watchdog_locked()
                    self._update_snapshot_locked()
                self._poll(0.1)
        finally:
            with self._lock:
                self._fail_all_jobs_locked(
                    ServiceError("daemon shutting down; job abandoned")
                )
                self._update_snapshot_locked()
            self.fleet.close()

    def _wake(self) -> None:
        try:
            self._wake_tx.send(None)
        except (OSError, ValueError):  # closing down
            pass

    def _pick_job_locked(self) -> Optional[Job]:
        best: Optional[Job] = None
        for job in self._jobs.values():
            if not job.pending or job.done:
                continue
            if best is None or job.vtime < best.vtime:
                best = job  # ties: admission (dict) order wins
        return best

    def _dispatch_locked(self) -> None:
        for worker in self.fleet.idle_workers():
            job = self._pick_job_locked()
            if job is None:
                return
            shard = job.pending.popleft()
            self._vclock = max(self._vclock, job.vtime)
            job.vtime += max(shard.cost, MIN_SHARD_COST) / job.weight
            worker.assigned = shard
            _debug(
                "scheduler dispatch shard", shard.shard_id, "of job",
                job.job_id, "-> worker", worker.wid,
            )
            if not worker.send(
                self.fleet._shard_message(shard, job.specs, job.task)
            ):
                # Died between messages; the reaper attributes the crash.
                continue
            job.finish_queue_span()
            self._dispatched_at[shard.shard_id] = time.monotonic()
            self._stats.shards_dispatched += 1

    def _expire_locked(self) -> None:
        if not self._jobs:
            return
        now = time.monotonic()
        for job in list(self._jobs.values()):
            if job.client_deadline is not None and now > job.client_deadline:
                budget = job.client_deadline - job.submitted_at
                self._fail_job_locked(
                    job,
                    DeadlineExceeded(
                        f"job {job.job_id} exceeded its {budget:.3g}s deadline "
                        f"({len(job.payloads)}/{job.num_shards} shards done)"
                    ),
                )
                self._stats.jobs_deadline_exceeded += 1
                # The waiter is already released; reclaim the fleet time
                # its in-flight shards are still burning.
                self._kill_job_workers_locked(job)
            elif job.deadline is not None and now > job.deadline:
                self._fail_job_locked(
                    job,
                    ParallelExecutionError(
                        f"job {job.job_id} exceeded its "
                        f"{self.job_timeout}s timeout "
                        f"({len(job.payloads)}/{job.num_shards} shards done)"
                    ),
                )

    def _kill_job_workers_locked(self, job: Job) -> None:
        """Cancel a resolved job's in-flight shards by killing workers.

        Only called once the job's future is resolved: the results can
        never be used, so the workers running its shards are killed and
        respawned by the reaper instead of burning fleet time other
        tenants could use.  Orphaned shard ids stay in ``_shard_owner``
        until the reap drops them, exactly like any late message.
        """
        for worker in self.fleet._worker_snapshot():
            shard = worker.assigned
            if shard is None or self._shard_owner.get(shard.shard_id) is not job:
                continue
            _debug(
                "scheduler deadline kill worker", worker.wid,
                "shard", shard.shard_id, "job", job.job_id,
            )
            try:
                worker.process.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    def _watchdog_locked(self) -> None:
        """Kill workers whose shard is past its execution allowance.

        The allowance scales with the shard's planned cost relative to
        its job's mean (``shard.cost`` is the plan's cost model) and
        doubles with every prior failed attempt, so a legitimately slow
        shard eventually gets through while a truly wedged worker is
        killed, respawned, and its shard retried under the job's normal
        retry budget.
        """
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for worker in self.fleet._worker_snapshot():
            shard = worker.assigned
            if shard is None or shard.shard_id in self._watchdog_killed:
                continue
            started = self._dispatched_at.get(shard.shard_id)
            if started is None:
                continue
            job = self._shard_owner.get(shard.shard_id)
            allowance = self._shard_allowance_locked(job, shard)
            if now - started <= allowance:
                continue
            self._watchdog_killed.add(shard.shard_id)
            self._stats.watchdog_kills += 1
            get_registry().counter("sched.watchdog_kills").inc()
            _debug(
                "scheduler watchdog kill worker", worker.wid, "shard",
                shard.shard_id, "overdue", round(now - started, 3),
                "allowance", round(allowance, 3),
            )
            try:
                worker.process.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    def _shard_allowance_locked(self, job: Optional[Job], shard: Shard) -> float:
        assert self.shard_timeout is not None
        scale = 1.0
        attempts = 0
        if job is not None:
            scale = max(1.0, max(shard.cost, MIN_SHARD_COST) / job.mean_cost)
            attempts = job.retries.get(shard.shard_id, 0)
        return self.shard_timeout * scale * (2.0 ** attempts)

    def _poll(self, timeout: float) -> None:
        conns = self.fleet.connection_map()
        waitables: List[object] = list(conns)
        waitables.append(self._wake_rx)
        for ready in connection.wait(waitables, timeout=timeout):
            if ready is self._wake_rx:
                try:
                    while self._wake_rx.poll():
                        self._wake_rx.recv()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                continue
            worker = conns[ready]
            try:
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                self._reap(worker)
                continue
            self._handle(worker, message)
        # Backstop for exotic deaths that leave the pipe open.
        for worker in list(self.fleet.connection_map().values()):
            if worker.process.exitcode is not None and not worker.result_conn.poll():
                self._reap(worker)

    def _handle(self, worker, message) -> None:
        kind = message[0]
        _debug("scheduler recv", kind, "from worker", worker.wid)
        if kind == "ready":
            worker.ready = True
            return
        if kind == "bye":  # pragma: no cover - close() drains these
            return
        with self._lock:
            if kind == "done":
                _, _, shard_id, payload, metrics = message
                worker.assigned = None
                self._worker_metrics[worker.wid] = metrics  # cumulative
                self._watchdog_killed.discard(shard_id)
                self._observe_shard_latency_locked(shard_id)
                job = self._shard_owner.pop(shard_id, None)
                if job is None or job.done:
                    _debug("scheduler drop late done for shard", shard_id)
                    return
                if shard_id not in job.payloads:  # a retry may double-report
                    job.payloads[shard_id] = payload
                if len(job.payloads) == job.num_shards:
                    self._complete_job_locked(job)
            elif kind == "error":
                _, _, shard_id, trace = message
                shard, worker.assigned = worker.assigned, None
                if shard is None:
                    return  # hydration failure pre-ready; EOF reap follows
                self._dispatched_at.pop(shard.shard_id, None)
                self._watchdog_killed.discard(shard.shard_id)
                job = self._shard_owner.get(shard.shard_id)
                if job is None or job.done:
                    self._shard_owner.pop(shard.shard_id, None)
                    _debug("scheduler drop late error for shard", shard.shard_id)
                    return
                self._retry_shard_locked(job, shard, trace)

    def _observe_shard_latency_locked(self, shard_id) -> None:
        started = self._dispatched_at.pop(shard_id, None)
        if started is not None:
            get_registry().histogram("scheduler.shard_seconds").observe(
                time.monotonic() - started
            )

    def _retry_shard_locked(self, job: Job, shard: Shard, why: str) -> None:
        """Re-queue one failed shard against the job's own retry budget."""
        count = job.retries.get(shard.shard_id, 0) + 1
        job.retries[shard.shard_id] = count
        job.retries_total += 1
        self._stats.shard_retries += 1
        if count > self.max_retries:
            self._fail_job_locked(
                job,
                ParallelExecutionError(
                    f"shard {shard.shard_id} of job {job.job_id} failed "
                    f"{count} times (max_retries={self.max_retries}); "
                    f"last failure:\n{why}"
                ),
            )
            return
        job.pending.appendleft(shard)  # retry soon, at the job's own vtime

    def _reap(self, worker) -> None:
        """Remove a dead worker, charge its job, respawn a replacement."""
        with self._lock:
            self.fleet.remove_worker(worker.wid)
            self._stats.workers_crashed += 1
            _debug(
                "scheduler reap worker", worker.wid,
                "exitcode", worker.process.exitcode,
            )
            shard = worker.assigned
            if shard is not None:
                worker.assigned = None
                self._dispatched_at.pop(shard.shard_id, None)
                watchdogged = shard.shard_id in self._watchdog_killed
                self._watchdog_killed.discard(shard.shard_id)
                job = self._shard_owner.get(shard.shard_id)
                if job is not None and not job.done:
                    job.crashes += 1
                    if watchdogged:
                        why = (
                            f"worker {worker.wid} was killed by the "
                            f"hung-shard watchdog: shard {shard.shard_id} "
                            f"exceeded its execution allowance "
                            f"(shard_timeout={self.shard_timeout}s)"
                        )
                    else:
                        why = (
                            f"worker {worker.wid} died (exit code "
                            f"{worker.process.exitcode}) while running shard "
                            f"{shard.shard_id}"
                        )
                    self._retry_shard_locked(job, shard, why)
                else:
                    self._shard_owner.pop(shard.shard_id, None)
        # A persistent fleet is kept at strength unconditionally: it
        # serves every tenant, not just the one whose shard crashed.
        self.fleet.spawn_worker()

    def metrics(self) -> Dict[str, Any]:
        """The merged metrics view served by the ``metrics`` wire op.

        ``daemon`` is this process's registry (wire, scheduler, and —
        when the server evaluates in-process — engine metrics, plus the
        slow-query log); ``workers`` merges the latest cumulative
        snapshot of every fleet worker; ``combined`` folds both.
        """
        daemon = get_registry().snapshot()
        with self._lock:
            worker_snapshots = list(self._worker_metrics.values())
        workers = merge_snapshots(worker_snapshots)
        return {
            "daemon": daemon,
            "workers": workers,
            "combined": merge_snapshots([daemon, workers]),
        }

    def _update_snapshot_locked(self) -> None:
        queued = sum(len(j.pending) for j in self._jobs.values())
        # _shard_owner holds exactly the queued and in-flight shard ids
        # (completed ones are popped on arrival), so the difference is
        # what is on the workers right now — including orphaned shards
        # of cancelled jobs still draining.
        inflight = len(self._shard_owner) - queued
        scheduler: Dict[str, Any] = {
            "active_jobs": len(self._jobs),
            "queued_shards": queued,
            "inflight_shards": max(inflight, 0),
            "max_pending_jobs": self.max_pending_jobs,
            "max_jobs_per_client": self.max_jobs_per_client,
        }
        scheduler.update(self._stats.as_dict())
        # Mirror the queue state and counters into the metrics registry:
        # gauges merge by max, so the merged view reports high-water
        # marks; the counters are set (not inc'd) to stay cumulative.
        registry = get_registry()
        registry.gauge("scheduler.active_jobs").set(len(self._jobs))
        registry.gauge("scheduler.queued_shards").set(queued)
        registry.gauge("scheduler.inflight_shards").set(max(inflight, 0))
        for name, value in self._stats.as_dict().items():
            registry.counter(f"scheduler.{name}").value = value
        # One liveness pass: a worker that died but is not replaced yet
        # must be missing from both the pids and the alive count.
        pids = [
            w.process.pid
            for w in self.fleet._worker_snapshot()
            if w.process.exitcode is None
        ]
        self._snapshot = {
            "jobs": self.fleet.jobs,
            "alive": len(pids),
            "pids": pids,
            "scheduler": scheduler,
        }


__all__ = [
    "FleetScheduler",
    "Job",
    "JobResult",
    "PRIORITY_MAX",
    "PRIORITY_MIN",
    "SchedulerStats",
]

"""The work-stealing dispatcher's multi-job coordinator.

``--shard K/N`` partitions a sweep *statically* by fingerprint prefix:
a skewed sweep leaves whole machines idle while one shard grinds.  The
coordinator replaces the static partition with a dynamic queue — idle
workers *pull* the next ready task, so the work distributes itself by
construction, whatever the skew.

**Job table.**  The coordinator owns a FIFO table of jobs, each with a
server-issued id.  Several drivers share one fleet: a ``submit`` is
always accepted (unless draining) and queued behind the jobs already
in the table.  The default scheduling policy is work-conserving FIFO —
the oldest unfinished job's ready tasks are leased first, and a later
job's tasks are handed out only while the earlier jobs have nothing
ready — so a queued job never starves a running one, and spare fleet
capacity never idles while any job has ready work.  The opt-in
``schedule="fair"`` policy (``repro serve --schedule fair``) instead
round-robins lease grants across the active jobs, so a long parameter
sweep cannot monopolize the fleet ahead of short jobs submitted after
it; both policies are work-conserving (a job with nothing ready is
skipped, never waited on).  Results, status, and failure are all
scoped per job id; one job's worker error fails *that* job fast and
leaves the rest of the table untouched.

One dispatched job is a spec batch plus its derived task graph:

* one **trace task** per distinct (workload, scale, seed) — the
  expensive functional simulations, each performed exactly once across
  the whole fleet (the content-addressed cache key would make duplicate
  computation harmless, but not free);
* one **sim task** per spec index, *blocked* until its trace task is
  acknowledged — so a worker leasing a sim task can rely on the trace
  being resident in the shared cache backend.

Task ids are globally unique (``<job id>:t3`` / ``<job id>:s17``), so
an ack or renew names its job implicitly and two jobs' tasks can never
be confused, whatever the interleaving.

Execution follows a lease/ack protocol with the same invariants the
streaming engine locked down, preserved *per job*:

* a lease hands a task to one worker with a deadline; a worker that
  crashes (or stalls) past its deadline loses the lease and the task is
  requeued for the next idle worker — no task is ever lost.  Leases are
  granted in **batches** (:meth:`Coordinator.lease_many`), so a worker
  on a high-latency link pays one round trip for up to N tasks;
* an acknowledgement must present the live lease token.  Stale acks
  (from a worker whose lease expired and whose task was re-leased) are
  counted and discarded, so every result is delivered **exactly once**
  and every spec index lands exactly one payload, whatever the worker
  churn — batched and piggybacked acks included, because each ack is
  validated against its own token individually;
* a worker reporting a task *failure* fails its job fast: that job's
  queues are cleared, every lease it still holds is released (so a
  dead job can never pin the fleet's "leased" count), and the
  dispatching client receives the one-line diagnostic — mirroring the
  engine's clean ``EngineError`` crash path.  Other jobs keep running;
* ``drain`` stops new submissions and tells lease pollers to shut
  down; in-flight acks are still accepted, and delivered results stay
  readable, so a drain never tears a result in half.

Finished jobs are retained (so a slow driver can still poll its
results) and evicted oldest-first once more than
:data:`FINISHED_JOB_RETENTION` of them have accumulated — a finished
(or failed) job triggers the sweep the moment it transitions, so a
quiet serve does not pin finished result payloads in RAM until the
next submit; their stats are folded into the coordinator-lifetime
totals first, so aggregate fleet statistics never go backwards.

**Durability.**  By default the job table lives in process memory and
dies with it.  Constructed with a
:class:`~repro.engine.distributed.journal.JobJournal` (``repro serve
--state-dir``), every state transition — submit, done ack, failure,
eviction, drain — is appended (fsync'd) to the journal *before* the
caller sees the reply, and :meth:`Coordinator.resume` rebuilds the
table from the journal after a crash or restart: delivered results
stay pollable at their original cursors, pending and ready tasks
re-enter their queues, and in-flight leases are deliberately **not**
restored — the tasks re-lease to the next worker, and the old workers'
stale acks bounce on their lease tokens exactly as if the workers had
crashed, preserving exactly-once delivery.

The coordinator is transport-agnostic (plain method calls under one
lock); :mod:`repro.engine.distributed.server` exposes it over HTTP next
to the cache backend.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.distributed.journal import JobJournal
from repro.errors import DistributedError

#: Default seconds a worker may hold a lease before it is presumed dead.
DEFAULT_LEASE_TIMEOUT = 60.0

#: How many *finished* jobs stay pollable before the oldest is evicted.
FINISHED_JOB_RETENTION = 32

#: Version of the queue wire protocol (job-scoped results, batched
#: leases, one sim task per spec).  Checked alongside ``ENGINE_VERSION``
#: at ``/health`` and ``/queue/job`` time so a mixed fleet of old and
#: new builds fails loudly instead of livelocking on a wire-format
#: mismatch.  Version 3 added grouped ``<job>:gN`` sim tasks; 4 removed
#: them again, so a v3 fleet or journal is refused rather than replayed.
PROTOCOL_VERSION = 4


def _new_stats() -> Dict[str, int]:
    return {
        "traces_computed": 0,   # trace tasks a worker actually simulated
        "trace_cache_hits": 0,  # trace tasks served from the shared cache
        "requeues": 0,          # leases reclaimed from crashed workers
        "stale_acks": 0,        # acks discarded by exactly-once delivery
    }


@dataclass
class _Task:
    """One unit of leasable work (a trace computation or a sim)."""

    id: str
    kind: str                       # "trace" | "sim"
    payload: dict                   # wire form handed to the worker
    state: str = "pending"          # "pending" | "leased" | "done"
    lease: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    trace_id: Optional[str] = None  # sim tasks: the trace they replay
    index: Optional[int] = None     # sim tasks: position in the spec batch


@dataclass
class _Job:
    """One dispatched spec batch and its progress."""

    id: str
    scale: str
    seed: int
    tasks: Dict[str, _Task] = field(default_factory=dict)
    trace_queue: Deque[str] = field(default_factory=deque)
    ready_sims: Deque[str] = field(default_factory=deque)
    blocked_sims: Dict[str, List[str]] = field(default_factory=dict)
    results: List[Tuple[int, dict]] = field(default_factory=list)
    total_sims: int = 0
    failed: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=_new_stats)
    # Ids of currently-leased tasks: lease/requeue/status work touches
    # only live leases, not every task of every retained job.
    leased: set = field(default_factory=set)

    @property
    def done(self) -> bool:
        return self.failed is not None or len(self.results) == self.total_sims

    def release_lease(self, task: _Task) -> None:
        task.state = "pending"
        task.lease = None
        task.worker = None
        self.leased.discard(task.id)


def _trace_key_of(spec_payload: dict) -> Tuple[str, str, int]:
    return (str(spec_payload["workload"]), str(spec_payload["scale"]),
            int(spec_payload["seed"]))


#: Lease scheduling policies across queued jobs.
SCHEDULES = ("fifo", "fair")


class Coordinator:
    """Owns the job table of dispatched spec batches."""

    def __init__(self, lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock=time.monotonic, schedule: str = "fifo",
                 journal: Optional[JobJournal] = None) -> None:
        if schedule not in SCHEDULES:
            raise DistributedError(
                f"unknown schedule {schedule!r}; pick one of {SCHEDULES}"
            )
        self.lease_timeout = float(lease_timeout)
        self.schedule = schedule
        self.journal = journal
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._job_counter = 0
        self._lease_counter = 0
        # Tokens are salted per coordinator *instance*: a restarted
        # server's counter restarts at 1, and without the salt a
        # pre-restart worker's stale token could collide with a fresh
        # lease's — and its ack would be wrongly accepted, breaking
        # exactly-once delivery across the restart boundary.
        self._lease_salt = uuid.uuid4().hex[:8]
        self._draining = False
        self._compact_due = False
        # Fair-share rotation: id of the job served by the previous
        # grant, so the next grant starts looking *after* it.
        self._last_served: Optional[str] = None
        # Lifetime totals: stats of evicted jobs fold in here, so the
        # aggregate /queue/status numbers survive job retention.
        self._evicted_stats = _new_stats()

    @property
    def durability(self) -> str:
        """``/health``'s durability mode: the journal location, or
        ``"memory"`` when a restart loses the job table."""
        return (self.journal.describe() if self.journal is not None
                else "memory")

    # -- the write-ahead journal ---------------------------------------
    def _record(self, event: dict) -> None:
        """Journal one state transition (lock held, before mutation).

        Write-ahead ordering: the append (and its fsync) happens before
        the in-memory mutation it describes, so a journal failure —
        disk full, yanked state dir — errors the *request* and leaves
        table and journal agreeing, instead of letting them diverge.
        """
        if self.journal is None:
            return
        if self.journal.append(event):
            # Compaction wants a snapshot of the table *after* this
            # event's mutation is applied; defer it to the end of the
            # public call (see :meth:`_maybe_compact`).
            self._compact_due = True

    def _maybe_compact(self) -> None:
        """Snapshot+truncate the journal when it outgrew its budget
        (lock held, after all of this call's mutations landed)."""
        if self.journal is None or not self._compact_due:
            return
        self._compact_due = False
        self.journal.compact(self._snapshot_events())

    # -- job lifecycle -------------------------------------------------
    def _build_job(self, job_id: str, specs: List[dict], scale: str,
                   seed: int) -> _Job:
        """Derive one job's task graph from its spec batch.

        Deterministic in its inputs — the journal replays a ``submit``
        event through this same code, so a restarted coordinator
        rebuilds byte-identical task ids and blocking structure.
        """
        job = _Job(id=job_id, scale=str(scale), seed=int(seed))
        # External-kernel specs ship their package document; the trace
        # task for such a workload needs it too (the worker cannot
        # resolve a kernel: token it has never seen).  First occurrence
        # wins — the token embeds the content fingerprint, so every
        # spec of one token carries the identical document.
        kernel_docs: Dict[str, dict] = {}
        for spec in specs:
            document = spec.get("kernel")
            if document is not None:
                kernel_docs.setdefault(str(spec.get("workload")), document)
        trace_ids: Dict[Tuple[str, str, int], str] = {}
        for key in sorted({_trace_key_of(spec) for spec in specs}):
            task_id = f"{job.id}:t{len(trace_ids)}"
            workload, trace_scale, trace_seed = key
            payload = {"kind": "trace", "workload": workload,
                       "scale": trace_scale, "seed": trace_seed}
            if workload in kernel_docs:
                payload["kernel"] = kernel_docs[workload]
            job.tasks[task_id] = _Task(
                id=task_id, kind="trace",
                payload=payload,
            )
            job.trace_queue.append(task_id)
            job.blocked_sims[task_id] = []
            trace_ids[key] = task_id
        for index, spec in enumerate(specs):
            task_id = f"{job.id}:s{index}"
            trace_id = trace_ids[_trace_key_of(spec)]
            job.tasks[task_id] = _Task(
                id=task_id, kind="sim",
                payload={"kind": "sim", "index": index, "spec": spec},
                trace_id=trace_id, index=index,
            )
            job.blocked_sims[trace_id].append(task_id)
        job.total_sims = len(specs)
        return job

    def submit(self, specs: List[dict], scale: str, seed: int) -> dict:
        """Queue one spec batch; returns the job id, counts, position.

        Always accepted unless the coordinator is draining: several
        drivers share one fleet by queuing jobs FIFO, each scoped by
        its server-issued id.
        """
        with self._lock:
            if self._draining:
                raise DistributedError(
                    "coordinator is shutting down and accepts no new jobs"
                )
            self._job_counter += 1
            # The id must be unique across server restarts, not just
            # within this process: a driver polling results by a
            # recycled counter value could silently consume another
            # driver's payloads after a serve crash + resubmit.
            job = self._build_job(
                f"j{self._job_counter}-{uuid.uuid4().hex[:12]}",
                specs, scale, seed,
            )
            position = sum(1 for other in self._jobs.values()
                           if not other.done)
            self._record({"event": "submit", "job": job.id,
                          "scale": job.scale, "seed": job.seed,
                          "specs": [dict(spec) for spec in specs]})
            self._jobs[job.id] = job
            self._evict_finished()
            self._maybe_compact()
            return {"job": job.id,
                    "traces": len(job.trace_queue),
                    "sims": len(specs), "position": position}

    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs past the retention window."""
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.done]
        for job_id in finished[:max(0, len(finished)
                                    - FINISHED_JOB_RETENTION)]:
            stats = self._jobs[job_id].stats
            # The evict event carries the job's final stats so the
            # lifetime totals survive a restart too — requeues and
            # stale-ack counts are not derivable from done events.
            self._record({"event": "evict", "job": job_id,
                          "stats": dict(stats)})
            for key, value in stats.items():
                self._evicted_stats[key] += value
            del self._jobs[job_id]

    def _job_of(self, task_id: str) -> Optional[_Job]:
        """The job a globally-unique task id belongs to, or None."""
        job_id, _separator, _rest = str(task_id).partition(":")
        return self._jobs.get(job_id)

    # -- the lease/ack protocol ----------------------------------------
    def _requeue_expired(self) -> None:
        """Reclaim expired leases (lock held).

        Only live leases are scanned: a finished job holds none — its
        tasks are all acked, or its failure released them — so the
        retained-job history costs this hot path nothing.
        """
        now = self._clock()
        for job in self._jobs.values():
            if job.done:
                continue
            for task_id in list(job.leased):
                task = job.tasks[task_id]
                if task.deadline <= now:
                    job.release_lease(task)
                    job.stats["requeues"] += 1
                    if task.kind == "trace":
                        job.trace_queue.appendleft(task.id)
                    else:
                        job.ready_sims.appendleft(task.id)

    def _pop_ready(self, job: _Job) -> Optional[_Task]:
        """Pop ``job``'s next ready task (traces unblock sims: first)."""
        if job.trace_queue:
            return job.tasks[job.trace_queue.popleft()]
        if job.ready_sims:
            return job.tasks[job.ready_sims.popleft()]
        return None

    def _candidate_jobs(self) -> List[_Job]:
        """Jobs in the order this grant should consider them.

        ``fifo``: submission order — the oldest unfinished job first.
        ``fair``: submission order rotated to start just after the job
        the previous grant served, so consecutive grants round-robin
        across active jobs; a job with nothing ready is skipped (both
        policies are work-conserving).
        """
        jobs = list(self._jobs.values())
        if self.schedule == "fair" and self._last_served is not None:
            ids = [job.id for job in jobs]
            if self._last_served in ids:
                pivot = ids.index(self._last_served) + 1
                jobs = jobs[pivot:] + jobs[:pivot]
        return jobs

    def _next_ready(self) -> Optional[Tuple[_Job, _Task]]:
        """The next leasable task (and its job) under the schedule."""
        for job in self._candidate_jobs():
            if job.done:
                continue
            task = self._pop_ready(job)
            if task is not None:
                self._last_served = job.id
                return job, task
        return None

    def lease_many(self, worker: str, limit: int = 1) -> dict:
        """Up to ``limit`` ready tasks for ``worker`` in one call.

        Responses: ``{"tasks": [{"task", "id", "lease"}, ...]}`` (work
        to do), ``{"wait": true}`` (nothing ready right now — poll
        again), ``{"shutdown": true}`` (the coordinator is draining;
        exit).  Tasks come oldest-job-first, so one round trip can
        span a job boundary when the older job is nearly drained.
        """
        with self._lock:
            if self._draining:
                return {"shutdown": True}
            self._requeue_expired()
            grants: List[dict] = []
            for _ in range(max(1, int(limit))):
                found = self._next_ready()
                if found is None:
                    break
                job, task = found
                self._lease_counter += 1
                task.state = "leased"
                task.lease = f"L{self._lease_counter}-{self._lease_salt}"
                task.worker = str(worker)
                task.deadline = self._clock() + self.lease_timeout
                job.leased.add(task.id)
                grants.append({"task": dict(task.payload), "id": task.id,
                               "lease": task.lease})
            if not grants:
                return {"wait": True}
            return {"tasks": grants}

    def lease(self, worker: str) -> dict:
        """One ready task for ``worker`` (the batch-of-1 wire form)."""
        response = self.lease_many(worker, 1)
        if "tasks" in response:
            return response["tasks"][0]
        return response

    def renew(self, task_id: str, lease: str) -> bool:
        """Extend a live lease's deadline; False for stale/unknown ones.

        A worker computing a task longer than the lease timeout
        heartbeats through this, so slow-but-alive workers are never
        mistaken for crashed ones — without renewal, an expiring lease
        would requeue a task that is still being computed, breaking the
        trace-exactly-once economy (and, with a single worker, stalling
        the dispatch client for nothing).  A worker holding a *batch*
        renews every lease it still holds, including completed tasks
        whose acks ride on the next lease call.
        """
        with self._lock:
            job = self._job_of(task_id)
            if job is None:
                return False
            task = job.tasks.get(task_id)
            if task is None or task.state != "leased" \
                    or task.lease != lease:
                return False
            task.deadline = self._clock() + self.lease_timeout
            return True

    def ack(self, task_id: str, lease: str, *,
            result: Optional[dict] = None, computed: bool = False,
            error: Optional[str] = None) -> bool:
        """Complete (or fail) a leased task; True when the ack counted.

        Exactly-once delivery: only the live lease token is accepted, so
        a worker that lost its lease to the crash-recovery requeue
        cannot deliver a duplicate (or conflicting) result later.  An
        ack for an evicted job is stale by definition and discarded the
        same way.
        """
        with self._lock:
            job = self._job_of(task_id)
            if job is None:
                self._evicted_stats["stale_acks"] += 1
                return False
            task = job.tasks.get(task_id)
            if task is None or task.state != "leased" \
                    or task.lease != lease:
                job.stats["stale_acks"] += 1
                return False
            if error is not None:
                message = (
                    f"worker {task.worker} failed {task.kind} task "
                    f"{task.id}: {error}"
                )
                self._record({"event": "fail", "job": job.id,
                              "error": message})
                job.failed = message
                job.trace_queue.clear()
                job.ready_sims.clear()
                job.blocked_sims.clear()
                # Release *every* lease the failed job still holds, not
                # just the erroring one: a crashed co-worker's lease on
                # a dead job would otherwise never expire (the expiry
                # scan skips finished jobs), leaving a phantom "leased"
                # count that defeats the dispatch stall diagnostic and
                # stalls the shutdown drain for its full grace window.
                # In-flight acks from those workers become stale — the
                # job is dead, so discarding them is the correct side
                # of exactly-once.
                for leased_id in list(job.leased):
                    job.release_lease(job.tasks[leased_id])
                self._evict_finished()
                self._maybe_compact()
                return True
            if task.kind == "trace":
                self._record({"event": "done", "task": task.id,
                              "kind": "trace", "computed": bool(computed)})
            else:
                self._record({"event": "done", "task": task.id,
                              "kind": "sim", "result": result})
            self._finish_task(job, task, result=result, computed=computed)
            # A job that just completed must trigger the retention
            # sweep itself: on a quiet serve there may never be a next
            # submit, and until one arrives every over-retained job
            # pins its full results payload list in RAM.
            if job.done:
                self._evict_finished()
            self._maybe_compact()
            return True

    def _finish_task(self, job: _Job, task: _Task, *,
                     result: Optional[dict], computed: bool) -> None:
        """Apply one task completion (lock held; shared with replay)."""
        task.state = "done"
        task.lease = None
        job.leased.discard(task.id)
        if task.kind == "trace":
            key = "traces_computed" if computed else "trace_cache_hits"
            job.stats[key] += 1
            for sim_id in job.blocked_sims.pop(task.id, []):
                job.ready_sims.append(sim_id)
        else:
            job.results.append((task.index, result))

    # -- result delivery ------------------------------------------------
    def results_since(self, job_id: str, cursor: int) -> dict:
        """``job_id``'s results landed after ``cursor`` (completion
        order), plus the job verdict.  The cursor makes client polling
        exactly-once: each (index, payload) pair is handed out one time
        per cursor chain, and the job id scopes the chain so concurrent
        drivers can never consume each other's payloads."""
        with self._lock:
            job = self._jobs.get(str(job_id))
            if job is None:
                raise DistributedError(
                    f"unknown job {job_id!r} — it was never submitted "
                    f"here, was evicted after finishing, or the server "
                    f"restarted"
                )
            # Reclaim expired leases here too: if the whole fleet died,
            # no worker is left to trigger the requeue from lease(), but
            # the dispatch client keeps polling — and needs to observe
            # leased=0 to diagnose the stall instead of waiting forever.
            self._requeue_expired()
            cursor = max(0, int(cursor))
            batch = job.results[cursor:]
            return {
                "job": job.id,
                "results": [[index, payload] for index, payload in batch],
                "completed": len(job.results),
                "total": job.total_sims,
                "done": job.done,
                "failed": job.failed,
            }

    def _job_status(self, job: _Job) -> dict:
        return {
            "job": job.id,
            "scale": job.scale,
            "seed": job.seed,
            "total": job.total_sims,
            "completed": len(job.results),
            "pending_traces": len(job.trace_queue),
            "ready_sims": len(job.ready_sims),
            "leased": len(job.leased),
            "done": job.done,
            "failed": job.failed,
            "stats": dict(job.stats),
        }

    def status(self, job_id: Optional[str] = None) -> dict:
        """Queue depths, lease counts, and stats (diagnostics).

        With ``job_id``: that job's view (raises for unknown ids).
        Without: the fleet overview — every retained job's summary,
        aggregate lease count, and coordinator-lifetime stats (evicted
        jobs included).
        """
        with self._lock:
            self._requeue_expired()
            if job_id is not None:
                job = self._jobs.get(str(job_id))
                if job is None:
                    raise DistributedError(f"unknown job {job_id!r}")
                status = self._job_status(job)
                status["draining"] = self._draining
                return status
            stats = dict(self._evicted_stats)
            for job in self._jobs.values():
                for key, value in job.stats.items():
                    stats[key] += value
            return {
                "jobs": [self._job_status(job)
                         for job in self._jobs.values()],
                "schedule": self.schedule,
                "active": sum(1 for job in self._jobs.values()
                              if not job.done),
                "leased": sum(len(job.leased)
                              for job in self._jobs.values()),
                "stats": stats,
                "draining": self._draining,
            }

    # -- shutdown -------------------------------------------------------
    def drain(self) -> None:
        """Stop handing out work; tell pollers to shut down.

        In-flight acks are still accepted (a worker mid-task finishes
        cleanly) and already-delivered results remain readable, so a
        drain never tears a result in half — it only closes the tap.
        The drain is journaled (so a crash after it is explainable from
        the state dir alone), but deliberately *not* replayed: bringing
        a drained server back up is an explicit operator action, and it
        comes back serving.
        """
        with self._lock:
            if not self._draining:
                self._record({"event": "drain"})
            self._draining = True
            self._maybe_compact()

    # -- journal replay -------------------------------------------------
    @classmethod
    def resume(cls, journal: JobJournal,
               lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
               clock=time.monotonic, schedule: str = "fifo",
               ) -> Tuple["Coordinator", dict]:
        """Rebuild a coordinator from ``journal``; returns it + summary.

        Replay reconstructs exactly what durability promises: delivered
        results (pollable at their original cursors, under their
        original job ids), pending/ready queues, failed verdicts, and
        the lifetime stats of evicted jobs.  Leases are not restored —
        the tasks re-lease to the next worker and the old tokens bounce
        as stale.  The journal is compacted to a fresh snapshot before
        returning, which also trims a torn final line (the signature of
        a crash mid-append) and bounds the next restart's replay cost.
        """
        coordinator = cls(lease_timeout=lease_timeout, clock=clock,
                          schedule=schedule)
        events, torn = journal.replay()
        with coordinator._lock:
            for event in events:
                coordinator._replay_event(event)
        coordinator.journal = journal
        journal.compact(coordinator._snapshot_events())
        with coordinator._lock:
            summary = {
                "jobs": len(coordinator._jobs),
                "active": sum(1 for job in coordinator._jobs.values()
                              if not job.done),
                "results": sum(len(job.results)
                               for job in coordinator._jobs.values()),
                "requeued": sum(
                    len(job.trace_queue) + len(job.ready_sims)
                    for job in coordinator._jobs.values() if not job.done
                ),
                "torn": torn,
            }
        return coordinator, summary

    def _replay_event(self, event: dict) -> None:
        """Apply one journaled transition to the table (lock held)."""
        kind = event.get("event")
        if kind == "submit":
            job_id = str(event["job"])
            job = self._build_job(job_id, event["specs"],
                                  event["scale"], event["seed"])
            self._jobs[job_id] = job
            # Keep the counter monotonic past every replayed id, so a
            # post-restart submit can never collide with a journaled
            # job (the uuid suffix already makes that astronomically
            # unlikely; this makes it structurally impossible).
            match = re.match(r"j(\d+)-", job_id)
            if match:
                self._job_counter = max(self._job_counter,
                                        int(match.group(1)))
        elif kind == "done":
            job = self._job_of(str(event["task"]))
            if job is None or job.failed is not None:
                return
            task = job.tasks.get(str(event["task"]))
            if task is None or task.state == "done":
                return
            # Unlike a live ack, the replayed task still sits in a
            # queue (leases were not restored): pull it out before
            # marking it done, or it would be leased a second time.
            with contextlib.suppress(ValueError):
                if task.kind == "trace":
                    job.trace_queue.remove(task.id)
                else:
                    job.ready_sims.remove(task.id)
            if task.kind == "sim" and task.trace_id in job.blocked_sims:
                with contextlib.suppress(ValueError):
                    job.blocked_sims[task.trace_id].remove(task.id)
            self._finish_task(job, task, result=event.get("result"),
                              computed=bool(event.get("computed", False)))
        elif kind == "fail":
            job = self._jobs.get(str(event["job"]))
            if job is None:
                return
            job.failed = str(event["error"])
            job.trace_queue.clear()
            job.ready_sims.clear()
            job.blocked_sims.clear()
        elif kind == "evict":
            job = self._jobs.pop(str(event["job"]), None)
            stats = event.get("stats") or (job.stats if job else {})
            for key, value in stats.items():
                if key in self._evicted_stats:
                    self._evicted_stats[key] += int(value)
        elif kind == "stats":
            job = self._jobs.get(str(event["job"]))
            if job is not None:
                job.stats.update({key: int(value) for key, value
                                  in event.get("stats", {}).items()
                                  if key in job.stats})
        elif kind == "evicted_stats":
            for key, value in event.get("stats", {}).items():
                if key in self._evicted_stats:
                    self._evicted_stats[key] = int(value)
        elif kind == "drain":
            pass    # a restart deliberately reopens the tap
        else:
            raise DistributedError(
                f"journal holds an unknown event kind {kind!r} — the "
                f"version stamp matched, so this is a bug, not skew"
            )

    def _snapshot_events(self) -> List[dict]:
        """The minimal event stream reproducing the current table.

        Per retained job: its ``submit``, the settled trace ``done``
        events, the sim ``done`` events *in results order* (delivery
        order is the cursor contract — a driver's cursor must mean the
        same thing after a compaction+restart as before), a ``fail``
        verdict if any, and a ``stats`` correction (requeue/stale-ack
        counts are not derivable from done events).
        """
        events: List[dict] = []
        if any(value for value in self._evicted_stats.values()):
            events.append({"event": "evicted_stats",
                           "stats": dict(self._evicted_stats)})
        for job in self._jobs.values():
            events.append({
                "event": "submit", "job": job.id, "scale": job.scale,
                "seed": job.seed,
                "specs": [job.tasks[f"{job.id}:s{index}"].payload["spec"]
                          for index in range(job.total_sims)],
            })
            for task in job.tasks.values():
                if task.kind == "trace" and task.state == "done":
                    events.append({"event": "done", "task": task.id,
                                   "kind": "trace", "computed": False})
            for index, payload in job.results:
                events.append({"event": "done",
                               "task": f"{job.id}:s{index}",
                               "kind": "sim", "result": payload})
            if job.failed is not None:
                events.append({"event": "fail", "job": job.id,
                               "error": job.failed})
            events.append({"event": "stats", "job": job.id,
                           "stats": dict(job.stats)})
        return events

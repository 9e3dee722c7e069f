"""The work-stealing dispatcher's coordinator.

``--shard K/N`` partitions a sweep *statically* by fingerprint prefix:
a skewed sweep leaves whole machines idle while one shard grinds.  The
coordinator replaces the static partition with a dynamic queue — idle
workers *pull* the next ready task, so the work distributes itself by
construction, whatever the skew.

**One job slot.**  The coordinator serves one driver at a time: it
holds a single job, under a server-issued id.  A ``submit`` is always
accepted (unless draining) and *replaces* the current job, even an
unfinished one — a driver that was interrupted, or that stalled out
with no workers, would otherwise lock every later driver out.  The
replaced job is dropped with every lease it holds, so its late acks
are refused as stale and its results poll answers "unknown job".  A
finished job stays pollable until the next submit.

One dispatched job is a spec batch plus its derived task graph:

* one **trace task** per distinct (workload, scale, seed) — the
  expensive functional simulations, each performed exactly once across
  the whole fleet (the content-addressed cache key would make duplicate
  computation harmless, but not free);
* one **sim task** per spec index, *blocked* until its trace task is
  acknowledged — so a worker leasing a sim task can rely on the trace
  being resident in the shared cache backend.

Task ids embed the job id (``<job id>:t3`` / ``<job id>:s17``), so an
ack or renew names its job implicitly and a replaced job's task can
never be mistaken for the current job's.

Execution follows a lease/ack protocol with the same invariants the
streaming engine locked down:

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
* a worker reporting a task *failure* fails the job fast: its queues
  are cleared, every lease it still holds is released (so a dead job
  can never pin the "leased" count), and the dispatching client
  receives the one-line diagnostic — mirroring the engine's clean
  ``EngineError`` crash path;
* ``drain`` stops new submissions and tells lease pollers to shut
  down; in-flight acks are still accepted, and delivered results stay
  readable, so a drain never tears a result in half.

The coordinator is transport-agnostic (plain method calls under one
lock); :mod:`repro.engine.distributed.server` exposes it over HTTP next
to the cache backend.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import DistributedError

#: Default seconds a worker may hold a lease before it is presumed dead.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Version of the queue wire protocol (job-scoped results, batched
#: leases, one sim task per spec).  Checked alongside ``ENGINE_VERSION``
#: at ``/health`` and ``/queue/job`` time so a mixed fleet of old and
#: new builds fails loudly instead of livelocking on a wire-format
#: mismatch.  Version 3 added grouped ``<job>:gN`` sim tasks; 4 removed
#: them again, so a v3 driver or worker is refused.
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
    # only live leases, not every task of the job.
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


class Coordinator:
    """Owns the one dispatched spec batch the fleet is working on."""

    def __init__(self, lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock=time.monotonic) -> None:
        self.lease_timeout = float(lease_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._job: Optional[_Job] = None
        self._job_counter = 0
        self._lease_counter = 0
        # Tokens are salted per coordinator *instance*: a restarted
        # server's counter restarts at 1, and without the salt a
        # pre-restart worker's stale token could collide with a fresh
        # lease's — and its ack would be wrongly accepted, breaking
        # exactly-once delivery across the restart boundary.
        self._lease_salt = uuid.uuid4().hex[:8]
        self._draining = False

    # -- job lifecycle -------------------------------------------------
    def _build_job(self, job_id: str, specs: List[dict], scale: str,
                   seed: int) -> _Job:
        """Derive one job's task graph from its spec batch."""
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
                index=index,
            )
            job.blocked_sims[trace_id].append(task_id)
        job.total_sims = len(specs)
        return job

    def submit(self, specs: List[dict], scale: str, seed: int) -> dict:
        """Make one spec batch the current job; returns its id and counts.

        Always accepted unless the coordinator is draining.  The
        previous job, finished or not, is dropped with every lease it
        holds: its late acks and renewals no longer match the current
        job, so they bounce as stale, and its results poll answers
        "unknown job".
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
            # driver's payloads after a serve restart + resubmit.
            job = self._build_job(
                f"j{self._job_counter}-{uuid.uuid4().hex[:12]}",
                specs, scale, seed,
            )
            self._job = job
            return {"job": job.id,
                    "traces": len(job.trace_queue),
                    "sims": len(specs)}

    def _current(self, job_id: str) -> _Job:
        """The current job if it is ``job_id``; raises otherwise."""
        job = self._job
        if job is None or job.id != str(job_id):
            raise DistributedError(
                f"unknown job {job_id!r} — it was replaced by a newer "
                f"submission, was never submitted here, or the server "
                f"restarted"
            )
        return job

    def _job_of(self, task_id: str) -> Optional[_Job]:
        """The current job if ``task_id`` belongs to it, else None."""
        job_id, _separator, _rest = str(task_id).partition(":")
        job = self._job
        return job if job is not None and job.id == job_id else None

    # -- the lease/ack protocol ----------------------------------------
    def _requeue_expired(self) -> None:
        """Reclaim expired leases (lock held).

        Only live leases are scanned: a finished job holds none — its
        tasks are all acked, or its failure released them.
        """
        job = self._job
        if job is None or job.done:
            return
        now = self._clock()
        for task_id in list(job.leased):
            task = job.tasks[task_id]
            if task.deadline <= now:
                job.release_lease(task)
                job.stats["requeues"] += 1
                if task.kind == "trace":
                    job.trace_queue.appendleft(task.id)
                else:
                    job.ready_sims.appendleft(task.id)

    def _next_ready(self) -> Optional[_Task]:
        """Pop the current job's next ready task (traces unblock sims:
        first), or None."""
        job = self._job
        if job is None or job.done:
            return None
        if job.trace_queue:
            return job.tasks[job.trace_queue.popleft()]
        if job.ready_sims:
            return job.tasks[job.ready_sims.popleft()]
        return None

    def lease_many(self, worker: str, limit: int = 1) -> dict:
        """Up to ``limit`` ready tasks for ``worker`` in one call.

        Responses: ``{"tasks": [{"task", "id", "lease"}, ...]}`` (work
        to do), ``{"wait": true}`` (nothing ready right now — poll
        again), ``{"shutdown": true}`` (the coordinator is draining;
        exit).
        """
        with self._lock:
            if self._draining:
                return {"shutdown": True}
            self._requeue_expired()
            grants: List[dict] = []
            for _ in range(max(1, int(limit))):
                task = self._next_ready()
                if task is None:
                    break
                self._lease_counter += 1
                task.state = "leased"
                task.lease = f"L{self._lease_counter}-{self._lease_salt}"
                task.worker = str(worker)
                task.deadline = self._clock() + self.lease_timeout
                self._job.leased.add(task.id)
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
        ack for a replaced job is stale by definition and discarded the
        same way.
        """
        with self._lock:
            job = self._job_of(task_id)
            if job is None:
                return False
            task = job.tasks.get(task_id)
            if task is None or task.state != "leased" \
                    or task.lease != lease:
                job.stats["stale_acks"] += 1
                return False
            if error is not None:
                job.failed = (
                    f"worker {task.worker} failed {task.kind} task "
                    f"{task.id}: {error}"
                )
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
                return True
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
            return True

    # -- result delivery ------------------------------------------------
    def results_since(self, job_id: str, cursor: int) -> dict:
        """``job_id``'s results landed after ``cursor`` (completion
        order), plus the job verdict.  The cursor makes client polling
        exactly-once: each (index, payload) pair is handed out one time
        per cursor chain, and the job id scopes the chain so a replaced
        driver can never consume its successor's payloads."""
        with self._lock:
            job = self._current(job_id)
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

    def status(self, job_id: Optional[str] = None) -> dict:
        """The current job's queue depths, lease count and stats.

        ``leased`` and ``draining`` are always present (the dispatch
        stall diagnostic and the shutdown drain read them), also before
        the first submit.  With ``job_id``: raises unless that job is
        the current one.
        """
        with self._lock:
            self._requeue_expired()
            job = self._job if job_id is None else self._current(job_id)
            if job is None:
                return {"job": None, "leased": 0,
                        "draining": self._draining}
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
                "draining": self._draining,
            }

    # -- shutdown -------------------------------------------------------
    def drain(self) -> None:
        """Stop handing out work; tell pollers to shut down.

        In-flight acks are still accepted (a worker mid-task finishes
        cleanly) and already-delivered results remain readable, so a
        drain never tears a result in half — it only closes the tap.
        """
        with self._lock:
            self._draining = True

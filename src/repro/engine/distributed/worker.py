"""Worker loops and dispatch clients for the distributed subsystem.

A **worker** (``repro worker --connect URL``) is a thin pull loop around
the ordinary :class:`~repro.engine.executor.Engine`: it leases tasks
from the coordinator, computes them with an engine whose cache is the
server's HTTP backend (so every record it computes or reads is shared
live with the rest of the fleet), and acknowledges results.  All the
heavy machinery — trace interpretation, model evaluation, content
addressing — is exactly the single-machine code path; distribution adds
only the lease/ack envelope around it.

``--lease-batch N`` amortizes the network on high-latency links: one
``POST /queue/lease`` round trip leases up to N tasks, and the acks for
a finished batch **piggyback on the next lease call** instead of
costing a round trip each.  Failure acks are still sent immediately
(the job must fail fast), and the ack-verdict list in the lease
response keeps the worker's summary honest: a piggybacked ack rejected
by exactly-once delivery is not counted.

A **dispatch client** (``repro bench --dispatch URL``) is the other
side: it submits a spec batch as one job (the coordinator issues the
job id), polls *that job's* results with a cursor (each spec index
delivered exactly once, in completion order), and replays the report
assembly locally against the shared cache — which is why a dispatched
report is byte-identical to a local run.

Failure semantics worth knowing:

* a worker that hits an :class:`~repro.errors.EngineError` on a task
  acks the *failure*; the coordinator fails the job fast and the
  dispatch client raises :class:`~repro.errors.DistributedError` with
  the worker's one-line diagnostic;
* a worker that dies silently simply stops acking — its leases expire
  and the tasks are requeued to surviving workers; if *no* worker
  survives (or none was ever started), the dispatch client notices the
  queue sitting idle and raises :class:`DistributedError` after a stall
  window instead of polling forever;
* an unreachable server raises :class:`DistributedError` from the HTTP
  layer, which the CLI prints as a one-line ``error:`` + exit 2.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro.engine.cache import ENGINE_VERSION
from repro.engine.distributed.coordinator import PROTOCOL_VERSION
from repro.engine.distributed.backend import HTTPBackend, http_json
from repro.errors import (
    DistributedError,
    DistributedUnavailable,
    ReproError,
)

#: Default seconds between polls when the queue has nothing ready.
DEFAULT_POLL = 0.2

#: Default seconds :func:`dispatch_job` tolerates with no results *and*
#: no leased tasks before concluding no worker is serving the queue.
DEFAULT_STALL_TIMEOUT = 30.0

#: Default seconds of *continuous* server unavailability a worker or
#: dispatch client rides out (retrying with capped exponential backoff)
#: before giving up — generous enough to cover a serve restart.
DEFAULT_RECONNECT = 60.0

#: First retry delay after a transport failure; doubles per retry.
RECONNECT_BASE_DELAY = 0.5

#: Ceiling on the doubling retry delay.
RECONNECT_MAX_DELAY = 5.0


def _retry_transport(call: Callable[[], dict], *,
                     window: float) -> dict:
    """Run ``call``, retrying transport failures with capped
    exponential backoff for up to ``window`` seconds of continuous
    outage.

    Only :class:`DistributedUnavailable` (the server cannot be reached
    at all) is retried — protocol-level rejections like "unknown job"
    mean retrying can never help and pass straight through.  A
    ``window`` of 0 (or less) disables retrying entirely.  The outage
    clock starts at the first failure and resets on any success, so a
    long-lived loop tolerates any number of *separate* blips; only one
    continuous outage longer than ``window`` is fatal.
    """
    outage_since: Optional[float] = None
    delay = RECONNECT_BASE_DELAY
    while True:
        try:
            return call()
        except DistributedUnavailable:
            now = time.monotonic()
            if outage_since is None:
                outage_since = now
            elapsed = now - outage_since
            if window <= 0 or elapsed >= window:
                raise
            time.sleep(max(0.0, min(delay, window - elapsed)))
            delay = min(delay * 2.0, RECONNECT_MAX_DELAY)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class CoordinatorClient:
    """HTTP client for the coordinator half of a ``repro serve`` server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path: str, body: dict) -> dict:
        _status, document = http_json(
            "POST", f"{self.base_url}{path}", body=body,
            timeout=self.timeout,
        )
        return document if isinstance(document, dict) else {}

    def _get(self, path: str) -> dict:
        _status, document = http_json(
            "GET", f"{self.base_url}{path}", timeout=self.timeout
        )
        return document if isinstance(document, dict) else {}

    # ------------------------------------------------------------------
    def check_version(self) -> dict:
        """Health-check the server and fail loudly on version skew."""
        health = self._get("/health")
        version = health.get("engine_version")
        if version is None:
            # A listening socket that is not `repro serve` (typo'd URL,
            # proxy, some other service) has no /health document — that
            # is not a version skew, and saying so would send the
            # operator hunting for a build mismatch that does not exist.
            raise DistributedError(
                f"{self.base_url} does not look like a repro serve "
                f"endpoint (no /health engine_version)"
            )
        if version != ENGINE_VERSION:
            raise DistributedError(
                f"{self.base_url} runs engine version {version!r}, this "
                f"build is {ENGINE_VERSION} — matching builds are "
                f"required for shared cache records to line up"
            )
        protocol = health.get("protocol_version")
        if protocol != PROTOCOL_VERSION:
            # The queue wire format is versioned separately from the
            # cache envelope format: a server that predates job-scoped
            # results and batched leases would livelock this build (and
            # vice versa), so mixed fleets stop at the health check.
            raise DistributedError(
                f"{self.base_url} speaks queue protocol {protocol!r}, "
                f"this build speaks {PROTOCOL_VERSION} — upgrade the "
                f"older side; mixed fleets would livelock on the wire "
                f"format"
            )
        return health

    def submit(self, specs: List[dict], *, scale: str, seed: int) -> dict:
        return self._post("/queue/job", {
            "specs": specs, "scale": scale, "seed": seed,
            "engine_version": ENGINE_VERSION,
            "protocol_version": PROTOCOL_VERSION,
        })

    def lease(self, worker: str, *, max_tasks: int = 1,
              acks: Optional[Sequence[dict]] = None) -> dict:
        """One batched lease round trip: settle ``acks``, pull up to
        ``max_tasks``.  The response's ``acked`` list gives the
        per-ack verdicts, in order."""
        body: dict = {"worker": worker, "max": int(max_tasks)}
        if acks:
            body["acks"] = list(acks)
        return self._post("/queue/lease", body)

    def renew(self, task_id: str, lease: str) -> bool:
        return bool(self._post("/queue/renew", {
            "id": task_id, "lease": lease,
        }).get("renewed"))

    def renew_many(self, leases: Sequence[Tuple[str, str]]) -> List[bool]:
        """Renew a batch of ``(task id, lease)`` pairs in one round trip."""
        verdicts = self._post("/queue/renew", {
            "renews": [{"id": task_id, "lease": lease}
                       for task_id, lease in leases],
        }).get("renewed")
        if not isinstance(verdicts, list):
            return [False] * len(leases)
        return [bool(verdict) for verdict in verdicts]

    def ack(self, task_id: str, lease: str, *,
            result: Optional[dict] = None, computed: bool = False,
            error: Optional[str] = None) -> bool:
        body = {"id": task_id, "lease": lease, "computed": computed}
        if result is not None:
            body["result"] = result
        if error is not None:
            body["error"] = error
        return bool(self._post("/queue/ack", body).get("accepted"))

    def results_since(self, job_id: str, cursor: int) -> dict:
        return self._get(
            f"/queue/results?job={quote(str(job_id))}&since={int(cursor)}"
        )

    def status(self, job_id: Optional[str] = None) -> dict:
        if job_id is None:
            return self._get("/queue/status")
        return self._get(f"/queue/status?job={quote(str(job_id))}")

    def export(self, *, scale: str, seed: int) -> dict:
        return self._get(f"/export?scale={scale}&seed={int(seed)}")

    def shutdown(self) -> None:
        self._post("/admin/shutdown", {})


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
@dataclass
class WorkerSummary:
    """What one worker loop did before it exited."""

    traces_computed: int = 0
    trace_cache_hits: int = 0
    sims: int = 0
    failures: int = 0


def _settle_verdicts(pending: List[dict], verdicts: Sequence[bool],
                     summary: WorkerSummary,
                     on_task: Optional[Callable[[str, dict], None]]) -> None:
    """Fold the coordinator's ack verdicts into the worker summary.

    A rejected ack means the lease expired and the task was redone
    elsewhere — our result was discarded, so it must not count.
    """
    for entry, accepted in zip(pending, verdicts):
        if not accepted:
            continue
        if entry["_kind"] == "trace":
            if entry["ack"].get("computed"):
                summary.traces_computed += 1
            else:
                summary.trace_cache_hits += 1
        else:
            summary.sims += 1
        if on_task is not None:
            on_task(entry["_kind"], entry["_task"])


def work_loop(url: str, *, poll: float = DEFAULT_POLL,
              max_idle: Optional[float] = None,
              worker_id: Optional[str] = None,
              on_task: Optional[Callable[[str, dict], None]] = None,
              client: Optional[CoordinatorClient] = None,
              lease_batch: int = 1,
              reconnect: float = DEFAULT_RECONNECT) -> WorkerSummary:
    """Pull tasks from ``url`` until told to shut down (or idled out).

    ``max_idle`` bounds how long the loop waits without receiving work
    before exiting on its own — None means serve until the coordinator
    drains.  ``on_task(kind, detail)`` fires after each task's ack is
    *accepted* (the CLI's progress lines).  ``lease_batch`` tasks are
    leased per round trip, and completed-task acks piggyback on the
    next lease call.

    ``reconnect`` is the fleet-survival knob: a lease/ack round trip
    that hits a *transport* failure (server restarting, network blip)
    is retried with capped exponential backoff for up to that many
    seconds of continuous outage instead of killing the worker — so a
    restarted ``repro serve`` finds its fleet still attached.  A task
    interrupted mid-compute by the outage is simply dropped (its lease
    expires, or the restarted server never knew it); pass
    ``reconnect=0`` to fail on the first transport error.
    """
    from repro.engine.distributed.coordinator import DEFAULT_LEASE_TIMEOUT
    from repro.engine.executor import Engine

    client = client or CoordinatorClient(url)
    health = client.check_version()
    lease_timeout = float(
        health.get("lease_timeout") or DEFAULT_LEASE_TIMEOUT
    )
    lease_batch = max(1, int(lease_batch))
    engine = Engine(backend=HTTPBackend(url))
    worker = worker_id or default_worker_id()
    summary = WorkerSummary()
    idle_since: Optional[float] = None
    tasks_since_idle = 0
    # Completed-but-unacknowledged tasks, flushed on the next lease
    # round trip: {"ack": <wire body>, "_kind": ..., "_task": ...}.
    pending: List[dict] = []
    while True:
        acks = [entry["ack"] for entry in pending]
        response = _retry_transport(
            lambda: client.lease(worker, max_tasks=lease_batch,
                                 acks=acks),
            window=reconnect,
        )
        _settle_verdicts(pending, response.get("acked") or [],
                         summary, on_task)
        pending = []
        if response.get("shutdown"):
            break
        tasks = response.get("tasks") or []
        if not tasks:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
                if tasks_since_idle:
                    # Going idle after doing work: drop the engine's
                    # per-trace/per-spec memos so a serve-indefinitely
                    # worker's memory stays bounded by one sweep's
                    # working set.  The records themselves live on the
                    # server; anything still needed is one GET away.
                    engine = Engine(backend=HTTPBackend(url))
                    tasks_since_idle = 0
            if max_idle is not None and now - idle_since >= max_idle:
                break
            time.sleep(poll)
            continue
        idle_since = None
        tasks_since_idle += len(tasks)
        # Heartbeat while computing: every lease in the batch is
        # renewed — including completed tasks whose acks are waiting
        # for the next lease call — so a batch slower than the lease
        # timeout is not mistaken for a crashed worker (the requeue
        # would recompute its tasks elsewhere and discard our acks).
        held = {grant["id"]: grant["lease"] for grant in tasks}
        # The renew thread iterates `held` while the main loop drops
        # finished/failed entries from it; an unsynchronized snapshot
        # can die with "dictionary changed size during iteration",
        # which kills the heartbeat silently and loses every lease in
        # a long batch.  All access goes through this lock.
        held_lock = threading.Lock()
        renew_stop = threading.Event()

        def _keep_renewed(held=held, held_lock=held_lock) -> None:
            misses = 0
            while not renew_stop.wait(lease_timeout / 3.0):
                with held_lock:
                    leases = list(held.items())
                if not leases:
                    return
                try:
                    verdicts = client.renew_many(leases)
                    misses = 0
                except DistributedError:
                    # One transient blip must not cost the leases —
                    # keep trying until a full lease timeout of
                    # consecutive failures says the server is gone.
                    misses += 1
                    if misses >= 3:
                        return
                    continue
                if not any(verdicts):
                    return   # every lease gone: renewing is pointless

        renewer = threading.Thread(target=_keep_renewed, daemon=True)
        renewer.start()
        # Jobs this worker failed while working the batch: their
        # remaining sibling tasks are dead on arrival (the failure ack
        # released every lease the job held), so computing them would
        # only produce stale acks.
        failed_jobs = set()
        try:
            for grant in tasks:
                task = grant["task"]
                task_id, lease = grant["id"], grant["lease"]
                if task_id.partition(":")[0] in failed_jobs:
                    with held_lock:
                        held.pop(task_id, None)
                    continue
                try:
                    if task["kind"] == "trace":
                        if task.get("kernel") is not None:
                            # External kernel: register the document the
                            # coordinator attached so the workload token
                            # resolves in this process.
                            from repro.kernels.registry import (
                                register_document,
                            )

                            register_document(
                                task["kernel"], "<trace-task payload>"
                            )
                        computed = engine.ensure_trace(
                            task["workload"], task["scale"], task["seed"]
                        )
                        pending.append({
                            "ack": {"id": task_id, "lease": lease,
                                    "computed": computed},
                            "_kind": "trace", "_task": task,
                        })
                    else:
                        from repro.engine.spec import RunSpec

                        spec = RunSpec.from_payload(task["spec"])
                        run_result, = engine.execute([spec])
                        pending.append({
                            "ack": {"id": task_id, "lease": lease,
                                    "computed": False,
                                    "result":
                                        run_result.result.to_payload()},
                            "_kind": "sim", "_task": task,
                        })
                except DistributedUnavailable:
                    # The server vanished mid-batch (a restart, a
                    # blip).  Our leases will expire — or died with the
                    # server — so this batch's unacked work is
                    # discarded server-side either way; drop it and
                    # let the lease loop's backoff find the server
                    # again rather than killing the worker.  The
                    # engine's memos go too: a result computed but
                    # never PUT (the outage may have hit between the
                    # two) would otherwise be served from memo on the
                    # re-lease without ever landing in the shared
                    # cache, leaving the fleet's record set incomplete.
                    if reconnect <= 0:
                        raise
                    engine = Engine(backend=HTTPBackend(url))
                    pending = []
                    break
                except DistributedError:
                    raise     # protocol breakdown: the loop cannot go on
                except ReproError as error:
                    # The task itself failed (bad spec, model crash):
                    # report it *immediately* — piggybacking a failure
                    # would delay the job's fail-fast verdict — then
                    # keep serving; the next task may belong to a
                    # healthy job.
                    try:
                        client.ack(task_id, lease, error=str(error))
                    except DistributedUnavailable:
                        if reconnect <= 0:
                            raise
                        pending = []
                        break
                    with held_lock:
                        held.pop(task_id, None)
                    summary.failures += 1
                    failed_jobs.add(task_id.partition(":")[0])
        finally:
            renew_stop.set()
    return summary


# ----------------------------------------------------------------------
# The dispatching side
# ----------------------------------------------------------------------
def dispatch_job(client: CoordinatorClient, specs: List[dict], *,
                 scale: str, seed: int,
                 poll: float = DEFAULT_POLL,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT,
                 reconnect: float = DEFAULT_RECONNECT
                 ) -> Iterator[Tuple[int, dict]]:
    """Submit a job and yield ``(spec index, cycles payload)`` pairs.

    Pairs surface in completion order, each index exactly once (the
    cursor protocol), mirroring ``Engine.stream``'s delivery contract.
    The coordinator issues a job id at submit time and every results
    poll is scoped by it, so a driver never sees another job's payloads.

    Raises :class:`DistributedError` when the job fails remotely, the
    server rejects the job id (a newer submission replaced the job, or
    the server restarted and forgot it), or — after ``stall_timeout``
    seconds with no results and no leased tasks on the fleet — no
    worker is serving the queue at all (leases held by live workers
    never trip the timer, so long-running tasks and a busy fleet are
    fine).

    Transport-level outages shorter than ``reconnect`` seconds are
    ridden out with capped exponential backoff, so a network blip is
    invisible here.  A restarted server reconnects too, but it has
    forgotten the job, and the "unknown job" rejection — not
    retryable — surfaces as usual.
    """
    client.check_version()
    receipt = client.submit(specs, scale=scale, seed=seed)
    job_id = receipt.get("job")
    cursor = 0
    last_progress = time.monotonic()
    while True:
        try:
            batch = client.results_since(job_id, cursor)
        except DistributedUnavailable:
            batch = _retry_transport(
                lambda: client.results_since(job_id, cursor),
                window=reconnect,
            )
            # An outage is not a stalled fleet: the workers are on
            # their own reconnect backoff, so grant a fresh stall
            # window before declaring that nobody is serving.
            last_progress = time.monotonic()
        if batch.get("job") != job_id:
            # The job-scoped protocol should make this impossible; a
            # mismatch means the endpoint is not the server we
            # submitted to (a proxy, a restart with recycled state).
            raise DistributedError(
                f"results poll for job {job_id!r} answered for job "
                f"{batch.get('job')!r} — is {client.base_url} the "
                f"server this job was submitted to?"
            )
        if batch.get("failed"):
            raise DistributedError(
                f"dispatched job failed: {batch['failed']}"
            )
        results = batch.get("results", [])
        for index, payload in results:
            yield int(index), payload
            cursor += 1
        if batch.get("done"):
            return
        now = time.monotonic()
        if results:
            last_progress = now
        elif now - last_progress >= stall_timeout:
            if not _retry_transport(client.status,
                                    window=reconnect).get("leased"):
                raise DistributedError(
                    f"dispatched job stalled: no results and no leased "
                    f"tasks for {stall_timeout:.0f}s — is any 'repro "
                    f"worker --connect {client.base_url}' process "
                    f"running?"
                )
            last_progress = now
        time.sleep(poll)

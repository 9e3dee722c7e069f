"""The parallel experiment engine.

The :class:`Engine` turns lists of :class:`~repro.engine.spec.RunSpec` into
deterministic lists of :class:`~repro.engine.spec.RunResult`:

* **functional traces** (the expensive part — interpreting a workload and
  verifying it against its reference) are computed once per
  (workload, scale, seed) by :func:`_trace_job`, shared by every
  architecture model and every parameter sweep, and survive across
  processes in the content-addressed
  :class:`~repro.engine.cache.TraceCache`; every kernel is built from its
  trace payload by :func:`_kernel_from_payload`, in a worker or in
  :meth:`Engine.kernel`;
* **cycle results** are cached under the spec's priced identity (the
  parameters pricing reads + model + engine version), so re-running a
  report with a warm cache does no model evaluation either, and arch
  variants that price alike share their records;
* :meth:`Engine.stream` is the one pricing path: it yields ``(index,
  RunResult)`` pairs as results become available — cached specs first,
  then each spec the moment its own trace lands (with ``jobs > 1``,
  traces and model evaluations share one ``ProcessPoolExecutor``, the
  pool :meth:`Engine.prefetch_traces` also computes traces on) — and
  every input position is yielded exactly once;
* :meth:`Engine.execute` collects that stream in spec order, so
  parallel, serial and streamed runs are indistinguishable downstream.

:attr:`Engine.stats` counts what actually ran — ``traces_computed`` is the
number of workload functional simulations this engine performed; the
``repro bench --profile`` record and every shard export report those
counters.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.baselines.base import CycleResult, KernelInstance
from repro.engine.cache import TraceCache
from repro.engine.spec import RunResult, RunSpec, trace_cache_key
from repro.errors import ConfigurationError, EngineError
from repro.ir.trace import DynamicTrace
from repro.workloads import get_workload

#: (workload short name, scale, seed) — identity of one functional trace.
TraceKey = Tuple[str, str, int]


@dataclass
class EngineStats:
    """What one engine actually computed (``--profile``'s engine_stats)."""

    traces_computed: int = 0   # workload functional simulations performed
    trace_cache_hits: int = 0  # traces served from the on-disk cache
    simulations: int = 0       # architecture model evaluations performed
    sim_cache_hits: int = 0    # cycle results served from the cache
    sim_memo_hits: int = 0     # re-lookups served from this engine's memo

    def as_dict(self) -> Dict[str, int]:
        return {
            "traces_computed": self.traces_computed,
            "trace_cache_hits": self.trace_cache_hits,
            "simulations": self.simulations,
            "sim_cache_hits": self.sim_cache_hits,
            "sim_memo_hits": self.sim_memo_hits,
        }


# ----------------------------------------------------------------------
# Pool entry points (module-level: picklable under spawn too); the
# trace and kernel builders also run in process
# ----------------------------------------------------------------------
_WORKER_KERNELS: Dict[TraceKey, KernelInstance] = {}


def _init_worker(documents: Dict[str, dict]) -> None:
    """Admit external kernel documents in this (worker) process.

    ``get_workload`` resolves ``kernel:`` tokens against a process-wide
    registry; fork-started workers inherit the parent's, but spawn
    starts clean, so every pool initializer re-registers the documents
    its tasks will need.  No-op (and import-free) without kernels.
    """
    if not documents:
        return
    from repro.kernels.registry import register_documents

    register_documents(documents.values())


def _trace_job(key: TraceKey) -> Tuple[TraceKey, dict]:
    """Interpret one workload, verify it, return its trace payload.

    The engine's one trace computation, in a pool worker or in process;
    the interpreted instance is dropped with it.
    """
    short, scale, seed = key
    try:
        instance = get_workload(short).instance(scale, seed=seed)
        instance.check()
        return key, instance.run().trace.to_payload()
    except Exception as error:
        raise _trace_error(key, error) from error


def _kernel_from_payload(key: TraceKey, payload: dict) -> KernelInstance:
    """The engine's one kernel builder: a fresh CDFG plus the trace."""
    short, scale, _seed = key
    workload = get_workload(short)
    cdfg = workload.build(workload.sizes(scale))
    return KernelInstance(cdfg, DynamicTrace.from_payload(payload))


def _sim_chunk(specs: Sequence[RunSpec], trace_payload: dict) -> List[dict]:
    """Price a chunk of one trace's specs in a pool worker.

    Specs are submitted the moment their trace lands, so the payload
    rides along with the task.  One task carries a *chunk* of the
    trace's specs, so the payload is pickled at most once per worker, not
    once per parameter point, and the kernel instance it builds is
    memoised per worker.
    """
    results = []
    for spec in specs:
        try:
            key = spec.trace_key()
            kernel = _WORKER_KERNELS.get(key)
            if kernel is None:
                kernel = _kernel_from_payload(key, trace_payload)
                _WORKER_KERNELS[key] = kernel
            results.append(
                spec.model.build(spec.params).simulate(kernel).to_payload()
            )
        except Exception as error:
            raise _sim_error(spec, error) from error
    return results


def _parsed(parse: Callable[[object], object], payload: object):
    """``parse(payload)``, or None for a missing payload or one that
    ``parse`` rejects: a foreign record inside a well-formed envelope is
    a miss to recompute and overwrite, never a crash."""
    try:
        return None if payload is None else parse(payload)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _trace_error(key: TraceKey, error: BaseException) -> EngineError:
    if isinstance(error, EngineError):   # already named its spec
        return error
    short, scale, seed = key
    return EngineError(
        f"functional trace for workload={short!r} scale={scale!r} "
        f"seed={seed} failed: {error}"
    )


def _sim_error(spec: RunSpec, error: BaseException) -> EngineError:
    if isinstance(error, EngineError):   # already named its spec
        return error
    return EngineError(
        f"simulation of {spec.workload!r} @ {spec.scale!r} seed={spec.seed} "
        f"on model {spec.model.model!r} failed: {error}"
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class Engine:
    """Executes :class:`RunSpec` batches with caching and parallelism.

    ``cache_dir`` keeps the historical local-directory cache;
    ``backend`` attaches any ``CacheBackend`` instead (e.g. an
    ``HTTPBackend`` pointed at a ``repro serve`` cache server, which is
    how distributed workers share traces live).
    """

    def __init__(self, cache_dir=None, jobs: int = 1,
                 backend=None) -> None:
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        self.cache = TraceCache(cache_dir, backend=backend)
        self.stats = EngineStats()
        self._trace_payloads: Dict[TraceKey, dict] = {}
        self._kernels: Dict[TraceKey, KernelInstance] = {}
        self._cycles: Dict[RunSpec, CycleResult] = {}

    # -- traces ----------------------------------------------------------
    def _store_trace(self, key: TraceKey, payload: dict) -> None:
        self._trace_payloads[key] = payload
        self.cache.put(trace_cache_key(*key), payload)
        self.stats.traces_computed += 1

    def _lookup_trace(self, key: TraceKey) -> bool:
        """Pull one trace from the memo or cache; True when available."""
        if key in self._trace_payloads:
            return True
        # Admitted only if it parses: pool workers parse the payload too.
        payload = self.cache.get(trace_cache_key(*key))
        if _parsed(DynamicTrace.from_payload, payload) is None:
            return False
        self.stats.trace_cache_hits += 1
        self._trace_payloads[key] = payload
        return True

    @staticmethod
    def _kernel_documents(keys: Iterable[TraceKey]) -> Dict[str, dict]:
        """External kernel documents backing a set of trace keys.

        Spawn-started pool workers cannot resolve ``kernel:`` tokens
        unless their initializer re-registers the documents; this
        collects them (token -> canonical document) for the pool
        ``initargs``.  Empty (without importing repro.kernels) when the
        batch has no external kernels.
        """
        kernel_tokens = sorted({short for short, _scale, _seed in keys
                                if short.startswith("kernel:")})
        if not kernel_tokens:
            return {}
        from repro.kernels.registry import document_for

        return {token: document_for(token) for token in kernel_tokens}

    def _ensure_traces(self, keys: Set[TraceKey]) -> None:
        missing = [k for k in sorted(keys) if not self._lookup_trace(k)]
        if self.jobs > 1 and len(missing) > 1:
            # The pricing pool with no specs to price: traces only.
            for _pair in self._stream_parallel(
                    {key: [] for key in missing}, [], missing, {}):
                pass
        else:
            for key in missing:
                self._store_trace(*_trace_job(key))

    def kernel(self, workload: str, scale: str, seed: int
               ) -> KernelInstance:
        """One workload's kernel and verified trace (cached at every layer).

        ``workload`` is a spec's workload name, used verbatim like
        :meth:`RunSpec.trace_key`.  The kernel is built from the trace
        payload, exactly as a pool worker builds it, so a cold and a warm
        cache hand out the same kernel.
        """
        key = (workload, scale, seed)
        if key not in self._kernels:
            self._ensure_traces({key})
            self._kernels[key] = _kernel_from_payload(
                key, self._trace_payloads[key]
            )
        return self._kernels[key]

    # -- cycle results ---------------------------------------------------
    def _lookup_cycles(self, spec: RunSpec) -> Tuple[Optional[CycleResult],
                                                     bool]:
        """(cached result or None, whether it came from this engine's
        memo of ``spec`` rather than the cache, which also serves a
        record another spec with the same key wrote)."""
        cached = self._cycles.get(spec)
        if cached is not None:
            return cached, True
        cached = _parsed(CycleResult.from_payload,
                         self.cache.get(spec.cache_key()))
        if cached is not None:
            self._cycles[spec] = cached
        return cached, False

    def _store_cycles(self, spec: RunSpec, outcome: CycleResult) -> None:
        self._cycles[spec] = outcome
        self.cache.put(spec.cache_key(), outcome.to_payload())

    def execute(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run every spec; results come back in spec order.

        The spec-ordered view of :meth:`stream`, which does all pricing.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)
        for index, result in self.stream(specs):
            results[index] = result
        return results

    # -- streaming -------------------------------------------------------
    def stream(self, specs: Sequence[RunSpec]
               ) -> Iterator[Tuple[int, RunResult]]:
        """Yield ``(index, result)`` pairs as results become available.

        The engine's one pricing path; :meth:`execute` collects it in spec
        order.  Every input position is yielded exactly once (duplicates
        of one spec share a single simulation but each position still gets
        its pair); cached specs come first, in index order, then computed
        specs in completion order.  A spec is priced the moment its trace
        lands, so time-to-first-result is one trace plus one worker's
        chunk of model evaluations, not the whole batch.

        A failing worker raises :class:`~repro.errors.EngineError` naming
        the spec; records already completed are in the cache (writes are
        atomic and per-record), so a crashed stream never corrupts it.
        """
        pending: Dict[RunSpec, List[int]] = {}
        for index, spec in enumerate(specs):
            cached, from_memo = self._lookup_cycles(spec)
            if cached is not None:
                # Memo re-reads within this engine (run_all prefetches,
                # then each experiment looks its specs up again) are not
                # evidence of a warm cache — count them apart.
                if from_memo:
                    self.stats.sim_memo_hits += 1
                else:
                    self.stats.sim_cache_hits += 1
                yield index, RunResult(spec, cached, cached=True)
            else:
                pending.setdefault(spec, []).append(index)
        if not pending:
            return

        groups: Dict[TraceKey, List[RunSpec]] = {}
        for spec in pending:
            groups.setdefault(spec.trace_key(), []).append(spec)
        ready = [key for key in sorted(groups) if self._lookup_trace(key)]
        missing = [key for key in sorted(groups)
                   if key not in self._trace_payloads]

        if self.jobs > 1 and len(pending) > 1:
            yield from self._stream_parallel(groups, ready, missing, pending)
            return
        for key in ready + missing:
            if key not in self._trace_payloads:
                self._store_trace(*_trace_job(key))
            kernel = self.kernel(*key)
            for spec in groups[key]:
                try:
                    outcome = spec.model.build(spec.params).simulate(kernel)
                except Exception as error:
                    raise _sim_error(spec, error) from error
                self.stats.simulations += 1
                self._store_cycles(spec, outcome)
                for index in pending[spec]:
                    yield index, RunResult(spec, outcome, cached=False)

    def _stream_parallel(self, groups: Dict[TraceKey, List[RunSpec]],
                         ready: List[TraceKey], missing: List[TraceKey],
                         pending: Dict[RunSpec, List[int]]
                         ) -> Iterator[Tuple[int, RunResult]]:
        workers = min(self.jobs, len(pending) + len(missing))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(self._kernel_documents(groups),),
        ) as pool:
            trace_futures: Dict[object, TraceKey] = {}
            sim_futures: Dict[object, List[RunSpec]] = {}

            def submit_sims(key: TraceKey) -> List[object]:
                # Split the trace's specs over the workers: parallelism
                # is preserved, but the trace payload is pickled per
                # chunk, not per parameter point.
                payload = self._trace_payloads[key]
                specs = groups[key]
                size = max(1, -(-len(specs) // workers))
                submitted = []
                for start in range(0, len(specs), size):
                    chunk = specs[start:start + size]
                    future = pool.submit(_sim_chunk, chunk, payload)
                    sim_futures[future] = chunk
                    submitted.append(future)
                return submitted

            outstanding = set()
            for key in missing:
                future = pool.submit(_trace_job, key)
                trace_futures[future] = key
                outstanding.add(future)
            for key in ready:
                outstanding.update(submit_sims(key))

            try:
                while outstanding:
                    done, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        error = future.exception()
                        if future in trace_futures:
                            key = trace_futures[future]
                            if error is not None:
                                raise _trace_error(key, error) from error
                            _key, payload = future.result()
                            self._store_trace(key, payload)
                            outstanding.update(submit_sims(key))
                        else:
                            chunk = sim_futures[future]
                            if error is not None:
                                # Worker-side failures are already
                                # EngineErrors naming their spec;
                                # anything else (a broken pool) gets the
                                # chunk's first spec as context.
                                raise _sim_error(chunk[0], error) \
                                    from error
                            for spec, payload in zip(chunk,
                                                     future.result()):
                                outcome = CycleResult.from_payload(
                                    payload
                                )
                                self.stats.simulations += 1
                                self._store_cycles(spec, outcome)
                                for index in pending[spec]:
                                    yield index, RunResult(
                                        spec, outcome, cached=False
                                    )
            except BaseException:
                # Drop queued work so the pool tears down promptly; the
                # cache stays valid (completed records were written
                # atomically, nothing else was).
                for future in trace_futures:
                    future.cancel()
                for future in sim_futures:
                    future.cancel()
                raise

    # -- working-set completeness (shard exports) ------------------------
    def prefetch_traces(self, specs: Sequence[RunSpec]) -> None:
        """Pull every spec's trace into this engine's working set.

        A warm persistent cache satisfies cycle lookups without ever
        reading traces, so a shard export built from such a run would be
        missing the trace records the merged report reads.  Touching each
        distinct trace key here (cache hit, or compute — in parallel with
        ``jobs > 1`` — as a last resort) makes the export self-contained
        regardless of cache warmth.
        """
        self._ensure_traces({spec.trace_key() for spec in specs})

    def ensure_trace(self, workload: str, scale: str, seed: int) -> bool:
        """Make one functional trace resident; True when computed here.

        The distributed worker's trace-task entry point: a cache hit
        (memory or backend) returns False without interpreting
        anything; a miss computes, verifies, and writes the trace
        through to the cache backend, so with a shared backend every
        other worker sees it immediately.
        """
        # Verbatim, like RunSpec.trace_key() and every execute() cache
        # path: lower-casing here (only) would store a mixed-case
        # workload's trace under a key no sim task ever looks up.
        key = (str(workload), str(scale), int(seed))
        if self._lookup_trace(key):
            return False
        self._store_trace(*_trace_job(key))
        return True


# ----------------------------------------------------------------------
# Bench profiling (`repro bench --profile`)
# ----------------------------------------------------------------------
#: Schema tag carried by every profile document this build writes.
BENCH_PROFILE_SCHEMA = "repro.bench.profile/2"


class BenchProfiler:
    """Times a bench run's phases and emits the ``BENCH_*.json`` document.

    The perf trajectory's unit of record: wall-clock seconds plus the
    :class:`EngineStats` delta per phase, so a reader can tell a
    cold-trace run (``traces_computed > 0`` in the ``trace`` phase) from
    a warm-cache one (``trace_cache_hits`` / ``sim_cache_hits``) without
    comparing absolute times across machines.  The caller names the
    phases: ``repro bench --profile`` times ``trace``, ``simulate`` and
    ``assemble``, each one pass over the whole batch.  The document
    schema is specified in docs/ENGINE.md ("Performance"); bump
    :data:`BENCH_PROFILE_SCHEMA` when it changes.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.phases: List[Dict[str, object]] = []
        self._started = time.perf_counter()
        self.created = time.time()  # schema: unix time the run started

    def phase(self, name: str, fn: Callable[[], object], *,
              specs: Optional[int] = None) -> object:
        """Run ``fn`` as the named phase; returns its result."""
        before = self.engine.stats.as_dict()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        after = self.engine.stats.as_dict()
        record: Dict[str, object] = {
            "phase": name,
            "seconds": seconds,
            "stats_delta": {
                key: after[key] - before[key]
                for key in after if after[key] != before[key]
            },
        }
        if specs is not None:
            record["specs"] = specs
        self.phases.append(record)
        return result

    def document(self, *, scale: str, seed: int, jobs: int,
                 spec_count: int) -> Dict[str, object]:
        """The machine-readable profile (see docs/ENGINE.md for schema)."""
        from repro.engine.cache import ENGINE_VERSION

        return {
            "schema": BENCH_PROFILE_SCHEMA,
            "created": self.created,
            "engine_version": ENGINE_VERSION,
            "scale": scale,
            "seed": seed,
            "jobs": jobs,
            "spec_count": spec_count,
            "phases": self.phases,
            "total_seconds": time.perf_counter() - self._started,
            "engine_stats": self.engine.stats.as_dict(),
        }


# ----------------------------------------------------------------------
# Default engine (shared by experiments invoked without one)
# ----------------------------------------------------------------------
_DEFAULT: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine every experiment shares by default."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Engine()
    return _DEFAULT

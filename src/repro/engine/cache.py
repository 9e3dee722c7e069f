"""Content-addressed on-disk cache for traces and cycle results.

Every record is addressed by the SHA-256 of its canonical-JSON key — the
key spells out everything the record depends on (workload name, scale,
seed, architecture parameters, model identity, engine version), so a
change to any input lands on a different address and stale records are
simply never read again.  Records are JSON *envelopes*
``{"key": ..., "payload": ...}`` under ``<root>/<hh>/<hash>.json``
(two-level fan-out): the embedded key makes the store introspectable, so
:mod:`repro.engine.cache_admin` can report per-kind statistics and prune
by age, engine version, or size budget without guessing what a file is.
Writes go through a temp file + rename so concurrent worker processes can
share one directory.

Storage is pluggable: the directory store described above is the
:class:`~repro.engine.distributed.backend.LocalBackend`, one
implementation of the ``CacheBackend`` protocol (get/put/contains/
iter-keys over envelopes).  Passing ``backend=`` instead of a root —
e.g. an :class:`~repro.engine.distributed.backend.HTTPBackend` pointed
at a ``repro serve`` cache server — makes machines share records live;
the envelope validation here is backend-independent, so a corrupt or
foreign record is a miss regardless of where it came from.

The cache also keeps an in-memory layer (digest -> payload), making it
usable as the engine's process-local memo when no directory is
configured; :meth:`TraceCache.snapshot` / :meth:`TraceCache.preload`
expose that layer so shard exports can ship a run's working set to a
merge step on another machine.

Alongside the records, a persistent cache keeps an append-only run log
(``runs.jsonl``): one JSON line per engine run with its hit/miss
counters, which ``repro cache stats`` turns into per-run and aggregate
hit rates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

try:                              # POSIX-only; the lock degrades to a
    import fcntl                  # best-effort no-op elsewhere
except ImportError:               # pragma: no cover
    fcntl = None

from repro.arch.params import ArchParams
from repro.errors import ConfigurationError

#: Bump to invalidate every cached record (trace format or any execution
#: model changed in a result-affecting way).  v2: records became
#: ``{"key", "payload"}`` envelopes — v1 caches held raw payloads at the
#: same addresses, which the envelope check would silently treat as
#: misses; the bump moves every key to a fresh address and lets
#: ``repro cache prune --drop-stale-versions`` reclaim the old files.
#: v3: the architecture-description layer added ``control_topology`` to
#: every params token, so every cycle-record key changed shape; the bump
#: makes the orphaned v2 records reclaimable instead of invisible.
#: v4: a trace record holds the entry block and the edge table instead
#: of the per-step run list, so v3 trace records are never read.
ENGINE_VERSION = 4

#: Append-only per-run statistics log kept next to the records.
RUN_LOG_NAME = "runs.jsonl"

#: Compact the run log once it grows past this size...
RUN_LOG_MAX_BYTES = 1 << 20

#: ...keeping only this many newest records, so a long-lived shared
#: cache directory's log stays bounded (the records themselves are the
#: cache; the log is diagnostics).
RUN_LOG_KEEP = 256


def params_token(params: ArchParams) -> Dict[str, object]:
    """JSON-safe identity of an :class:`ArchParams` (cache key component)."""
    return dataclasses.asdict(params)


def fingerprint(key: Mapping[str, object]) -> str:
    """SHA-256 content address of a canonical-JSON key."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceCache:
    """Two-layer (memory + optional backend) content-addressed store.

    ``root`` keeps the historical constructor: a directory path backed
    by the atomic on-disk store.  ``backend`` accepts any
    ``CacheBackend`` (e.g. an HTTP client for a shared cache server);
    the two are mutually exclusive.  Run-log bookkeeping is a property
    of the *local directory* deployment — a remote backend's server owns
    its own directory — so it stays tied to ``root``.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 backend: Optional[object] = None) -> None:
        if root is not None and backend is not None:
            raise ConfigurationError(
                "TraceCache takes a directory root or a backend, not both"
            )
        self.root = Path(root) if root is not None else None
        if backend is None and self.root is not None:
            # Function-level import: repro.engine.cache is imported while
            # repro.engine.distributed initializes, and vice versa.
            from repro.engine.distributed.backend import LocalBackend
            backend = LocalBackend(self.root)
        self.backend = backend
        self._memory: Dict[str, object] = {}

    @property
    def persistent(self) -> bool:
        """Whether this cache is backed by a *local* directory (and so
        carries a run log and participates in size budgeting)."""
        return self.root is not None

    # ------------------------------------------------------------------
    def get(self, key: Mapping[str, object]) -> Optional[object]:
        """Stored payload for ``key``, or None."""
        digest = fingerprint(key)
        if digest in self._memory:
            return self._memory[digest]
        if self.backend is not None:
            record = self.backend.get(digest)
            # Only well-formed envelopes count; anything else (corrupt
            # file, foreign JSON) is a miss and gets recomputed.
            if isinstance(record, dict) and "payload" in record:
                payload = record["payload"]
                self._memory[digest] = payload
                return payload
        return None

    def put(self, key: Mapping[str, object], payload: object) -> None:
        """Store ``payload`` under ``key`` (write-through to the backend)."""
        digest = fingerprint(key)
        self._memory[digest] = payload
        if self.backend is not None:
            self.backend.put(digest, {"key": dict(key), "payload": payload})

    # -- working-set transfer (shard exports) --------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything this cache holds in memory, as digest -> payload.

        After an engine run this is exactly the run's working set: every
        trace and cycle record it computed *or* read.  A shard export is
        this dict plus identifying metadata.
        """
        return dict(self._memory)

    def preload(self, entries: Mapping[str, object]) -> None:
        """Seed the memory layer with digest -> payload entries.

        Content addressing does the matching: a later :meth:`get` whose
        key hashes to a preloaded digest is a memory hit, so a merge step
        can replay a report assembly without recomputing anything.
        """
        self._memory.update(entries)

    # -- per-run statistics log -----------------------------------------
    @property
    def run_log_path(self) -> Optional[Path]:
        return self.root / RUN_LOG_NAME if self.root is not None else None

    def record_run(self, record: Mapping[str, object]) -> None:
        """Append one run record to ``runs.jsonl`` (persistent only).

        The log self-compacts to its newest :data:`RUN_LOG_KEEP` records
        once it exceeds :data:`RUN_LOG_MAX_BYTES`, so it cannot become
        its own unbounded-growth footgun on a long-lived shared cache.
        """
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"time": time.time()}
        entry.update(record)
        with self._run_log_lock():
            with open(self.run_log_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            try:
                oversized = (self.run_log_path.stat().st_size
                             > RUN_LOG_MAX_BYTES)
            except OSError:
                return
            if oversized:
                self._compact_run_log()

    @contextlib.contextmanager
    def _run_log_lock(self) -> Iterator[None]:
        """Serialize run-log mutations across processes.

        Compaction replaces the file, so appends must not interleave with
        it — parallel shard lanes sharing one cache directory would lose
        records.  The lock lives on a side file that is never replaced
        (locking ``runs.jsonl`` itself would pin a stale inode).
        """
        if fcntl is None:
            yield
            return
        lock_path = self.root / (RUN_LOG_NAME + ".lock")
        with open(lock_path, "w", encoding="utf-8") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _compact_run_log(self) -> None:
        """Rewrite the run log keeping only the newest records (atomic)."""
        try:
            lines = self.run_log_path.read_text(
                encoding="utf-8"
            ).splitlines()
        except OSError:
            return
        kept = lines[-RUN_LOG_KEEP:]
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".jsonl"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in kept))
            os.replace(tmp, self.run_log_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def read_run_log(self) -> List[Dict[str, object]]:
        """Every recorded run, oldest first (malformed lines skipped)."""
        if self.root is None:
            return []
        try:
            lines = self.run_log_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        records = []
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

"""Content-addressed on-disk cache for traces and cycle results.

Every record is addressed by the SHA-256 of its canonical-JSON key — the
key spells out everything the record depends on (workload name, scale,
seed, the architecture parameters pricing reads, model identity, engine
version), so a change to any input lands on a different address and
stale records are simply never read again.  Records are JSON *envelopes*
``{"key": ..., "payload": ...}`` under ``<root>/<hh>/<hash>.json``
(two-level fan-out), so each record is self-describing.  Writes go
through a temp file + rename so concurrent worker processes can share
one directory.

The directory is disposable: any record can be recomputed from its key,
and deleting the directory reclaims the space.

Storage is pluggable: the directory store described above is
:class:`LocalBackend`, defined here so that a local cache loads nothing
of the distributed layer; it is one implementation of the
:class:`~repro.engine.distributed.backend.CacheBackend` protocol
(get/put/contains/iter-keys over envelopes), which
:mod:`repro.engine.distributed.backend` re-exports.  Passing
``backend=`` instead of a root — e.g. an
:class:`~repro.engine.distributed.backend.HTTPBackend` pointed at a
``repro serve`` cache server — makes machines share records live; the
envelope validation here is backend-independent, so a corrupt or
foreign record is a miss regardless of where it came from.

The cache also keeps an in-memory layer (digest -> payload), making it
usable as the engine's process-local memo when no directory is
configured; :meth:`TraceCache.snapshot` / :meth:`TraceCache.preload`
expose that layer so shard exports can ship a run's working set to a
merge step on another machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional

from repro.arch.params import ArchParams
from repro.errors import ConfigurationError

#: Bump to invalidate every cached record (trace format or any execution
#: model changed in a result-affecting way).  v2: records became
#: ``{"key", "payload"}`` envelopes — v1 caches held raw payloads at the
#: same addresses, which the envelope check would silently treat as
#: misses; the bump moves every key to a fresh address.
#: v3: the architecture-description layer added ``control_topology`` to
#: every params token, so every cycle-record key changed shape.
#: v4: a trace record holds the entry block and the edge table instead
#: of the per-step run list, so v3 trace records are never read.
#: v5: a model that pipelines outer loops keeps the serial schedule where
#: that is cheaper, so a kernel with a zero-trip outer loop prices lower.
ENGINE_VERSION = 5


def params_token(params: ArchParams) -> Dict[str, object]:
    """JSON-safe table of every :class:`ArchParams` field (wire payloads
    and shard exports; a cycle record's key holds only
    :attr:`ArchParams.pricing_inputs`)."""
    return dataclasses.asdict(params)


def fingerprint(key: Mapping[str, object]) -> str:
    """SHA-256 content address of a canonical-JSON key."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class LocalBackend:
    """The on-disk directory store: ``<root>/<hh>/<digest>.json``.

    Writes go through a temp file + rename so concurrent worker
    processes (and concurrent ``repro`` invocations) can share one
    directory; readers never observe a half-written record.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        try:
            with open(self._path(digest), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, digest: str, envelope: dict) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dump streams through the pure-Python encoder;
                # json.dumps runs the C one and writes the same bytes.
                handle.write(json.dumps(envelope))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def contains(self, digest: str) -> bool:
        return self._path(digest).is_file()

    def iter_keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            if not path.name.startswith(".tmp-"):
                yield path.stem

    def describe(self) -> str:
        return f"dir:{self.root}"


class TraceCache:
    """Two-layer (memory + optional backend) content-addressed store.

    ``root`` keeps the historical constructor: a directory path backed
    by the atomic on-disk store.  ``backend`` accepts any
    ``CacheBackend`` (e.g. an HTTP client for a shared cache server);
    the two are mutually exclusive.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 backend: Optional[object] = None) -> None:
        if root is not None and backend is not None:
            raise ConfigurationError(
                "TraceCache takes a directory root or a backend, not both"
            )
        if backend is None and root is not None:
            backend = LocalBackend(root)
        self.backend = backend
        self._memory: Dict[str, object] = {}

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

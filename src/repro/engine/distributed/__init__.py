"""Distributed execution: pluggable cache backends + work dispatch.

Three layers, one URL:

* :mod:`repro.engine.distributed.backend` — the ``CacheBackend``
  protocol behind :class:`~repro.engine.cache.TraceCache` (local
  directory, in-memory, and HTTP client);
* :mod:`repro.engine.distributed.coordinator` — the work-stealing
  dispatcher: one job slot, under a server-issued id, whose lease/ack
  protocol grants batched leases, requeues crashed workers' tasks, and
  delivers the job's results exactly once;
* :mod:`repro.engine.distributed.server` — ``repro serve``: one stdlib
  HTTP server exposing the cache backend and the coordinator;
* :mod:`repro.engine.distributed.worker` — ``repro worker`` pull loops
  and the ``repro bench --dispatch`` client.

Only the backend and coordinator layers are re-exported here.
``LocalBackend`` is defined in :mod:`repro.engine.cache`, so a local
cache loads none of this package.  Import ``server`` and ``worker``
explicitly — they depend on the fully-initialized engine package.

See ``docs/DISTRIBUTED.md`` for the serve/worker/dispatch walkthrough
and the failure semantics.
"""

from repro.engine.distributed.backend import (
    CacheBackend,
    HTTPBackend,
    LocalBackend,
    MemoryBackend,
)
from repro.engine.distributed.coordinator import (
    Coordinator,
    DEFAULT_LEASE_TIMEOUT,
)

__all__ = [
    "CacheBackend",
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT",
    "HTTPBackend",
    "LocalBackend",
    "MemoryBackend",
]

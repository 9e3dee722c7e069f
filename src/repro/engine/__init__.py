"""The parallel experiment engine.

Layers (bottom up):

* :mod:`repro.engine.spec` — declarative :class:`RunSpec`/:class:`ModelSpec`
  enumeration of the (workload, scale, seed, model, params) space, spec
  fingerprints, and fingerprint-prefix sharding;
* :mod:`repro.engine.cache` — content-addressed on-disk cache for
  functional traces and cycle results;
* :mod:`repro.engine.executor` — the :class:`Engine`: batch execution
  (:meth:`Engine.execute`) and streaming execution (:meth:`Engine.stream`)
  with multiprocessing, deterministic result ordering, and run statistics;
* :mod:`repro.engine.export` — JSON/CSV report exports and shard
  export/merge documents;
* :mod:`repro.engine.distributed` — the multi-machine layer: pluggable
  cache backends (local / memory / HTTP), the ``repro serve`` cache
  server + work-stealing coordinator, and the ``repro worker`` /
  ``repro bench --dispatch`` loops.  Import it explicitly: importing
  this package does not load it (nor ``http.client``).

See ``docs/ENGINE.md`` for the cache layout and the CLI surface, and
``docs/DISTRIBUTED.md`` for the multi-machine subsystem.
"""

from repro.engine.cache import ENGINE_VERSION, TraceCache, fingerprint
from repro.engine.executor import (
    BENCH_PROFILE_SCHEMA,
    BenchProfiler,
    Engine,
    EngineStats,
    default_engine,
)
from repro.engine.export import (
    backend_export_document,
    merge_shard_documents,
    read_shard_export,
    report_csv,
    report_json,
    result_payload,
    shard_export_document,
)
from repro.engine.spec import (
    MODEL_REGISTRY,
    ModelSpec,
    RunResult,
    RunSpec,
    parse_shard,
    shard_of,
    shard_specs,
)

__all__ = [
    "BENCH_PROFILE_SCHEMA",
    "BenchProfiler",
    "ENGINE_VERSION",
    "Engine",
    "EngineStats",
    "MODEL_REGISTRY",
    "ModelSpec",
    "RunResult",
    "RunSpec",
    "TraceCache",
    "backend_export_document",
    "default_engine",
    "fingerprint",
    "merge_shard_documents",
    "parse_shard",
    "read_shard_export",
    "report_csv",
    "report_json",
    "result_payload",
    "shard_export_document",
    "shard_of",
    "shard_specs",
]

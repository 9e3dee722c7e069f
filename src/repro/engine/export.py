"""Machine-readable experiment exports (JSON / CSV), and shard exports.

The ASCII tables of :class:`~repro.experiments.common.ExperimentResult`
are for reading; these exporters are for diffing and post-processing —
the golden-result regression tests snapshot the JSON form.  The report
documents carry only *content* (scale, seed, experiment payloads), never
run-environment facts like job counts or cache-hit counters, so batch,
streamed, warm-cache, and shard-merged invocations of ``repro bench``
emit byte-identical output (engine statistics live in the ``--profile``
record and in each shard export).

A **shard export** is one ``repro bench --shard K/N`` run's working set
— every content-addressed record the run computed or read, digest ->
payload — plus identifying metadata.  :func:`merge_shard_documents`
validates that a set of exports belongs together (same scale, seed,
engine version; shard indices covering ``1..N``) and unions the
entries; preloading that union into a fresh engine's cache replays the
canonical report assembly without recomputing anything.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine import cache as _cache
from repro.errors import EngineError

#: Shard export file format marker / version.
SHARD_FORMAT = "repro-shard-export"
SHARD_FORMAT_VERSION = 1


def _plain(value: object) -> object:
    """Coerce numpy scalars/arrays so payloads are pure-JSON types."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def result_payload(result) -> Dict[str, object]:
    """One :class:`ExperimentResult` as a JSON-safe dict."""
    return {
        "experiment": result.experiment,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [_plain(row) for row in result.rows],
        "summary": _plain(result.summary),
        "paper_claim": result.paper_claim,
        "notes": list(result.notes),
    }


def report_json(results: Sequence, *,
                meta: Optional[Dict[str, object]] = None,
                indent: int = 2) -> str:
    """A whole report as one JSON document."""
    document: Dict[str, object] = {}
    if meta:
        document.update(_plain(meta))
    document["experiments"] = [result_payload(r) for r in results]
    return json.dumps(document, indent=indent, sort_keys=False)


def shard_export_document(engine, *, scale: str, seed: int,
                          shard: Optional[Tuple[int, int]] = None,
                          params=None, arch: Optional[str] = None,
                          kernels: Optional[Sequence] = None
                          ) -> Dict[str, object]:
    """One engine run's working set as a mergeable shard export.

    ``params`` (an :class:`~repro.arch.params.ArchParams`, or None for
    the default architecture) and ``arch`` (the variant name from an
    ``--arch`` description, if any) record which architecture the shard
    priced — the merge step re-derives the spec batch from the exports,
    so shards of different arch variants cannot be silently mixed.

    ``kernels`` (a sequence of loaded
    :class:`~repro.kernels.package.KernelPackage`) records which
    external kernel suite, if any, extended the shard's spec batch —
    as full canonical documents, so a merged export is self-contained:
    the merge step re-registers them without the original package
    directories on disk.
    """
    document = {
        "format": SHARD_FORMAT,
        "format_version": SHARD_FORMAT_VERSION,
        "engine_version": _cache.ENGINE_VERSION,
        "scale": scale,
        "seed": seed,
        "shard": list(shard) if shard is not None else None,
        "params": (_cache.params_token(params)
                   if params is not None else None),
        "arch": arch,
        "stats": engine.stats.as_dict(),
        "entries": engine.cache.snapshot(),
    }
    if kernels:
        document["kernels"] = [package.to_document()
                               for package in kernels]
    return document


def backend_export_document(backend, *, scale: str,
                            seed: int) -> Dict[str, object]:
    """A cache backend's whole store as a mergeable shard export.

    The bridge from the live distributed subsystem back to the
    file-based one: ``GET /export`` on a ``repro serve`` server renders
    its store through this, and the resulting document goes straight
    into ``repro bench --merge-shards`` — a worker fleet's working set
    can be archived and replayed offline like any shard export.
    Entries that are not well-formed envelopes are skipped, matching
    ``TraceCache``'s read-side validation.
    """
    entries: Dict[str, object] = {}
    for digest in backend.iter_keys():
        record = backend.get(digest)
        if isinstance(record, dict) and "payload" in record:
            entries[digest] = record["payload"]
    return {
        "format": SHARD_FORMAT,
        "format_version": SHARD_FORMAT_VERSION,
        "engine_version": _cache.ENGINE_VERSION,
        "scale": str(scale),
        "seed": int(seed),
        "shard": None,
        # A server's store may hold records from many jobs and arch
        # variants; no single params record applies, so the merge step
        # assembles with the architecture the driver asks for.
        "params": None,
        "arch": None,
        "entries": entries,
    }


def read_shard_export(path) -> Dict[str, object]:
    """Load + validate one shard export file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise EngineError(f"unreadable shard export {path}: {error}") \
            from error
    if not isinstance(document, dict) \
            or document.get("format") != SHARD_FORMAT:
        raise EngineError(f"{path} is not a repro shard export")
    if document.get("format_version") != SHARD_FORMAT_VERSION:
        raise EngineError(
            f"{path}: shard export format version "
            f"{document.get('format_version')!r} not supported "
            f"(expected {SHARD_FORMAT_VERSION})"
        )
    if document.get("engine_version") != _cache.ENGINE_VERSION:
        raise EngineError(
            f"{path}: recorded with engine version "
            f"{document.get('engine_version')!r}, this build is "
            f"{_cache.ENGINE_VERSION} — re-run the shards"
        )
    missing = [name for name in ("scale", "seed", "entries")
               if name not in document]
    problem = None
    if missing:
        problem = f"missing {', '.join(missing)}"
    elif not isinstance(document["entries"], dict):
        problem = "entries is not a digest -> payload table"
    elif not isinstance(document["scale"], str) \
            or not isinstance(document["seed"], int):
        problem = "scale/seed are not a string/integer"
    elif document.get("shard") is not None and not (
            isinstance(document["shard"], list)
            and len(document["shard"]) == 2
            and all(isinstance(v, int) for v in document["shard"])):
        problem = f"shard coordinates {document.get('shard')!r} are " \
                  f"not a [K, N] pair"
    elif document.get("params") is not None \
            and not isinstance(document["params"], dict):
        problem = "params is not an architecture-parameter table"
    elif document.get("kernels") is not None and not (
            isinstance(document["kernels"], list)
            and all(isinstance(k, dict) for k in document["kernels"])):
        problem = "kernels is not a list of kernel documents"
    if problem is not None:
        raise EngineError(f"{path}: malformed shard export — {problem}")
    return document


def merge_shard_documents(documents: Sequence[Dict[str, object]]
                          ) -> Dict[str, object]:
    """Union a consistent, complete set of shard exports.

    Entries are content-addressed, so the union is conflict-free by
    construction; what can go wrong is humans mixing files, which is
    what the validation targets: every export must share one
    (scale, seed), and when shard coordinates are present they must use
    one shard count and cover every index ``1..N`` exactly once.
    """
    if not documents:
        raise EngineError("no shard exports to merge")
    scale_seed = {(doc["scale"], doc["seed"]) for doc in documents}
    if len(scale_seed) != 1:
        raise EngineError(
            f"shard exports disagree on (scale, seed): "
            f"{sorted(scale_seed)}"
        )
    # Shards of two arch variants partition two *different* spec
    # batches; a union of them is neither report.  Exports without a
    # params record (e.g. a server-side backend export) merge as the
    # default architecture.
    tokens = {json.dumps(doc.get("params"), sort_keys=True)
              for doc in documents if doc.get("params") is not None}
    if len(tokens) > 1:
        raise EngineError(
            "shard exports disagree on architecture parameters — "
            "merge one arch variant at a time"
        )
    params_token = (json.loads(tokens.pop()) if tokens else None)
    # Same argument as params: shards that priced different external
    # kernel suites partition different spec batches.  Kernel documents
    # are canonical JSON, so agreement is a string comparison.
    kernel_sets = {json.dumps(doc["kernels"], sort_keys=True)
                   for doc in documents if doc.get("kernels") is not None}
    if len(kernel_sets) > 1:
        raise EngineError(
            "shard exports disagree on external kernel suites — "
            "merge one kernel suite at a time"
        )
    kernels = json.loads(kernel_sets.pop()) if kernel_sets else None
    arch_names = {doc.get("arch") for doc in documents
                  if doc.get("arch") is not None}
    shards = [tuple(doc["shard"]) for doc in documents
              if doc.get("shard") is not None]
    if shards:
        counts = {count for _index, count in shards}
        if len(counts) != 1:
            raise EngineError(
                f"shard exports disagree on shard count: {sorted(counts)}"
            )
        count = counts.pop()
        indices = sorted(index for index, _count in shards)
        if indices != list(range(1, count + 1)):
            raise EngineError(
                f"shard exports cover shards {indices} of {count} — "
                f"need each of 1..{count} exactly once"
            )
    entries: Dict[str, object] = {}
    for document in documents:
        entries.update(document["entries"])
    (scale, seed), = scale_seed
    return {"scale": scale, "seed": seed, "shards": shards,
            "params": params_token,
            "arch": arch_names.pop() if len(arch_names) == 1 else None,
            "kernels": kernels,
            "entries": entries}


def report_csv(results: Sequence) -> str:
    """A whole report as CSV, one header+rows section per experiment."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for result in results:
        # Section headers are comment lines, not CSV records — write them
        # raw so a comma in a title does not get quoted.
        buffer.write(f"# {result.experiment}: {result.title}\n")
        writer.writerow(["experiment"] + list(result.columns))
        for row in result.rows:
            writer.writerow(
                [result.experiment]
                + [_plain(row.get(c, "")) for c in result.columns]
            )
        if result.summary:
            # Summaries carry different fields than the data rows, so
            # they form their own mini-section with a matching header.
            buffer.write(f"# {result.experiment}: summary\n")
            writer.writerow(["experiment", "summary_key", "summary_value"])
            for key, value in result.summary.items():
                writer.writerow([result.experiment, key, _plain(value)])
        writer.writerow([])
    return buffer.getvalue()

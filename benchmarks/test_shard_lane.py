"""Sharded CI lane example: the report's specs split across two shards.

This is the recipe docs/ENGINE.md documents for CI: each lane runs one
fingerprint-prefix shard of a sweep against a shared content-addressed
cache and exports its working set; a final (cheap) merge lane reassembles
the exports and re-derives the tables without recomputing anything.  The
merged tables must be byte-identical to the unsharded golden run.
"""

from __future__ import annotations

import json

from repro.engine import (
    Engine,
    merge_shard_documents,
    result_payload,
    shard_export_document,
    shard_specs,
)
from repro.experiments import report

SEED = 0
SHARDS = 2


def test_sharded_report_matches_unsharded_golden(scale, tmp_path):
    specs = report.all_specs(scale, SEED)

    # The golden reference: one unsharded engine, as `repro bench` runs it.
    golden = [
        result_payload(result)
        for result in report.run_all(scale, SEED, engine=Engine(jobs=2))
    ]

    # Two shard lanes, as two CI jobs would run them: disjoint spec
    # subsets, one shared cache directory, one export each.
    documents = []
    for index in range(1, SHARDS + 1):
        lane = Engine(cache_dir=tmp_path / "cache", jobs=2)
        lane.execute(shard_specs(specs, index, SHARDS))
        documents.append(shard_export_document(
            lane, scale=scale, seed=SEED, shard=(index, SHARDS)
        ))

    # The merge lane: preload the union, re-derive the tables.
    merged = merge_shard_documents(documents)
    merge_engine = Engine()
    merge_engine.cache.preload(merged["entries"])
    results = report.run_all(scale, SEED, engine=merge_engine)

    # Reassembly is pure cache replay...
    assert merge_engine.stats.traces_computed == 0
    assert merge_engine.stats.simulations == 0
    # ...and byte-identical to the golden run.
    payloads = [result_payload(result) for result in results]
    assert json.dumps(payloads, sort_keys=True) \
        == json.dumps(golden, sort_keys=True)

    for result in results:
        print(result.to_table())
        print()

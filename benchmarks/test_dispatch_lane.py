"""Dispatched CI lane example: the report's specs on a worker fleet.

This is the dynamic counterpart of ``test_shard_lane.py``: instead of a
static fingerprint-prefix partition, a localhost ``repro serve``
coordinator hands the report's specs to worker *processes* that
pull work as they go idle (two tasks per lease round trip, acks
piggybacked on the next lease) and share every trace and cycle record
through the HTTP cache backend.  The assembled tables must be
byte-identical to the unsharded golden run, every functional trace must
be computed exactly once across the fleet, and — when the host actually
has the cores for it — two workers must beat one on wall clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine import Engine, result_payload
from repro.engine.distributed import Coordinator, HTTPBackend, MemoryBackend
from repro.engine.distributed.server import DistributedServer
from repro.engine.distributed.worker import CoordinatorClient, dispatch_job
from repro.experiments import report

SEED = 0
SRC_DIR = str(Path(repro.__file__).parents[1])


def _spawn_worker(url: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", url,
         "--poll", "0.05", "--max-idle", "300", "--lease-batch", "2"],
        env=env, stderr=subprocess.DEVNULL,
    )


def _fleet_run(specs, n_workers: int):
    """One cold dispatched run: elapsed seconds, tables, fleet stats."""
    server = DistributedServer(MemoryBackend(), Coordinator()).start()
    client = CoordinatorClient(server.url)
    workers = [_spawn_worker(server.url) for _ in range(n_workers)]
    try:
        start = time.perf_counter()
        landed = list(dispatch_job(
            client, [spec.to_payload() for spec in specs],
            scale=specs[0].scale, seed=SEED, poll=0.05,
        ))
        elapsed = time.perf_counter() - start
        stats = client.status()["stats"]
        # Assemble the tables exactly as `repro bench --dispatch` does:
        # a local replay against the fleet's shared cache.
        replay = Engine(backend=HTTPBackend(server.url))
        results = report.run_all(specs[0].scale, SEED, engine=replay)
        assert replay.stats.simulations == 0       # pure cache replay
        assert replay.stats.traces_computed == 0
    finally:
        client.shutdown()
        for worker in workers:
            worker.wait(timeout=30)
        server.stop()
    assert len(landed) == len(specs)
    return elapsed, results, stats


def test_dispatch_lane_matches_golden_and_scales(scale):
    specs = report.all_specs(scale, SEED)
    golden = [
        result_payload(result)
        for result in report.run_all(scale, SEED, engine=Engine(jobs=2))
    ]

    one_worker, results_one, stats_one = _fleet_run(specs, 1)
    two_workers, results_two, stats_two = _fleet_run(specs, 2)

    # Byte-identical to the unsharded golden run, for both fleet sizes.
    for results in (results_one, results_two):
        payloads = [result_payload(result) for result in results]
        assert json.dumps(payloads, sort_keys=True) \
            == json.dumps(golden, sort_keys=True)

    # Every functional trace computed exactly once across the fleet.
    distinct_traces = len({spec.trace_key() for spec in specs})
    for stats in (stats_one, stats_two):
        assert stats["traces_computed"] == distinct_traces
        assert stats["requeues"] == 0

    for result in results_two:
        print(result.to_table())
        print()
    print(f"1 worker: {one_worker:.2f}s, 2 workers: {two_workers:.2f}s")

    # Work stealing only buys wall clock when there is hardware to
    # steal onto; on a single-core host the claim is untestable, and on
    # exactly two cores the worker subprocesses contend with the server
    # and the test runner, so the comparison is noise.
    if (os.cpu_count() or 1) < 3:
        pytest.skip("speedup assertion needs >= 3 CPUs")
    assert two_workers < 0.9 * one_worker, (
        f"2-worker dispatch ({two_workers:.2f}s) did not beat 1 worker "
        f"({one_worker:.2f}s) by the 10% margin at scale {scale!r}"
    )


"""Benchmark harness configuration.

Each benchmark regenerates one paper table/figure at the ``small`` workload
scale (set ``REPRO_BENCH_SCALE=paper`` for Table 5 sizes; expect minutes).
The first benchmark to touch a workload pays its functional-interpretation
cost; the shared experiment engine caches the traces so subsequent figures
measure model evaluation, as the paper's own toolflow does (one simulation,
many analyses).

Registered engine benchmarks:

* ``test_engine_speedup.py`` — asserts the warm-cache (+parallel) report
  run beats the serial seed path, using the session-scoped
  ``engine_cache_dir`` below as its on-disk cache;
* ``test_shard_lane.py`` — the sharded CI lane example: the report's
  specs split ``--shard 1/2`` / ``2/2`` against one shared cache,
  exports merged and checked byte-identical against the unsharded
  golden run;
* ``test_dispatch_lane.py`` — the dispatched CI lane example: a
  localhost ``repro serve`` coordinator + worker processes pulling the
  report's specs dynamically over the HTTP cache backend, checked
  byte-identical against the unsharded golden run (plus a 2-worker
  speedup assertion on multi-core hosts);
* ``test_streaming_latency.py`` — asserts that on a cold engine the
  stream's time-to-first-result beats ``Engine.execute``'s
  time-to-completion on the same batch.

Every benchmark prints its figure/table rows, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the full evaluation.
"""

import os

import pytest


SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def scale() -> str:
    return SCALE


@pytest.fixture(scope="session")
def engine_cache_dir(tmp_path_factory):
    """A session-lived on-disk cache directory for engine benchmarks."""
    return tmp_path_factory.mktemp("engine-cache")


@pytest.fixture(scope="session", autouse=True)
def warm_suite(scale):
    """Run every workload once up front so benchmarks time the experiment
    logic, not first-touch trace construction."""
    from repro.engine.executor import default_engine
    from repro.workloads import ALL_WORKLOADS

    engine = default_engine()
    for workload in ALL_WORKLOADS:
        engine.kernel(workload.short.lower(), scale, 0)
    return engine

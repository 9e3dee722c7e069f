"""Streaming latency benchmark: first result before the batch would end.

``Engine.execute`` returns once every spec of the batch is priced;
``Engine.stream``, the pricing path underneath it, yields each spec the
moment its trace lands and a worker prices it.  The contract worth
asserting is the user-visible one: on a cold engine, the stream's
time-to-first-result beats ``execute``'s time-to-completion — a sweep
starts reporting while an equivalent batch run would still be silent.
"""

from __future__ import annotations

import time

from repro.engine import Engine
from repro.experiments import report

SEED = 0


def test_stream_first_result_beats_batch_completion(scale):
    specs = report.all_specs(scale, SEED)

    batch = Engine(jobs=2)
    start = time.perf_counter()
    results = batch.execute(specs)
    batch_elapsed = time.perf_counter() - start
    assert len(results) == len(specs)

    streamer = Engine(jobs=2)
    start = time.perf_counter()
    stream = streamer.stream(specs)
    first_index, first_result = next(stream)
    first_elapsed = time.perf_counter() - start
    remaining = list(stream)

    print(f"time-to-first-result {first_elapsed:.3f}s "
          f"(spec {first_index}: {first_result.spec.workload}, "
          f"{first_result.cycles} cycles) vs "
          f"batch completion {batch_elapsed:.3f}s")

    assert len(remaining) + 1 == len(specs)
    assert not first_result.cached          # a genuinely computed result
    assert first_elapsed < batch_elapsed, (
        f"streaming first result ({first_elapsed:.3f}s) did not beat "
        f"batch completion ({batch_elapsed:.3f}s) at scale {scale!r}"
    )

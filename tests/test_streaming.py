"""Streaming-mode tests: exactly-once delivery, batch equivalence,
and the crash-mid-stream failure path.

``Engine.stream`` changes *when* results surface, never *what* they
are: every input position must be yielded exactly once, collecting the
pairs must reproduce ``Engine.execute``'s payloads, and the rendered
report must be byte-identical to batch mode.  A worker crash must
surface as one clean :class:`EngineError` and leave the on-disk cache
fully readable.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.params import DEFAULT_PARAMS
from repro.cli import main
from repro.engine import Engine, ModelSpec, RunSpec
from repro.errors import EngineError

VN = ModelSpec.make("von_neumann")
MARIONETTE = ModelSpec.make("marionette")
EXAMPLE_KERNELS = Path(__file__).parents[1] / "examples" / "kernels"


def _specs(scale: str = "tiny"):
    return [
        RunSpec(name, scale, 0, model, DEFAULT_PARAMS)
        for name in ("gemm", "crc", "fft")
        for model in (VN, MARIONETTE)
    ]


class TestExactlyOnce:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_every_position_yielded_exactly_once(self, jobs):
        specs = _specs()
        pairs = list(Engine(jobs=jobs).stream(specs))
        indices = [index for index, _result in pairs]
        assert sorted(indices) == list(range(len(specs)))
        for index, run_result in pairs:
            assert run_result.spec == specs[index]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_duplicate_specs_share_one_simulation(self, jobs):
        spec = _specs()[0]
        engine = Engine(jobs=jobs)
        pairs = list(engine.stream([spec, spec, spec]))
        assert sorted(index for index, _r in pairs) == [0, 1, 2]
        assert engine.stats.simulations == 1
        assert len({run_result.cycles for _i, run_result in pairs}) == 1

    def test_cached_results_stream_first_in_index_order(self, tmp_path):
        specs = _specs()
        Engine(cache_dir=tmp_path).execute(specs)
        warm = Engine(cache_dir=tmp_path)
        pairs = list(warm.stream(specs))
        assert [index for index, _r in pairs] == list(range(len(specs)))
        assert all(run_result.cached for _i, run_result in pairs)
        assert warm.stats.simulations == 0


class TestBatchEquivalence:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_streamed_payloads_equal_batch_payloads(self, jobs):
        specs = _specs()
        batch = Engine(jobs=1).execute(specs)
        streamed = dict(Engine(jobs=jobs).stream(specs))
        assert [streamed[i].result.to_payload() for i in range(len(specs))] \
            == [r.result.to_payload() for r in batch]

    def test_streaming_cli_report_is_byte_identical(self, capsys):
        assert main(["bench", "--scale", "tiny"]) == 0
        batch = capsys.readouterr()
        assert main(["bench", "--scale", "tiny", "--stream",
                     "--jobs", "2"]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == batch.out
        # Progress goes to stderr only: one line per spec, cycles shown.
        lines = [line for line in streamed.err.splitlines()
                 if line.startswith("[")]
        assert len(lines) > 0 and "cycles" in lines[0]

    def test_streaming_populates_the_shared_cache(self, tmp_path):
        specs = _specs()
        streamer = Engine(cache_dir=tmp_path, jobs=2)
        list(streamer.stream(specs))
        warm = Engine(cache_dir=tmp_path)
        warm.execute(specs)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations == 0


class TestIncrementalAssembly:
    """``assemble`` builds each section the moment its last spec lands,
    without changing what the report contains."""

    def test_assembled_results_equal_each_section_run_directly(self):
        from repro.engine import result_payload
        from repro.experiments.report import (
            EXPERIMENT_MODULES,
            all_specs,
            assemble,
        )
        from repro.kernels import load_kernel_suite
        from repro.kernels.bench import run_section

        kernels = tuple(package for _path, package
                        in load_kernel_suite(EXAMPLE_KERNELS))
        # The reference prices each section on its own, with neither
        # the batch nor the assembler in the way.
        reference = Engine()
        expected = [module.run("tiny", 0, DEFAULT_PARAMS, reference)
                     for module in EXPERIMENT_MODULES]
        expected.append(run_section(kernels, 0, DEFAULT_PARAMS,
                                    engine=reference))
        # Two workers land the pairs in completion order.
        engine = Engine(jobs=2)
        specs = all_specs("tiny", 0, DEFAULT_PARAMS, kernels)
        assembled = assemble(engine.stream(specs), "tiny", 0, engine,
                             DEFAULT_PARAMS, kernels)
        assert [result_payload(r) for r in assembled] \
            == [result_payload(r) for r in expected]

    def test_first_experiment_emits_before_the_stream_ends(self):
        from repro.experiments.report import all_specs, assemble

        engine = Engine()
        specs = all_specs("tiny", 0)
        engine.execute(specs)                     # warm the memo
        consumed = {"pairs": 0}

        def counting_pairs():
            for pair in engine.stream(specs):
                consumed["pairs"] += 1
                yield pair

        assembled = assemble(counting_pairs(), "tiny", 0, engine)
        first = next(assembled)
        # The first table surfaced with most of the sweep still
        # unstreamed — assembly is incremental, not end-of-batch.
        assert first.experiment
        assert 0 < consumed["pairs"] < len(specs)
        list(assembled)                           # drain: no errors later

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_cli_emits_tables_incrementally_yet_identically(
            self, capsys, fmt):
        # Covered byte-for-byte by TestBatchEquivalence; this pins the
        # satellite behaviour explicitly for the csv/json forms too.
        assert main(["bench", "--scale", "tiny", "--format", fmt]) == 0
        batch = capsys.readouterr()
        assert main(["bench", "--scale", "tiny", "--format", fmt,
                     "--stream"]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == batch.out


class TestCrashMidStream:
    """A worker raising mid-stream fails cleanly and atomically."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_unknown_workload_raises_engine_error(self, jobs, tmp_path):
        good = _specs()
        bad = RunSpec("no_such_kernel", "tiny", 0, VN, DEFAULT_PARAMS)
        engine = Engine(cache_dir=tmp_path, jobs=jobs)
        with pytest.raises(EngineError, match="no_such_kernel"):
            list(engine.stream(good + [bad]))

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_batch_mode_raises_the_same_engine_error(self, jobs, tmp_path):
        # execute() shares stream()'s failure contract: a clean
        # EngineError naming the spec, serial or parallel.
        good = _specs()
        bad = RunSpec("no_such_kernel", "tiny", 0, VN, DEFAULT_PARAMS)
        engine = Engine(cache_dir=tmp_path, jobs=jobs)
        with pytest.raises(EngineError, match="no_such_kernel"):
            engine.execute(good + [bad])

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_cache_survives_a_crashed_stream(self, jobs, tmp_path):
        good = _specs()
        Engine(cache_dir=tmp_path).execute(good)   # warm the good records
        before = {path.stem for path in tmp_path.glob("??/*.json")}

        bad = RunSpec("no_such_kernel", "tiny", 0, VN, DEFAULT_PARAMS)
        with pytest.raises(EngineError):
            list(Engine(cache_dir=tmp_path, jobs=jobs).stream(good + [bad]))

        # No record was lost, truncated, or half-written...
        records = list(tmp_path.glob("??/*.json"))
        assert {path.stem for path in records} >= before
        for path in records:
            record = json.loads(path.read_text(encoding="utf-8"))
            assert set(record) == {"key", "payload"}
        assert not list(tmp_path.glob("??/.tmp-*"))
        # ...and a fresh engine still serves everything from the cache.
        fresh = Engine(cache_dir=tmp_path)
        results = fresh.execute(good)
        assert all(run_result.cached for run_result in results)
        assert fresh.stats.traces_computed == 0
        assert fresh.stats.simulations == 0

    def test_partial_results_were_still_delivered(self, tmp_path):
        """Results streamed before the crash are real and cached."""
        good = _specs()[:2]
        bad = RunSpec("no_such_kernel", "tiny", 0, VN, DEFAULT_PARAMS)
        engine = Engine(cache_dir=tmp_path)
        delivered = []
        with pytest.raises(EngineError):
            for index, run_result in engine.stream(good + [bad]):
                delivered.append((index, run_result))
        assert [index for index, _r in delivered] == [0, 1]
        assert all(not r.cached for _i, r in delivered)

"""Unit tests for the parallel experiment engine.

Covers the cache layers (hit/miss accounting, on-disk persistence,
invalidation on parameter change), serial-vs-parallel result equality,
deterministic result ordering, and the declarative spec layer.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.arch.spec import load_arch_sweep
from repro.engine import (
    Engine,
    ModelSpec,
    RunSpec,
    TraceCache,
    fingerprint,
    result_payload,
)
from repro.engine.spec import trace_cache_key
from repro.errors import ConfigurationError
from repro.experiments.report import run_all

VN = ModelSpec.make("von_neumann")
MARIONETTE = ModelSpec.make("marionette")
MARIONETTE_PE = ModelSpec.make(
    "marionette", label="Marionette PE", control_network=False, agile=False
)


ARCH_DIR = Path(__file__).resolve().parents[1] / "examples" / "arch"


def _specs(params: ArchParams = DEFAULT_PARAMS, scale: str = "tiny"):
    return [
        RunSpec(name, scale, 0, model, params)
        for name in ("gemm", "crc")
        for model in (VN, MARIONETTE, MARIONETTE_PE)
    ]


def _swap_payload(root, key, payload):
    """Replace the payload of ``key``'s on-disk record, keeping its
    envelope; returns the record's path and the payload it held."""
    digest = fingerprint(key)
    record = root / digest[:2] / f"{digest}.json"
    envelope = json.loads(record.read_text())
    good, envelope["payload"] = envelope["payload"], payload
    record.write_text(json.dumps(envelope))
    return record, good


class TestSpecLayer:
    def test_specs_are_hashable_and_equal_by_value(self):
        assert _specs()[0] == _specs()[0]
        assert len(set(_specs() + _specs())) == len(_specs())

    def test_model_spec_builds_named_model(self):
        model = MARIONETTE_PE.build(DEFAULT_PARAMS)
        assert model.config.name == "Marionette PE"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec.make("quantum_pe")

    def test_options_on_fixed_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelSpec.make("von_neumann", agile=True)


class TestTraceCache:
    def test_fingerprint_is_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_memory_roundtrip(self):
        cache = TraceCache()
        assert cache.get({"k": 1}) is None
        cache.put({"k": 1}, {"v": 42})
        assert cache.get({"k": 1}) == {"v": 42}

    def test_disk_roundtrip(self, tmp_path):
        TraceCache(tmp_path).put({"k": 1}, {"v": 42})
        fresh = TraceCache(tmp_path)
        assert fresh.get({"k": 1}) == {"v": 42}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put({"k": 1}, {"v": 42})
        digest = fingerprint({"k": 1})
        (tmp_path / digest[:2] / f"{digest}.json").write_text("{broken")
        fresh = TraceCache(tmp_path)
        assert fresh.get({"k": 1}) is None


class TestEngineCaching:
    def test_cold_run_computes_everything(self):
        engine = Engine()
        results = engine.execute(_specs())
        assert all(not r.cached for r in results)
        assert engine.stats.traces_computed == 2      # gemm + crc
        assert engine.stats.simulations == len(_specs())

    def test_second_execute_hits_the_memo(self):
        engine = Engine()
        first = engine.execute(_specs())
        second = engine.execute(_specs())
        assert all(r.cached for r in second)
        assert engine.stats.simulations == len(_specs())
        # Memo re-reads are tracked apart from cross-run cache hits.
        assert engine.stats.sim_memo_hits == len(_specs())
        assert engine.stats.sim_cache_hits == 0
        assert [r.cycles for r in first] == [r.cycles for r in second]

    def test_warm_disk_cache_does_no_work(self, tmp_path):
        Engine(cache_dir=tmp_path).execute(_specs())
        warm = Engine(cache_dir=tmp_path)
        results = warm.execute(_specs())
        assert all(r.cached for r in results)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations == 0
        assert warm.stats.sim_cache_hits == len(_specs())
        assert warm.stats.sim_memo_hits == 0

    def test_warm_cache_results_equal_cold_results(self, tmp_path):
        cold = Engine(cache_dir=tmp_path).execute(_specs())
        warm = Engine(cache_dir=tmp_path).execute(_specs())
        assert [r.result.to_payload() for r in cold] == \
               [r.result.to_payload() for r in warm]

    def test_arch_params_change_invalidates_cycles_not_traces(self, tmp_path):
        Engine(cache_dir=tmp_path).execute(_specs())
        changed = replace(DEFAULT_PARAMS, data_net_latency=9)
        engine = Engine(cache_dir=tmp_path)
        results = engine.execute(_specs(params=changed))
        # New parameters: every model result recomputed...
        assert all(not r.cached for r in results)
        assert engine.stats.simulations == len(_specs())
        # ...but the functional traces are parameter-independent and reused.
        assert engine.stats.traces_computed == 0
        assert engine.stats.trace_cache_hits == 2

    def test_changed_params_change_at_least_one_result(self, tmp_path):
        base = Engine(cache_dir=tmp_path).execute(_specs())
        slower = Engine(cache_dir=tmp_path).execute(
            _specs(params=replace(DEFAULT_PARAMS, data_net_latency=12))
        )
        assert any(
            a.cycles != b.cycles for a, b in zip(base, slower)
        )

    def test_variants_that_price_alike_share_cycle_records(self, tmp_path):
        # deep-fifo differs from marionette-default only in parameters
        # pricing never reads, so the sweep prices and stores their 115
        # specs once: 3 x 115 simulations and 13 traces + 345 records.
        engine = Engine(cache_dir=tmp_path)
        sections = {
            desc.name: {result.experiment: result_payload(result)
                        for result in run_all("tiny", 0, engine=engine,
                                              params=desc.params)}
            for _path, desc in load_arch_sweep(ARCH_DIR)
        }
        assert engine.stats.simulations == 345
        assert engine.stats.sim_cache_hits == 115
        assert len(list(tmp_path.glob("??/*.json"))) == 358
        deep, default = sections["deep-fifo"], sections["marionette-default"]
        assert list(deep) == list(default)
        # Table 4 prices the scratchpad area, which deep-fifo doubles.
        assert [name for name in default
                if deep[name] != default[name]] == ["Table 4"]

    def test_kernel_run_from_warm_cache_skips_interpretation(self, tmp_path):
        Engine(cache_dir=tmp_path).execute(_specs())
        warm = Engine(cache_dir=tmp_path)
        kernel = warm.kernel("gemm", "tiny", 0)
        assert warm.stats.traces_computed == 0
        assert kernel.trace.total_block_execs > 0

    def test_malformed_cycle_payload_is_recomputed(self, tmp_path):
        cold = Engine(cache_dir=tmp_path).execute(_specs())
        record, good = _swap_payload(tmp_path, _specs()[0].cache_key(),
                                     {"arch": "x"})
        warm = Engine(cache_dir=tmp_path)
        results = warm.execute(_specs())
        # A well-formed envelope around a foreign payload is a miss:
        # recomputed, and its record overwritten.
        assert warm.stats.simulations == 1
        assert [r.result.to_payload() for r in results] == \
               [r.result.to_payload() for r in cold]
        assert json.loads(record.read_text())["payload"] == good

    def test_malformed_trace_payload_is_recomputed(self, tmp_path):
        Engine(cache_dir=tmp_path).execute(_specs())
        record, good = _swap_payload(
            tmp_path, trace_cache_key("gemm", "tiny", 0), {"kernel": "x"}
        )
        warm = Engine(cache_dir=tmp_path)
        # Figs. 11 and 15 read traces through kernel() on a warm run.
        kernel = warm.kernel("gemm", "tiny", 0)
        assert warm.stats.traces_computed == 1
        assert kernel.trace.to_payload() == good
        assert json.loads(record.read_text())["payload"] == good


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        serial = Engine(jobs=1).execute(_specs())
        parallel = Engine(jobs=4).execute(_specs())
        assert [r.result.to_payload() for r in serial] == \
               [r.result.to_payload() for r in parallel]

    def test_results_come_back_in_spec_order(self):
        specs = _specs()
        for jobs in (1, 3):
            results = Engine(jobs=jobs).execute(specs)
            assert [r.spec for r in results] == specs

    def test_duplicate_specs_simulated_once(self):
        engine = Engine(jobs=2)
        spec = _specs()[0]
        results = engine.execute([spec, spec, spec])
        assert engine.stats.simulations == 1
        assert len({r.cycles for r in results}) == 1

    def test_parallel_populates_shared_disk_cache(self, tmp_path):
        Engine(cache_dir=tmp_path, jobs=4).execute(_specs())
        warm = Engine(cache_dir=tmp_path, jobs=1)
        warm.execute(_specs())
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations == 0


class TestParallelTraces:
    """``prefetch_traces`` with ``jobs > 1`` computes on the pricing pool."""

    def test_cold_prefetch_computes_each_trace_once(self):
        specs = _specs() + _specs(scale="small")
        keys = sorted({spec.trace_key() for spec in specs})
        serial, parallel = Engine(jobs=1), Engine(jobs=2)
        for engine in (serial, parallel):
            engine.prefetch_traces(specs)
            engine.prefetch_traces(specs)  # resident now: no new work
            assert engine.stats.traces_computed == len(keys) == 4
            assert engine.stats.trace_cache_hits == 0
        for key in keys:
            payload = serial.cache.get(trace_cache_key(*key))
            assert payload is not None
            assert parallel.cache.get(trace_cache_key(*key)) == payload

    def test_parallel_profile_matches_serial(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.report import all_specs

        outputs = {}
        for jobs in (1, 2):
            profile = tmp_path / f"profile_{jobs}.json"
            assert main(["bench", "--scale", "tiny", "--jobs", str(jobs),
                         "--profile", str(profile)]) == 0
            outputs[jobs] = capsys.readouterr().out
            trace = json.loads(profile.read_text(encoding="utf-8")
                               )["phases"][0]
            distinct = len({spec.trace_key() for spec in all_specs("tiny")})
            assert trace["phase"] == "trace"
            assert trace["stats_delta"]["traces_computed"] == distinct
        assert outputs[1] == outputs[2]

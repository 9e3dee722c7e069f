"""External kernel packages: format laws, ingestion, engine integration.

The ``repro-kernel`` v1 on-disk format is a public contract, so the
tests are organised around its laws:

* **round trips** — document -> package -> document is the identity on
  canonical form; save -> load preserves the content fingerprint; the
  fingerprint moves iff any content (manifest, program, memory cell)
  moves;
* **diagnostics** — every malformed input (unknown keys, version skew,
  torn JSON/CSV, undeclared arrays, undefined operands, shape
  mismatches) is a one-line :class:`ConfigurationError` naming its
  source, never a traceback;
* **ingestion equivalence** — the shipped sigmoid package holds the SI
  workload's tiny inputs and reference outputs bit for bit, and every
  shipped package grades identically under the event-driven and naive
  simulators;
* **engine identity** — the package fingerprint rides inside the
  workload token, so the cache, the shard partition, and the dispatch
  wire form all distinguish kernels by content with no extra plumbing;
* **shipped examples** — every package under ``examples/kernels/`` is
  valid, canonically formatted, distinct, and passes on the array
  (CI for the examples, like ``examples/arch/``).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine.executor import Engine
from repro.engine.export import (
    merge_shard_documents,
    read_shard_export,
    shard_export_document,
)
from repro.engine.spec import RunSpec, shard_of
from repro.errors import ConfigurationError, EngineError, ReproError
from repro.kernels import (
    KernelWorkload,
    from_document,
    load_kernel,
    load_kernel_suite,
    register,
    resolve,
    run_kernel,
    save_kernel,
)
from repro.kernels.bench import KERNEL_BENCH_MODELS, kernel_specs
from repro.kernels.registry import _PACKAGES, _WORKLOADS
from repro.workloads import get_workload
from repro.workloads.base import first_mismatch
from repro.workloads.sigmoid import Sigmoid

EXAMPLES_DIR = Path(__file__).parents[1] / "examples" / "kernels"


def _one_line(excinfo) -> str:
    text = str(excinfo.value)
    assert "\n" not in text, f"diagnostic spans lines: {text!r}"
    return text


def _saxpy_document(name: str = "saxpy_t", n: int = 8):
    x = list(range(n))
    y = [2] * n
    return {
        "schema": "repro-kernel", "version": 1,
        "name": name,
        "scale_hint": "tiny",
        "params": {"n": n, "a": 3},
        "loop": {"var": "i", "start": 0, "stop": "n", "step": 1},
        "arrays": [
            {"name": "x", "shape": [n], "dtype": "int64",
             "role": "input"},
            {"name": "y", "shape": [n], "dtype": "int64",
             "role": "inout"},
        ],
        "program": [
            ["t0", "load", "x", "i"],
            ["t1", "mul", "a", "t0"],
            ["t2", "load", "y", "i"],
            ["t3", "add", "t1", "t2"],
            ["", "store", "y", "i", "t3"],
        ],
        "memory": {"x": x, "y": y},
        "expected": {"y": [3 * xi + 2 for xi in x]},
    }


# ----------------------------------------------------------------------
# Format laws
# ----------------------------------------------------------------------
class TestFormatLaws:
    def test_document_roundtrip_is_identity(self):
        package = from_document(_saxpy_document())
        document = package.to_document()
        again = from_document(document)
        assert again.to_document() == document
        assert again.fingerprint() == package.fingerprint()

    def test_save_load_preserves_fingerprint(self, tmp_path):
        package = from_document(_saxpy_document())
        save_kernel(package, tmp_path / "k")
        loaded = load_kernel(tmp_path / "k")
        assert loaded.fingerprint() == package.fingerprint()
        assert loaded.to_document() == package.to_document()

    def test_save_load_with_program_in_manifest(self, tmp_path):
        package = from_document(_saxpy_document())
        save_kernel(package, tmp_path / "k", program_in_manifest=True)
        assert not (tmp_path / "k" / "instructions.csv").exists()
        assert load_kernel(
            tmp_path / "k").fingerprint() == package.fingerprint()

    def test_fingerprint_moves_with_any_memory_cell(self):
        base = from_document(_saxpy_document())
        edited_doc = _saxpy_document()
        edited_doc["memory"]["x"][3] += 1
        edited = from_document(edited_doc)
        assert edited.fingerprint() != base.fingerprint()

    def test_fingerprint_moves_with_the_name(self):
        a = from_document(_saxpy_document("one"))
        b = from_document(_saxpy_document("two"))
        assert a.fingerprint() != b.fingerprint()

    def test_workload_token_carries_the_full_fingerprint(self):
        package = from_document(_saxpy_document())
        token = package.workload_token()
        assert token == f"kernel:{package.name}@{package.fingerprint()}"

    def test_expected_optional_interpreter_fills_in(self):
        document = _saxpy_document()
        del document["expected"]
        package = from_document(document)
        instance = KernelWorkload(package).instance("tiny")
        assert first_mismatch(
            instance.expected["y"],
            np.asarray([3 * xi + 2 for xi in range(8)]), 0.0,
        ) is None


# ----------------------------------------------------------------------
# Diagnostics: one line, naming the source
# ----------------------------------------------------------------------
class TestDiagnostics:
    def _bad(self, mutate, source="<t>"):
        document = _saxpy_document()
        mutate(document)
        with pytest.raises(ConfigurationError) as error:
            from_document(document, source)
        return _one_line(error)

    def test_unknown_key(self):
        text = self._bad(lambda d: d.update(flavour="spicy"))
        assert "flavour" in text and "<t>" in text

    def test_version_skew(self):
        text = self._bad(lambda d: d.update(version=99))
        assert "99" in text and "version" in text

    def test_wrong_schema(self):
        text = self._bad(lambda d: d.update(schema="not-a-kernel"))
        assert "not-a-kernel" in text

    def test_undeclared_memory_image(self):
        text = self._bad(lambda d: d["memory"].update(z=[1]))
        assert "z" in text

    def test_shape_mismatch(self):
        text = self._bad(lambda d: d["memory"].update(x=[1, 2]))
        assert "x" in text

    def test_undefined_operand(self):
        text = self._bad(
            lambda d: d["program"].__setitem__(1, ["t1", "mul", "a", "t9"])
        )
        assert "t9" in text

    def test_unknown_opcode(self):
        text = self._bad(
            lambda d: d["program"].__setitem__(
                1, ["t1", "frobnicate", "a", "t0"])
        )
        assert "frobnicate" in text

    def test_program_without_store(self):
        text = self._bad(
            lambda d: d.update(program=[["t0", "load", "x", "i"]])
        )
        assert "store" in text

    def test_torn_manifest_json(self, tmp_path):
        root = tmp_path / "k"
        save_kernel(from_document(_saxpy_document()), root)
        (root / "kernel.json").write_text("{ torn", encoding="utf-8")
        with pytest.raises(ConfigurationError) as error:
            load_kernel(root)
        assert "kernel.json" in _one_line(error)

    def test_torn_memory_csv(self, tmp_path):
        root = tmp_path / "k"
        save_kernel(from_document(_saxpy_document()), root)
        (root / "memory" / "x.csv").write_text("1,two,3",
                                               encoding="utf-8")
        with pytest.raises(ConfigurationError) as error:
            load_kernel(root)
        assert "x.csv" in _one_line(error)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError) as error:
            load_kernel(tmp_path / "absent")
        assert "absent" in _one_line(error)

    def test_suite_directory_hint_in_load_kernel(self, tmp_path):
        save_kernel(from_document(_saxpy_document("inner")),
                    tmp_path / "suite" / "inner")
        with pytest.raises(ConfigurationError) as error:
            load_kernel(tmp_path / "suite")
        text = _one_line(error)
        assert "inner" in text and "--kernels" in text

    def test_suite_rejects_duplicate_names(self, tmp_path):
        save_kernel(from_document(_saxpy_document("dup")),
                    tmp_path / "suite" / "a")
        save_kernel(from_document(_saxpy_document("dup")),
                    tmp_path / "suite" / "b")
        with pytest.raises(ConfigurationError) as error:
            load_kernel_suite(tmp_path / "suite")
        assert "dup" in _one_line(error)


# ----------------------------------------------------------------------
# Workload registry + suite lookup
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_workload_resolves_registered_tokens(self):
        package = from_document(_saxpy_document("reg_probe"))
        token = register(package)
        workload = get_workload(token)
        assert workload.short == token
        assert workload.name == "reg_probe"

    def test_unregistered_token_is_a_configuration_error(self):
        missing = "kernel:ghost@" + "0" * 64
        with pytest.raises(ConfigurationError) as error:
            resolve(missing)
        assert "not registered" in _one_line(error)

    def test_unknown_workload_lists_all_names(self):
        with pytest.raises(ConfigurationError) as error:
            get_workload("no_such_kernel")
        text = _one_line(error)
        assert "no_such_kernel" in text
        for name in ("gemm", "crc", "sigmoid", "fft"):
            assert name in text


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
class TestVerdicts:
    def test_failing_package_reports_first_bad_index(self):
        document = _saxpy_document()
        document["expected"]["y"][5] += 7
        report = run_kernel(from_document(document))
        assert not report.passed
        verdict, = report.verdicts
        assert verdict.first_bad_index == 5
        assert report.to_document()["verdict"] == "FAIL"

    def test_large_integer_off_by_one_names_its_index(self):
        # An exact (atol 0) comparison has no relative slack: y[3] is
        # 9,000,002 and the expected 9,000,003 fails at index 3, in
        # `repro run` and in the workload reference check alike.
        document = _saxpy_document()
        x = [1_000_000 * xi for xi in document["memory"]["x"]]
        document["memory"]["x"] = x
        document["expected"]["y"] = [3 * xi + 2 for xi in x]
        document["expected"]["y"][3] += 1
        package = from_document(document)
        verdict, = run_kernel(package).verdicts
        assert not verdict.passed and verdict.first_bad_index == 3
        instance = KernelWorkload(package).instance("tiny")
        with pytest.raises(ReproError, match=r"first bad index: 3\)"):
            instance.check()


# ----------------------------------------------------------------------
# Engine identity: cache, shards, wire
# ----------------------------------------------------------------------
class TestEngineIdentity:
    def test_rerun_is_a_pure_cache_hit(self, tmp_path):
        package = from_document(_saxpy_document("cache_probe"))
        specs = kernel_specs([package])
        cold = Engine(cache_dir=tmp_path / "cache")
        cold.execute(specs)
        assert cold.stats.simulations == len(specs)
        warm = Engine(cache_dir=tmp_path / "cache")
        warm.execute(kernel_specs([package]))
        assert warm.stats.simulations == 0
        assert warm.stats.sim_cache_hits == len(specs)

    def test_editing_one_csv_cell_misses_the_cache(self, tmp_path):
        package = from_document(_saxpy_document("cell_probe"))
        save_kernel(package, tmp_path / "k")
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.execute(kernel_specs([load_kernel(tmp_path / "k")]))
        assert engine.stats.simulations == len(KERNEL_BENCH_MODELS)

        # One edited input cell (and the matching expected cell, so the
        # package still verifies — identity, not correctness, is what
        # this test probes).
        for region, delta in (("memory", 1), ("expected", 3)):
            path = tmp_path / "k" / region
            path = path / ("x.csv" if region == "memory" else "y.csv")
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[-1] = str(int(lines[-1]) + delta)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        edited = load_kernel(tmp_path / "k")
        assert edited.fingerprint() != package.fingerprint()
        again = Engine(cache_dir=tmp_path / "cache")
        again.execute(kernel_specs([edited]))
        assert again.stats.sim_cache_hits == 0
        assert again.stats.simulations == len(KERNEL_BENCH_MODELS)

    def test_fingerprint_is_inside_the_cache_key(self):
        a = from_document(_saxpy_document("key_probe"))
        edited_doc = _saxpy_document("key_probe")
        edited_doc["memory"]["y"][0] += 1
        b = from_document(edited_doc)
        spec_a = kernel_specs([a])[0]
        spec_b = kernel_specs([b])[0]
        assert spec_a.cache_key() != spec_b.cache_key()
        assert spec_a.fingerprint() != spec_b.fingerprint()

    def test_shard_coordinate_is_content_derived(self):
        package = from_document(_saxpy_document("shard_probe"))
        specs = kernel_specs([package])
        assignments = [shard_of(spec, 3) for spec in specs]
        assert all(0 <= shard < 3 for shard in assignments)
        # Pure function of content: recomputing agrees.
        assert assignments == [shard_of(spec, 3) for spec in specs]

    def test_payload_ships_the_document_and_roundtrips(self):
        package = from_document(_saxpy_document("wire_probe"))
        spec = kernel_specs([package])[0]
        payload = json.loads(json.dumps(spec.to_payload()))
        assert payload["kernel"]["name"] == "wire_probe"
        assert RunSpec.from_payload(payload) == spec

    def test_payload_naming_a_different_kernel_is_refused(self):
        package = from_document(_saxpy_document("lie_probe"))
        spec = kernel_specs([package])[0]
        payload = spec.to_payload()
        payload = dict(payload,
                       workload="kernel:lie_probe@" + "f" * 64)
        with pytest.raises(ConfigurationError) as error:
            RunSpec.from_payload(payload)
        assert "ships the kernel document" in _one_line(error)

    def test_parallel_jobs_match_serial(self, tmp_path):
        package = from_document(_saxpy_document("jobs_probe"))
        serial = Engine(cache_dir=tmp_path / "a")
        parallel = Engine(cache_dir=tmp_path / "b", jobs=4)
        specs = kernel_specs([package])
        serial_cycles = [r.cycles for r in serial.execute(specs)]
        parallel_cycles = [r.cycles for r in parallel.execute(specs)]
        assert serial_cycles == parallel_cycles
        streamed = Engine(cache_dir=tmp_path / "c", jobs=4)
        pairs = sorted(streamed.stream(specs))
        assert [pair[1].cycles for pair in pairs] == serial_cycles


# ----------------------------------------------------------------------
# Shard exports carry the kernel suite
# ----------------------------------------------------------------------
class TestShardExports:
    def _export(self, engine, kernels, shard, tmp_path, name):
        document = shard_export_document(
            engine, scale="tiny", seed=0, shard=shard, kernels=kernels,
        )
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return read_shard_export(path)

    def test_kernels_survive_the_export_roundtrip(self, tmp_path):
        package = from_document(_saxpy_document("exp_probe"))
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.execute(kernel_specs([package]))
        document = self._export(engine, [package], (1, 1), tmp_path,
                                "s.json")
        assert document["kernels"] == [package.to_document()]
        merged = merge_shard_documents([document])
        assert merged["kernels"] == [package.to_document()]

    def test_disagreeing_kernel_suites_refuse_to_merge(self, tmp_path):
        a = from_document(_saxpy_document("suite_a"))
        b = from_document(_saxpy_document("suite_b"))
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.execute(kernel_specs([a]) + kernel_specs([b]))
        doc_a = self._export(engine, [a], (1, 2), tmp_path, "a.json")
        doc_b = self._export(engine, [b], (2, 2), tmp_path, "b.json")
        with pytest.raises(EngineError) as error:
            merge_shard_documents([doc_a, doc_b])
        assert "kernel suite" in str(error.value)

    def test_malformed_kernels_stanza_is_rejected(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        document = shard_export_document(engine, scale="tiny", seed=0)
        document["kernels"] = "not-a-list"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(EngineError) as error:
            read_shard_export(path)
        assert "kernels" in str(error.value)


# ----------------------------------------------------------------------
# Dispatch: the document travels the wire, not the filesystem
# ----------------------------------------------------------------------
class TestDispatchWire:
    def test_worker_with_empty_registry_runs_a_shipped_kernel(self):
        from repro.engine.distributed.backend import MemoryBackend
        from repro.engine.distributed.coordinator import Coordinator
        from repro.engine.distributed.server import DistributedServer
        from repro.engine.distributed.worker import (
            CoordinatorClient,
            dispatch_job,
            work_loop,
        )

        package = from_document(_saxpy_document("wire_run"))
        specs = kernel_specs([package])[:2]
        payloads = [spec.to_payload() for spec in specs]

        # The receiving side has never seen the package: wipe the
        # process-wide registry so the worker must rebuild it from the
        # wire documents alone (what a fresh remote process would do).
        saved_packages = dict(_PACKAGES)
        saved_workloads = dict(_WORKLOADS)
        _PACKAGES.clear()
        _WORKLOADS.clear()
        server = DistributedServer(
            MemoryBackend(), Coordinator(lease_timeout=30.0)
        ).start()
        try:
            worker = threading.Thread(
                target=lambda: work_loop(server.url, poll=0.02,
                                         max_idle=30.0),
            )
            worker.start()
            client = CoordinatorClient(server.url)
            try:
                landed = dict(dispatch_job(
                    client, payloads, scale="tiny", seed=0,
                ))
            finally:
                client.shutdown()
                worker.join(timeout=15.0)
            assert sorted(landed) == [0, 1]
            assert all(payload["cycles"] > 0
                       for payload in landed.values())
        finally:
            server.stop()
            _PACKAGES.update(saved_packages)
            _WORKLOADS.update(saved_workloads)


# ----------------------------------------------------------------------
# The shipped examples (CI for examples/kernels/)
# ----------------------------------------------------------------------
class TestShippedExamples:
    def test_directory_holds_the_documented_suite(self):
        entries = load_kernel_suite(EXAMPLES_DIR)
        names = [package.name for _path, package in entries]
        assert len(names) >= 3
        assert "sigmoid" in names      # the SI workload's tiny instance
        assert "saxpy" in names        # hand-written

    def test_names_are_unique_and_fingerprints_distinct(self):
        entries = load_kernel_suite(EXAMPLES_DIR)
        names = [package.name for _path, package in entries]
        prints = [package.fingerprint() for _path, package in entries]
        assert len(set(names)) == len(names)
        assert len(set(prints)) == len(prints)

    def test_every_example_is_in_canonical_form(self, tmp_path):
        # A hand-edited file that drifts from save_kernel's formatting
        # would break save/load round-trip diffs; keep them canonical.
        for path, package in load_kernel_suite(EXAMPLES_DIR):
            fresh = tmp_path / path.name
            save_kernel(
                package, fresh,
                program_in_manifest=not (
                    path / "instructions.csv").exists(),
            )
            committed = {p.relative_to(path): p
                         for p in sorted(path.rglob("*")) if p.is_file()}
            rewritten = {p.relative_to(fresh): p
                         for p in sorted(fresh.rglob("*")) if p.is_file()}
            assert sorted(committed) == sorted(rewritten), \
                f"{path}: file set is not canonical"
            for rel, committed_path in committed.items():
                assert committed_path.read_bytes() == \
                    rewritten[rel].read_bytes(), \
                    f"{path / rel} is not canonically formatted"

    def test_sigmoid_example_is_the_workload_at_tiny(self):
        # The images are the SI workload's own; the tests below grade
        # the package's program against them on the array.
        committed = load_kernel(EXAMPLES_DIR / "sigmoid")
        instance = Sigmoid().instance("tiny", seed=0)
        for images, reference in ((committed.memory, instance.memory),
                                  (committed.expected, instance.expected)):
            assert sorted(images) == sorted(reference)
            for name, values in images.items():
                assert values.dtype == reference[name].dtype, name
                assert np.array_equal(values, reference[name]), name

    @pytest.mark.parametrize("strategy", ["event", "naive"])
    def test_every_example_passes_on_the_array(self, strategy):
        for _path, package in load_kernel_suite(EXAMPLES_DIR):
            report = run_kernel(package, strategy=strategy)
            assert report.passed, (
                f"{package.name} under {strategy}: "
                f"{report.to_document()}"
            )
            # A runaway run can still grade PASS on its first n stores.
            assert report.halted, (
                f"{package.name} under {strategy} hit max-cycles"
            )

    def test_examples_grade_identically_under_every_strategy(self):
        """Cross-strategy property: each shipped package produces the
        same graded document (modulo the strategy tag) under the naive
        and event steppers."""
        for _path, package in load_kernel_suite(EXAMPLES_DIR):
            documents = {}
            for strategy in ("naive", "event"):
                report = run_kernel(package, strategy=strategy)
                document = report.to_document()
                assert document.pop("strategy") == strategy
                documents[strategy] = document
            assert documents["event"] == documents["naive"], package.name

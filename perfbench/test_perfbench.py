"""Tests of the benchmark itself.

The smoke runs drive ``run.py --smoke`` (tiny inputs, one seed) for every
workload in both modes and check that every metric BENCHMARK.json names
is emitted with its unit.  The accounting tests check that a perturbed
expectation, a kernel run past its cycle budget and an exception are all
counted as failed operations instead of being raised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per-layer metrics that must be non-zero on the workload that
#: exercises their layer.
EXERCISED = {
    "paper-report": ("ir.interp.calls", "ir.interp.block_execs",
                     "ir.trace.to_payload.calls",
                     "ir.trace.from_payload.calls",
                     "ir.trace.payload_bytes", "engine.cache.read_bytes",
                     "engine.cache.write_bytes", "cache_mb",
                     "engine.stats.traces_computed",
                     "engine.stats.sim_cache_hits",
                     "experiments.fig11.self_s",
                     "baselines.simulate.marionette.calls"),
    "arch-sweep": ("compiler.place.place_block.calls",
                   "arch.network.mesh.route.calls",
                   "ir.cfg.dominators.calls", "ir.cdfg.loop_nests.calls",
                   "engine.cache.get.calls", "engine.stats.simulations",
                   "experiments.table6.calls"),
    "kernel-sim": ("kernels.from_document.calls",
                   "compiler.config_gen.generate_program.calls",
                   "sim.run.self_s", "sim.host_ns_per_cycle",
                   "sim.cycles", "sim.ctrl_msgs_delivered",
                   "sim.mean_utilization"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_smoke_emits_every_metric(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in listed]
        for metric in listed:
            emitted = metrics[metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            if trace == 0:
                assert emitted["value"] > 0, metric["name"]
        if trace == 1:
            for name in EXERCISED[workload]:
                assert metrics[name]["value"] > 0, name
            assert metrics["trace.coverage_cold"]["value"] >= 0.85
        record = json.loads(
            (ROOT / ".perfbench_out"
             / f"record-{workload}-seed0-trace{trace}.json").read_text())
        assert {"platform", "cpu_count", "python", "numpy", "git_sha"} \
            <= set(record["host"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("kernel-sim", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_perturbed_expectation_is_a_failure(tmp_path):
    workload = scenarios.ReportWorkload("paper-report", 0, True, tmp_path)
    tally = scenarios.Tally()
    workload.cold(tally)
    workload.cleanup()
    assert (tally.attempted, tally.failed) == (len(scenarios.SLUGS), 0)
    goldens = {slug: workload.cold_sections[("default", slug)]
               for slug in scenarios.SLUGS}
    goldens["fig11"] = json.loads(json.dumps(goldens["fig11"]))
    goldens["fig11"]["title"] += " (perturbed)"
    workload.goldens = goldens
    tally = scenarios.Tally()
    workload.cold(tally)
    workload.cleanup()
    assert (tally.attempted, tally.failed) == (len(scenarios.SLUGS), 1)
    assert "fig11" in tally.reasons[0]


def test_kernel_past_its_cycle_budget_is_a_failure():
    workload = scenarios.KernelSimWorkload(0, True)
    workload.max_cycles = 20
    tally = scenarios.Tally()
    workload.cold(tally)
    workload.warm(tally)
    assert tally.attempted == tally.failed == 2 * len(scenarios.KERNELS)
    assert all("hit max_cycles" in reason for reason in tally.reasons)


def test_exception_fails_the_rest_of_its_pass(monkeypatch):
    import repro.kernels as kernels

    real = kernels.run_kernel
    calls = []

    def flaky(package, **options):
        calls.append(package.name)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(package, **options)

    monkeypatch.setattr(kernels, "run_kernel", flaky)
    workload = scenarios.KernelSimWorkload(0, True)
    tally = scenarios.Tally()
    workload.cold(tally)
    assert len(calls) == 2
    assert (tally.attempted, tally.failed) == (len(scenarios.KERNELS),
                                               len(scenarios.KERNELS) - 1)
    assert all("injected" in reason for reason in tally.reasons)

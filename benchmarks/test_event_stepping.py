"""Event-driven stepping benchmark lane.

Two assertions keep the simulator fast path honest:

* on a sparse-control workload — a large array where only a handful of
  PEs carry the kernel, with a slow data mesh, so most cycles and most
  PEs are idle — the event-driven stepper must beat the naive
  poll-everything stepper by a real margin *while producing identical
  results* (the differential suite in ``tests/test_sim_event.py`` is
  the correctness gate; this lane is the performance gate);
* ``repro bench --profile`` must emit a schema-valid ``BENCH_*.json``
  perf-trajectory record (see docs/ENGINE.md "Performance" for the
  schema) whose report output is byte-identical to an unprofiled run.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

from repro.arch.params import ArchParams
from repro.engine import BENCH_PROFILE_SCHEMA
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, Operand
from repro.isa.program import ArrayProgram, TriggerEntry
from repro.sim.array import ArraySimulator

#: Margin the event stepper must clear on the sparse workload: it skips
#: ~59 idle PEs per cycle plus whole idle-cycle stretches, so parity
#: would mean the scheduler is broken; 1.3x keeps CI noise-proof (the
#: observed factor on a shared 2-vCPU host is 2.5-4x: naive ~27-47 ms,
#: event ~7-15 ms).
SPEEDUP_FLOOR = 1.3


def _sparse_program(params: ArchParams, n: int) -> ArrayProgram:
    """PE0 loop -> PE1/PE2 loads -> PE3 mul -> PE4 store, on a big idle
    array (59 of 64 PEs never configure) behind a slow mesh."""
    program = ArrayProgram(params.n_pes)
    program.declare_array(0, "A", 0, n)
    program.declare_array(1, "B", n, n)
    program.declare_array(2, "OUT", 2 * n, n)
    program.program_for(0).add(TriggerEntry(
        1,
        DataInstruction.loop(
            Operand.imm(0), Operand.imm(n), Operand.imm(1),
            (Dest.pe_port(1, 0), Dest.pe_port(2, 0), Dest.pe_port(4, 1)),
        ),
        ControlDirective.loop(exit_addr=9, exit_targets=(params.n_pes,)),
    ))
    program.program_for(1).add(TriggerEntry(
        1, DataInstruction.load(0, Operand.port(0), (Dest.pe_port(3, 0),)),
    ))
    program.program_for(2).add(TriggerEntry(
        1, DataInstruction.load(1, Operand.port(0), (Dest.pe_port(3, 1),)),
    ))
    program.program_for(3).add(TriggerEntry(
        1,
        DataInstruction.compute(
            Opcode.MUL, (Operand.port(0), Operand.port(1)),
            (Dest.pe_port(4, 0),),
        ),
    ))
    program.program_for(4).add(TriggerEntry(
        1, DataInstruction.store(2, Operand.port(1), Operand.port(0)),
    ))
    for pe in range(5):
        program.set_initial(pe, 1)
    return program


def _run(params, program, n, strategy):
    sim = ArraySimulator(params, program, strategy=strategy)
    sim.load_array("A", np.arange(1, n + 1))
    sim.load_array("B", np.arange(2, n + 2))
    return sim.run(halt_messages=999)


def test_event_stepper_beats_naive_on_sparse_control(scale):
    params = replace(ArchParams().scaled(8, 8), data_net_latency=30)
    n = 96
    program = _sparse_program(params, n)
    rounds = 5
    elapsed = {"naive": float("inf"), "event": float("inf")}
    results = {}
    # Interleaved rounds, each side's fastest repetition: host noise only
    # adds time, and one burst cannot cover all of one side's runs.
    for _ in range(rounds):
        for strategy in ("naive", "event"):
            start = time.perf_counter()
            results[strategy] = _run(params, program, n, strategy)
            elapsed[strategy] = min(elapsed[strategy],
                                    time.perf_counter() - start)

    # Identical numbers first — a fast wrong simulator is worthless.
    naive, event = results["naive"], results["event"]
    assert event.cycles == naive.cycles
    assert event.stats == naive.stats
    assert event.scratchpad.data == naive.scratchpad.data

    speedup = elapsed["naive"] / elapsed["event"]
    print(f"\nsparse-control 8x8, n={n}, mesh=30c: "
          f"naive {elapsed['naive'] * 1000:.1f} ms, "
          f"event {elapsed['event'] * 1000:.1f} ms "
          f"({speedup:.2f}x, {naive.cycles} cycles)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"event stepper only {speedup:.2f}x over naive "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_bench_profile_emits_schema_valid_json(tmp_path, capsys):
    from repro.cli import main

    profile_path = tmp_path / "bench_profile.json"
    code = main([
        "bench", "--scale", "tiny",
        "--cache-dir", str(tmp_path / "cache"),
        "--profile", str(profile_path),
    ])
    assert code == 0
    profiled_report = capsys.readouterr().out

    document = json.loads(profile_path.read_text(encoding="utf-8"))
    assert document["schema"] == BENCH_PROFILE_SCHEMA
    assert document["scale"] == "tiny"
    assert isinstance(document["seed"], int)
    assert isinstance(document["jobs"], int)
    assert isinstance(document["engine_version"], int)
    assert isinstance(document["created"], float)
    assert document["spec_count"] > 0
    assert document["total_seconds"] > 0
    assert isinstance(document["engine_stats"], dict)

    # trace, then one simulate:<label> per architecture model (in the
    # order the spec list first names each model), then assemble.
    from repro.experiments.report import all_specs

    labels = list(dict.fromkeys(
        spec.model.label or spec.model.model for spec in all_specs("tiny")
    ))
    phases = document["phases"]
    names = [phase["phase"] for phase in phases]
    assert names == (["trace"] + [f"simulate:{label}" for label in labels]
                     + ["assemble"])
    simulate = [phase for phase in phases
                if phase["phase"].startswith("simulate:")]
    assert all(phase["specs"] > 0 for phase in simulate)
    assert sum(phase["specs"] for phase in simulate) \
        == document["spec_count"]
    for phase in phases:
        assert phase["seconds"] >= 0
        assert isinstance(phase["stats_delta"], dict)
        assert set(phase) <= {"phase", "seconds", "stats_delta", "specs"}
    # The cold run computed its traces; the record says so.
    assert phases[0]["stats_delta"].get("traces_computed", 0) > 0

    # The profile is a side artifact: stdout stays byte-identical.
    code = main(["bench", "--scale", "tiny",
                 "--cache-dir", str(tmp_path / "cache2")])
    assert code == 0
    assert capsys.readouterr().out == profiled_report

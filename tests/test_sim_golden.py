"""A golden of cycle-level simulator outcomes.

``event == naive`` (``tests/test_sim_event.py``) cannot see a change in
code the two steppers share: the PE, data path, control part and
scratchpad.  This golden can.  Per program and stepping strategy it
locks the cycle count, the halt flag, every per-PE :class:`PEStats`
counter, the control network's conflicts and deliveries, the scratchpad's
read, write and bank-conflict counts, and a SHA-256 of the scratchpad
image.

The programs: the shipped ``examples/kernels`` packages, the 13
workload-shaped kernels of ``tests/test_sim_event.py``, the hand-built
branch programs, the only ones that reach the steering path
(``MarionettePE._step_steered``, ``ControlFlowPart.on_branch_result``),
and :func:`self_forward_program`, the only one that forwards a token to
its own PE.  Each runs under the default timing and under ``SLOW``.

Regenerate (and review why) with ``--update-golden``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.arch.params import ArchParams
from repro.compiler.config_gen import generate_program
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, Operand
from repro.isa.program import ArrayProgram, TriggerEntry
from repro.kernels import KernelWorkload, load_kernel_suite
from repro.sim.array import STRATEGIES, ArraySimulator
from repro.sim.events import PEStats

from test_sim_array import branch_program
from test_sim_event import WORKLOAD_KERNELS, _compiled, data_branch_program

GOLDEN_SIM_RUNS = Path(__file__).parent / "golden" / "sim_runs.json"
EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples" / "kernels"
PE_FIELDS = [f.name for f in dataclasses.fields(PEStats) if f.name != "pe"]
#: The default timing never keeps a PE configuring across a cycle
#: (``t_config`` 1) nor fills a control FIFO; this timing does both.
SLOW = ArchParams(t_config=3, t_execute=3, data_net_latency=5,
                  ctrl_net_latency=2, control_fifo_depth=1)


def self_forward_program(params: ArchParams, n: int) -> ArrayProgram:
    """PE0's loop sends each index to its own port 0; its exit message
    goes to the controller and to PE0 itself, whose next instruction
    stores 7 at every index waiting in that port."""
    program = ArrayProgram(params.n_pes)
    program.declare_array(0, "OUT", 0, n)
    pe0 = program.program_for(0)
    pe0.add(TriggerEntry(1, DataInstruction.loop(
        Operand.imm(0), Operand.imm(n), Operand.imm(1),
        (Dest.pe_port(0, 0),),
    ), ControlDirective.loop(exit_addr=2, exit_targets=(0, params.n_pes))))
    pe0.add(TriggerEntry(2, DataInstruction.store(
        0, Operand.port(0), Operand.imm(7),
    )))
    program.set_initial(0, 1)
    return program


def _programs(params):
    """``(name, program, arrays)`` for every golden program."""
    for _path, package in load_kernel_suite(EXAMPLES_DIR):
        instance = KernelWorkload(package).instance(package.scale_hint)
        program = generate_program(instance.cdfg, params, instance.params,
                                   package.array_lengths())
        arrays = {decl.name: package.memory[decl.name]
                  for decl in package.arrays}
        yield f"kernel:{package.name}", program, arrays
    for name in sorted(WORKLOAD_KERNELS):
        _cdfg, arrays, program = _compiled(
            name, 17, np.random.default_rng(11), params)
        yield f"workload:{name}", program, arrays
    yield "branch_program", branch_program(params, 16), {}
    values = np.random.default_rng(0).integers(0, 50, 24)
    yield "data_branch_program", data_branch_program(params, 24), \
        {"A": values}
    yield "self_forward_program", self_forward_program(params, 12), {}


def _outcome(params, program, arrays, strategy) -> dict:
    sim = ArraySimulator(params, program, strategy=strategy)
    for name, values in arrays.items():
        sim.load_array(name, values)
    result = sim.run(halt_messages=999)
    stats, scratchpad = result.stats, result.scratchpad
    outcome = {
        "cycles": result.cycles,
        "halted": result.halted,
        "ctrl_network_conflicts": stats.ctrl_network_conflicts,
        "ctrl_msgs_delivered": stats.ctrl_msgs_delivered,
        "scratchpad_reads": scratchpad.reads,
        "scratchpad_writes": scratchpad.writes,
        "scratchpad_bank_conflicts": scratchpad.bank_conflicts,
        # repr keeps each word's type: 2 and 2.0 hash apart.
        "scratchpad_sha256": hashlib.sha256(
            repr(scratchpad.data).encode()).hexdigest(),
    }
    for name in PE_FIELDS:
        outcome[f"pe.{name}"] = [
            getattr(stats.pe_stats[pe], name) for pe in sorted(stats.pe_stats)
        ]
    return outcome


def _dump(runs: dict) -> str:
    """One line per recorded field, so a drift diffs to the field."""
    blocks = []
    for key in sorted(runs):
        fields = ",\n".join(f"    {json.dumps(name)}: {json.dumps(value)}"
                            for name, value in sorted(runs[key].items()))
        blocks.append(f"  {json.dumps(key)}: {{\n{fields}\n  }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


class TestSimulatorGolden:
    def test_runs_match_golden(self, request):
        runs = {
            f"{name}{tag}/{strategy}": _outcome(params, program, arrays,
                                                strategy)
            for tag, params in (("", ArchParams()), ("@slow", SLOW))
            for name, program, arrays in _programs(params)
            for strategy in STRATEGIES
        }
        if request.config.getoption("--update-golden"):
            GOLDEN_SIM_RUNS.write_text(_dump(runs), encoding="utf-8")
            return
        golden = json.loads(GOLDEN_SIM_RUNS.read_text(encoding="utf-8"))
        assert set(runs) == set(golden)
        drifted = sorted(
            f"{key}: {field}"
            for key, run in runs.items()
            for field in set(run) | set(golden[key])
            if run.get(field) != golden[key].get(field)
        )
        assert not drifted, f"simulator outcomes drifted: {drifted}"

"""Failure injection and error-path tests across the stack."""

import numpy as np
import pytest

from repro.errors import EncodingError, ReproError, SimulationError
from repro.arch.params import ArchParams
from repro.compiler.config_gen import generate_program
from repro.ir.builder import KernelBuilder
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, DestKind, Operand
from repro.isa.program import ArrayProgram, TriggerEntry
from repro.sim.array import ArraySimulator
from repro.workloads import get_workload


def _tiny_program(params):
    k = KernelBuilder("tiny")
    n = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, n) as i:
        k.store("o", i, k.load("x", i) + 1)
    return generate_program(
        k.build(), params, param_values={"n": 4},
        array_lengths={"x": 4, "o": 4},
    )


class TestArraySimulatorErrors:
    def test_unknown_array_load(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        with pytest.raises(SimulationError, match="not in program table"):
            sim.load_array("nonexistent", [1, 2, 3])

    def test_oversized_array_image(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        with pytest.raises(SimulationError, match="exceed"):
            sim.load_array("x", list(range(99)))

    def test_array_out_unknown_name(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(halt_messages=999)
        with pytest.raises(SimulationError) as excinfo:
            result.array_out(program, "nope")
        # The error names the array and lists what *is* declared.
        message = str(excinfo.value)
        assert "'nope'" in message
        assert "available" in message
        assert "x" in message and "o" in message

    def test_max_cycles_cutoff(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(max_cycles=3, halt_messages=1)
        assert result.cycles == 3
        assert not result.halted

    def test_quiescence_without_halt_message(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [5, 6, 7, 8])
        result = sim.run(halt_messages=999)  # never reached
        assert not result.halted              # quiesced instead
        assert list(result.array_out(program, "o")) == [6, 7, 8, 9]

    def test_small_control_fifo_still_correct(self):
        params = ArchParams(control_fifo_depth=1)
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(halt_messages=999)
        assert list(result.array_out(program, "o")) == [2, 3, 4, 5]


def _broken_program(params, fault):
    """A hand-built program that trips one of the simulator's checks."""
    program = ArrayProgram(params.n_pes)
    program.declare_array(0, "A", 0, 2)
    loop = ControlDirective.loop(exit_addr=9, exit_targets=(params.n_pes,))
    if fault in ("load", "store"):
        # One loop token, i = 5, indexes the 2-word array A.
        program.program_for(0).add(TriggerEntry(1, DataInstruction.loop(
            Operand.imm(5), Operand.imm(6), Operand.imm(1),
            (Dest.pe_port(1, 0),)), loop))
        access = DataInstruction.load(0, Operand.port(0), ()) \
            if fault == "load" \
            else DataInstruction.store(0, Operand.port(0), Operand.imm(7))
        program.program_for(1).add(TriggerEntry(1, access))
        program.set_initial(1, 1)
    elif fault == "steered":
        # i = 1 fails the branch, steering PE 2 to address 3: no entry.
        program.program_for(0).add(TriggerEntry(1, DataInstruction.loop(
            Operand.imm(0), Operand.imm(2), Operand.imm(1),
            (Dest.pe_port(1, 0),)), loop))
        program.program_for(1).add(TriggerEntry(
            1,
            DataInstruction.compute(Opcode.LT, (Operand.port(0),
                                                Operand.imm(1)),
                                    (Dest.control(),)),
            ControlDirective.branch(true_addr=2, false_addr=3,
                                    targets=(2,)),
        ))
        program.program_for(2).add(TriggerEntry(2, DataInstruction.compute(
            Opcode.NEG, (Operand.imm(0),), ())))
        program.set_initial(1, 1)
        program.set_initial(2, 2)
    else:  # "configured": PE 0 forwards address 5, which PE 1 lacks
        program.program_for(0).add(TriggerEntry(
            1, DataInstruction.nop(),
            ControlDirective.dfg(next_addr=5, targets=(1,))))
    program.set_initial(0, 1)
    return program


class TestSimulatorChecks:
    @pytest.mark.parametrize("strategy", ["event", "naive"])
    @pytest.mark.parametrize("fault, message", [
        ("load", r"A\[5\] out of bounds"),
        ("store", r"A\[5\] out of bounds"),
        ("steered", "steered to missing address 3"),
        ("configured", "configured to missing address 5"),
    ])
    def test_a_broken_program_raises(self, params, strategy, fault,
                                     message):
        sim = ArraySimulator(params, _broken_program(params, fault),
                             strategy=strategy)
        with pytest.raises(SimulationError, match=message):
            sim.run(halt_messages=999, max_cycles=1000)

    @pytest.mark.parametrize("strategy", ["event", "naive"])
    @pytest.mark.parametrize("dest", [
        Dest.pe_port(99, 0),
        Dest.pe_port(16, 0),   # one past the default 16-PE array
        Dest.pe_port(-1, 0),
        Dest(DestKind.PE_PORT, pe=1, port=9),  # past Dest.pe_port's check
        Dest(DestKind.PE_PORT, pe=1, port=-1),
    ], ids=["pe99", "pe16", "pe-1", "port9", "port-1"])
    def test_a_mesh_destination_out_of_range_is_refused(
            self, params, strategy, dest):
        """Deliveries append to a port unchecked, so the program's check
        must refuse every destination outside the array up front."""
        program = ArrayProgram(params.n_pes)
        program.program_for(0).add(TriggerEntry(1, DataInstruction.loop(
            Operand.imm(0), Operand.imm(2), Operand.imm(1), (dest,)),
            ControlDirective.loop(exit_addr=9,
                                  exit_targets=(params.n_pes,))))
        program.set_initial(0, 1)
        message = (rf"PE 0 addr 1: mesh destination PE {dest.pe} "
                   rf"port {dest.port} out of range")
        with pytest.raises(EncodingError, match=message):
            ArraySimulator(params, program, strategy=strategy).run(
                halt_messages=999, max_cycles=1000)

    def test_a_program_for_another_array_size_is_refused(self, params):
        program = ArrayProgram(2 * params.n_pes)
        with pytest.raises(SimulationError,
                           match=f"configured for {2 * params.n_pes} PEs"):
            ArraySimulator(params, program)


class TestWorkloadCheckCatchesCorruption:
    def test_corrupted_expected_output_detected(self):
        instance = get_workload("gray").instance("tiny")
        instance.expected["gray"] = instance.expected["gray"] + 1
        with pytest.raises(ReproError, match="mismatches reference"):
            instance.check()

    def test_corrupted_float_output_detected(self):
        instance = get_workload("sigmoid").instance("tiny")
        instance.expected["y"] = instance.expected["y"] * 1.5
        with pytest.raises(ReproError, match="mismatches reference"):
            instance.check()


class TestModelEdgeCases:
    def test_empty_kernel_models_do_not_crash(self):
        from repro.baselines import MarionetteModel
        from repro.baselines.base import KernelInstance
        from repro.ir.interp import Interpreter

        k = KernelBuilder("empty")
        cdfg = k.build()
        result = Interpreter(cdfg).run({}, {})
        kernel = KernelInstance(cdfg, result.trace)
        model_result = MarionetteModel(ArchParams()).simulate(kernel)
        assert model_result.cycles >= 1
        assert model_result.breakdowns == []


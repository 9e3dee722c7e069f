"""Integration tests for the micro-architectural array simulator.

These are the cycle-level validation programs: a loop-operator pipeline,
the Fig. 7(b) branch-divergence scenario with per-token steering, and
end-to-end equivalence against the functional interpreter through the
configuration generator.
"""

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, Operand
from repro.isa.program import ArrayProgram, TriggerEntry
from repro.sim.array import ArraySimulator


def vec_mul_program(params: ArchParams, n: int) -> ArrayProgram:
    """PE0 loop -> PE1/PE2 loads -> PE3 mul -> PE4 store."""
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


def branch_program(params: ArchParams, n: int) -> ArrayProgram:
    """Fig. 7(b): PE1 branches, PE2 holds both arm configurations."""
    program = ArrayProgram(params.n_pes)
    program.declare_array(2, "OUT", 0, n)
    program.program_for(0).add(TriggerEntry(
        1,
        DataInstruction.loop(
            Operand.imm(0), Operand.imm(n), Operand.imm(1),
            (Dest.pe_port(1, 0), Dest.pe_port(2, 0), Dest.pe_port(3, 1)),
        ),
        ControlDirective.loop(exit_addr=9, exit_targets=(params.n_pes,)),
    ))
    program.program_for(1).add(TriggerEntry(
        1,
        DataInstruction.compute(
            Opcode.LT, (Operand.port(0), Operand.imm(n // 2)),
            (Dest.control(),),
        ),
        ControlDirective.branch(true_addr=2, false_addr=3, targets=(2,)),
    ))
    pe2 = program.program_for(2)
    pe2.add(TriggerEntry(2, DataInstruction.compute(
        Opcode.MUL, (Operand.port(0), Operand.imm(2)),
        (Dest.pe_port(3, 0),),
    )))
    pe2.add(TriggerEntry(3, DataInstruction.compute(
        Opcode.ADD, (Operand.port(0), Operand.imm(10)),
        (Dest.pe_port(3, 0),),
    )))
    program.program_for(3).add(TriggerEntry(
        1, DataInstruction.store(2, Operand.port(1), Operand.port(0)),
    ))
    for pe, addr in ((0, 1), (1, 1), (2, 2), (3, 1)):
        program.set_initial(pe, addr)
    return program


class TestLoopPipeline:
    def test_functional_result(self, params):
        n = 16
        program = vec_mul_program(params, n)
        sim = ArraySimulator(params, program)
        a = np.arange(1, n + 1)
        b = np.arange(2, n + 2)
        sim.load_array("A", a)
        sim.load_array("B", b)
        result = sim.run(halt_messages=999)
        assert np.array_equal(result.array_out(program, "OUT"), a * b)

    def test_pipeline_ii_is_one(self, params):
        n = 24
        program = vec_mul_program(params, n)
        sim = ArraySimulator(params, program)
        sim.load_array("A", np.ones(n, dtype=np.int64))
        sim.load_array("B", np.ones(n, dtype=np.int64))
        result = sim.run(halt_messages=999)
        # The MUL PE fires once per element; steady state is one per cycle.
        assert result.stats.pe_stats[3].firings == n
        # Total cycles = startup + N + drain + quiescence window; with II=1
        # they scale ~linearly, far below 2 cycles/element.
        assert result.cycles < 2 * n + 60

    def test_loop_exit_reaches_controller(self, params):
        n = 4
        program = vec_mul_program(params, n)
        sim = ArraySimulator(params, program)
        sim.load_array("A", np.ones(n, dtype=np.int64))
        sim.load_array("B", np.ones(n, dtype=np.int64))
        result = sim.run(halt_messages=1)
        assert result.halted

    def test_utilization_counters_account_everything(self, params):
        n = 8
        program = vec_mul_program(params, n)
        sim = ArraySimulator(params, program)
        sim.load_array("A", np.ones(n, dtype=np.int64))
        sim.load_array("B", np.ones(n, dtype=np.int64))
        result = sim.run(halt_messages=999)
        for stats in result.stats.pe_stats.values():
            assert stats.total_cycles == result.cycles


class TestBranchSteering:
    def test_functional_result(self, params):
        n = 16
        program = branch_program(params, n)
        sim = ArraySimulator(params, program)
        result = sim.run(halt_messages=999)
        expected = np.array(
            [i * 2 if i < n // 2 else i + 10 for i in range(n)]
        )
        assert np.array_equal(result.array_out(program, "OUT"), expected)

    def test_configuration_time_is_hidden(self, params):
        """The steered PE reconfigures per token without visible config
        cycles: it fires N times but never enters the configuration phase
        after the initial one (Proactive PE Configuration, Fig. 7(b))."""
        n = 16
        program = branch_program(params, n)
        sim = ArraySimulator(params, program)
        result = sim.run(halt_messages=999)
        pe2 = result.stats.pe_stats[2]
        assert pe2.firings == n
        assert sim.pes[2].control.configurations <= 1
        assert pe2.cycles_configuring <= params.t_config

    def test_steering_order_matches_tokens(self, params):
        """Alternating branch outcomes must pair with their own tokens."""
        n = 12
        program = branch_program(params, n)
        sim = ArraySimulator(params, program)
        result = sim.run(halt_messages=999)
        out = result.array_out(program, "OUT")
        for i in range(n):
            assert out[i] == (i * 2 if i < n // 2 else i + 10)


class TestEndToEndViaConfigGen:
    @pytest.mark.parametrize("expr", ["affine", "sigmoid", "accumulate"])
    def test_simulator_matches_interpreter(self, params, expr):
        from repro.compiler.config_gen import generate_program
        from repro.ir.builder import KernelBuilder
        from repro.ir.interp import Interpreter

        n = 12
        k = KernelBuilder(f"e2e_{expr}")
        size = k.param("n")
        k.array("x")
        k.array("o")
        rng = np.random.default_rng(3)
        if expr == "affine":
            with k.loop("i", 0, size) as i:
                k.store("o", i, k.load("x", i) * 3 + 7)
            x = rng.integers(0, 50, n)
        elif expr == "sigmoid":
            with k.loop("i", 0, size) as i:
                k.store("o", i, k.sigmoid(k.load("x", i)))
            x = rng.normal(0, 1, n)
        else:
            k.set("acc", 0)
            with k.loop("i", 0, size) as i:
                k.set("acc", k.get("acc") + k.load("x", i))
                k.store("o", i, k.get("acc"))
            x = rng.integers(0, 10, n)
        cdfg = k.build()

        interp = Interpreter(cdfg).run(
            {"x": x, "o": np.zeros(n, dtype=x.dtype)}, {"n": n}
        )
        program = generate_program(
            cdfg, params, param_values={"n": n},
            array_lengths={"x": n, "o": n},
        )
        sim = ArraySimulator(params, program)
        sim.load_array("x", x)
        result = sim.run(halt_messages=999)
        assert np.allclose(
            result.array_out(program, "o"), interp.array("o"), atol=1e-9
        )

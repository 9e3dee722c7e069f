"""Tests for simulator components: FIFOs, scratchpad, control plane,
data path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, Operand
from repro.isa.program import PEProgram, TriggerEntry
from repro.sim.control_plane import ControlFlowPart
from repro.sim.datapath import DataFlowPart, Plan
from repro.sim.events import CtrlMsg
from repro.sim.fifo import Fifo
from repro.sim.memory import Scratchpad


class TestFifo:
    def test_order_preserved(self):
        fifo = Fifo()
        for i in range(5):
            fifo.push(i)
        assert [fifo.pop() for _ in range(5)] == list(range(5))

    def test_bounded_capacity(self):
        fifo = Fifo(2)
        fifo.push(1)
        fifo.push(2)
        assert fifo.full
        assert not fifo.try_push(3)
        with pytest.raises(SimulationError):
            fifo.push(3)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            Fifo().pop()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(), max_size=40))
    def test_fifo_is_exact_queue(self, items):
        fifo = Fifo()
        for item in items:
            fifo.push(item)
        assert fifo.drain() == items


class TestScratchpad:
    def test_read_write(self):
        pad = Scratchpad(64)
        pad.write(5, 42)
        assert pad.read(5) == 42

    def test_bounds(self):
        pad = Scratchpad(8)
        with pytest.raises(SimulationError):
            pad.read(8)
        with pytest.raises(SimulationError):
            pad.write(-1, 0)

    def test_bank_conflicts_counted(self):
        pad = Scratchpad(64, banks=4)
        pad.read(0, cycle=7)
        pad.read(4, cycle=7)  # same bank, same cycle
        pad.read(1, cycle=7)  # different bank
        assert pad.bank_conflicts == 1

    def test_array_load_dump(self):
        pad = Scratchpad(16)
        pad.load_array(4, [1, 2, 3])
        assert list(pad.dump_array(4, 3)) == [1, 2, 3]

    def test_array_overflow(self):
        pad = Scratchpad(4)
        with pytest.raises(SimulationError):
            pad.load_array(2, [1, 2, 3])


def _program_with(entries) -> PEProgram:
    program = PEProgram()
    for entry in entries:
        program.add(entry)
    return program


class TestControlFlowPart:
    def test_configuration_takes_t_config_cycles(self):
        program = _program_with([TriggerEntry(1, DataInstruction.nop())])
        part = ControlFlowPart(0, program, t_config=2)
        part.receive(CtrlMsg(0, 1))
        assert not part.configured
        part.step()
        assert part.configuring
        part.step()
        assert part.configured and part.current_addr == 1

    def test_same_address_sustains_configuration(self):
        program = _program_with([TriggerEntry(1, DataInstruction.nop())])
        part = ControlFlowPart(0, program, t_config=1)
        part.receive(CtrlMsg(0, 1))
        part.step()
        configurations = part.configurations
        part.receive(CtrlMsg(0, 1))
        part.step()
        assert part.configurations == configurations  # no reconfiguration

    def test_dfg_mode_proactive_emit(self):
        program = _program_with([TriggerEntry(
            1, DataInstruction.nop(),
            ControlDirective.dfg(next_addr=7, targets=(3, 4)),
        )])
        part = ControlFlowPart(0, program, t_config=1)
        part.receive(CtrlMsg(0, 1))
        msgs = part.step()
        assert {(m.dst_pe, m.addr) for m in msgs} == {(3, 7), (4, 7)}

    def test_branch_mode_steering(self):
        program = _program_with([TriggerEntry(
            1,
            DataInstruction.compute(
                Opcode.LT, (Operand.port(0), Operand.imm(5)),
                (Dest.control(),),
            ),
            ControlDirective.branch(true_addr=2, false_addr=3, targets=(9,)),
        )])
        part = ControlFlowPart(0, program, t_config=1)
        part.receive(CtrlMsg(0, 1))
        part.step()
        taken = part.on_branch_result(True)
        not_taken = part.on_branch_result(False)
        assert taken[0].addr == 2 and taken[0].steer
        assert not_taken[0].addr == 3

    def test_loop_mode_holds_then_releases(self):
        program = _program_with([
            TriggerEntry(
                1,
                DataInstruction.loop(
                    Operand.imm(0), Operand.imm(4), Operand.imm(1), ()
                ),
                ControlDirective.loop(exit_addr=9, exit_targets=(16,)),
            ),
            TriggerEntry(2, DataInstruction.nop()),
        ])
        part = ControlFlowPart(0, program, t_config=1)
        part.receive(CtrlMsg(0, 1))
        part.step()
        assert part.loop_holding
        part.receive(CtrlMsg(0, 2))   # queued behind the loop
        part.step()
        assert part.current_addr == 1  # still the loop
        exit_msgs = part.on_loop_exit()
        assert exit_msgs[0].addr == 9 and exit_msgs[0].dst_pe == 16
        part.step()  # now free to start configuring addr 2
        assert part.configuring or part.current_addr == 2

    def test_skipping_a_configuration_completion_raises(self):
        # The event stepper's lost-event guard.
        program = _program_with([TriggerEntry(1, DataInstruction.nop())])
        part = ControlFlowPart(0, program, t_config=3)
        part.receive(CtrlMsg(0, 1))
        part.step()  # countdown 3 -> 2
        with pytest.raises(SimulationError, match="skipped a configuration"):
            part.advance_idle(2)

    def test_full_pending_fifo_rejects(self):
        program = _program_with([
            TriggerEntry(a, DataInstruction.nop()) for a in range(1, 6)
        ])
        part = ControlFlowPart(0, program, t_config=1, fifo_depth=2)
        part.loop_holding = True  # force queueing
        assert part.receive(CtrlMsg(0, 1))
        assert part.receive(CtrlMsg(0, 2))
        assert not part.receive(CtrlMsg(0, 3))


class TestDataFlowPart:
    def test_compute_firing(self):
        part = DataFlowPart(0, t_execute=2)
        plan = Plan.decode(DataInstruction.compute(
            Opcode.ADD, (Operand.port(0), Operand.imm(10)), (Dest.reg(1),)
        ))
        part.push_token(0, 5)
        assert part.can_fire(plan)
        part.issue(plan, cycle=0)
        assert part.complete(1) == []
        outcomes = part.complete(2)
        assert outcomes[0].value == 15
        assert part.regs[1] == 15

    def test_cannot_fire_without_tokens(self):
        part = DataFlowPart(0, t_execute=2)
        plan = Plan.decode(DataInstruction.compute(
            Opcode.NEG, (Operand.port(2),), ()
        ))
        assert not part.can_fire(plan)

    def test_port_out_of_range_raises(self):
        part = DataFlowPart(0, t_execute=1)
        with pytest.raises(SimulationError, match="port 4 out of range"):
            part.push_token(4, 1.0)

    @pytest.mark.parametrize("step", [0, -1])
    def test_non_positive_loop_step_raises(self, step):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(DataInstruction.loop(
            Operand.imm(0), Operand.imm(4), Operand.imm(step), ()
        ))
        with pytest.raises(SimulationError, match="step must be positive"):
            part.issue(plan, 0)

    def test_pipelined_issue(self):
        part = DataFlowPart(0, t_execute=2)
        plan = Plan.decode(DataInstruction.compute(
            Opcode.ADD, (Operand.port(0), Operand.imm(1)), ()
        ))
        part.push_token(0, 10)
        part.push_token(0, 20)
        part.issue(plan, cycle=0)
        part.issue(plan, cycle=1)  # back-to-back (pipelined FU)
        assert [o.value for o in part.complete(2)] == [11]
        assert [o.value for o in part.complete(3)] == [21]

    def test_loop_operator_stream(self):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(DataInstruction.loop(
            Operand.imm(0), Operand.imm(3), Operand.imm(1), ()
        ))
        values = []
        cycle = 0
        while part.can_fire(plan):
            part.issue(plan, cycle)
            cycle += 1
            values.extend(o.value for o in part.complete(cycle))
        assert values == [0, 1, 2]
        assert part.loop_exhausted
        outcomes = part.complete(cycle + 1)
        assert not part.can_fire(plan)

    def test_zero_trip_loop_exits_immediately(self):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(DataInstruction.loop(
            Operand.imm(5), Operand.imm(5), Operand.imm(1), ()
        ))
        part.issue(plan, 0)
        outcomes = part.complete(1)
        assert outcomes[0].loop_exit
        assert outcomes[0].dests == ()

    def test_loop_rearm(self):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(DataInstruction.loop(
            Operand.imm(0), Operand.imm(2), Operand.imm(1), ()
        ))
        while part.can_fire(plan):
            part.issue(plan, 0)
        part.rearm_loop()
        assert part.can_fire(plan)

    def test_branch_result_to_control(self):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(DataInstruction.compute(
            Opcode.LT, (Operand.imm(1), Operand.imm(2)), (Dest.control(),)
        ))
        part.issue(plan, 0)
        outcome = part.complete(1)[0]
        assert outcome.branch_result is True

    def test_store_outcome(self):
        part = DataFlowPart(0, t_execute=1)
        plan = Plan.decode(
            DataInstruction.store(3, Operand.imm(7), Operand.imm(99))
        )
        part.issue(plan, 0)
        outcome = part.complete(1)[0]
        assert outcome.store == (3, 7, 99)

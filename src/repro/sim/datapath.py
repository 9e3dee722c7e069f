"""The data flow part of a Marionette PE.

A pipelined function unit (one issue per cycle, ``t_execute`` cycles to
complete, so firings finish in issue order), ``N_PORTS`` token input ports
fed by the mesh, and a small local register file.  The live instruction is
a *standing* configuration: it fires whenever its port sources all hold
tokens, giving the producer/consumer pipeline its II of 1 in the steady
state.

Each port is an unbounded ``collections.deque`` (the paper's simulator
"optimistically offers high memory access flexibility", Section 6.1).
The array appends deliveries to it directly, because
:meth:`~repro.isa.program.ArrayProgram.validate` has proven every mesh
destination's PE and port in range; :meth:`DataFlowPart.push_token`
keeps the check for direct callers.

The part never reads a :class:`~repro.isa.data.DataInstruction` while it
steps: each one is decoded once into a :class:`Plan` (the PE decodes its
whole program when it is built), and :meth:`DataFlowPart.can_fire`,
:meth:`~DataFlowPart.issue` and :meth:`~DataFlowPart.complete` read only
the plan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.ops import op_info
from repro.isa.data import DataInstruction, DataKind
from repro.isa.operands import DestKind, N_PORTS, N_REGS, OperandKind

_COMPUTE, _LOAD, _STORE, _LOOP, _NOP = (
    DataKind.COMPUTE, DataKind.LOAD, DataKind.STORE, DataKind.LOOP,
    DataKind.NOP,
)
_PORT, _REG = OperandKind.PORT, OperandKind.REG

#: A source operand as ``(kind, value)``: a port index, a register index,
#: or the immediate itself.
OperandPair = Tuple[OperandKind, float]


@dataclass(frozen=True, slots=True)
class Plan:
    """One data instruction, decoded for the per-cycle path."""

    kind: DataKind
    #: input ports consumed per firing
    ports: Tuple[int, ...]
    srcs: Tuple[OperandPair, ...]
    #: LOOP only: the (lo, hi, step) bound operands
    bounds: Tuple[OperandPair, ...]
    #: registers the sources read: a firing waits while one in flight
    #: writes one of them
    reads: FrozenSet[int]
    reg_dests: Tuple[int, ...]
    #: ``(pe, port)`` of every mesh destination
    mesh_dests: Tuple[Tuple[int, int], ...]
    #: the result is a branch outcome for the Control Flow Sender
    to_control: bool
    #: COMPUTE only: the opcode's semantics
    evaluate: Optional[Callable[..., float]]
    array_id: int

    @classmethod
    def decode(cls, instruction: DataInstruction) -> "Plan":
        srcs = tuple((o.kind, o.value) for o in instruction.srcs)
        dests = instruction.dests
        return cls(
            kind=instruction.kind,
            ports=instruction.port_sources,
            srcs=srcs,
            bounds=tuple((o.kind, o.value) for o in instruction.loop_bounds),
            reads=frozenset(value for kind, value in srcs if kind is _REG),
            reg_dests=tuple(d.port for d in dests if d.kind is DestKind.REG),
            mesh_dests=tuple((d.pe, d.port) for d in dests
                             if d.kind is DestKind.PE_PORT),
            to_control=any(d.kind is DestKind.CONTROL for d in dests),
            evaluate=(op_info(instruction.opcode).evaluate
                      if instruction.kind is _COMPUTE else None),
            array_id=instruction.array_id,
        )


@dataclass(slots=True)
class Firing:
    """An operation in flight through the FU pipeline."""

    complete_cycle: int
    plan: Plan
    values: List[float]


@dataclass(slots=True)
class FiringOutcome:
    """What a completed firing produces (consumed by the array).

    The data path builds it positionally, in field order.
    """

    #: ``(pe, port)`` mesh destinations of ``value`` (register and
    #: control destinations are handled in the data path)
    dests: Tuple[Tuple[int, int], ...]
    value: Optional[float] = None
    store: Optional[Tuple[int, int, float]] = None  # (array_id, index, value)
    load: Optional[Tuple[int, int]] = None          # (array_id, index)
    branch_result: Optional[bool] = None
    loop_exit: bool = False


class DataFlowPart:
    """FU + ports + registers for one PE."""

    def __init__(self, pe: int, *, t_execute: int) -> None:
        self.pe = pe
        self.t_execute = t_execute
        self.ports: List[Deque[float]] = [deque() for _ in range(N_PORTS)]
        self.regs: List[float] = [0] * N_REGS
        #: firings in the FU pipeline, in issue (= completion) order
        self.inflight: Deque[Firing] = deque()
        # Loop operator state.
        self._loop_latched = False
        self._loop_cur = 0
        self._loop_hi = 0
        self._loop_step = 1
        self.loop_exhausted = False

    # ------------------------------------------------------------------
    def push_token(self, port: int, value: float) -> None:
        if not 0 <= port < N_PORTS:
            raise SimulationError(f"PE {self.pe}: port {port} out of range")
        self.ports[port].append(value)

    def rearm_loop(self) -> None:
        """Restart the loop operator for a new run (new bounds latch)."""
        self._loop_latched = False
        self.loop_exhausted = False

    # ------------------------------------------------------------------
    def _self_recurrence_blocked(self, plan: Plan) -> bool:
        reads = plan.reads
        return any(not reads.isdisjoint(firing.plan.reg_dests)
                   for firing in self.inflight)

    def can_fire(self, plan: Plan) -> bool:
        """Whether all required port sources hold tokens.

        An instruction that reads a register it also writes (a loop-carried
        accumulator) must wait for its in-flight predecessor: the self
        recurrence bounds its II at ``t_execute``.
        """
        kind = plan.kind
        if kind is _NOP:
            return False
        if plan.reads and self.inflight \
                and self._self_recurrence_blocked(plan):
            return False
        if kind is _LOOP:
            if self.loop_exhausted:
                return False
            if self._loop_latched:
                return True
        ports = self.ports
        for port in plan.ports:
            if not ports[port]:
                return False
        return True

    def _take(self, operands: Sequence[OperandPair]) -> List[float]:
        """Operand values in order, popping one token per port source."""
        ports, regs = self.ports, self.regs
        return [
            ports[value].popleft() if kind is _PORT
            else regs[value] if kind is _REG else value
            for kind, value in operands
        ]

    # ------------------------------------------------------------------
    def issue(self, plan: Plan, cycle: int) -> None:
        """Consume operands and enter the FU pipeline (one per cycle)."""
        if plan.kind is _LOOP:
            if not self._loop_latched:
                lo, hi, step = self._take(plan.bounds)
                if step <= 0:
                    raise SimulationError(
                        f"PE {self.pe}: loop step must be positive"
                    )
                self._loop_latched = True
                self._loop_cur = lo
                self._loop_hi = hi
                self._loop_step = step
            if self._loop_cur >= self._loop_hi:
                # Zero-trip loop: emit nothing, signal exit immediately.
                self.loop_exhausted = True
                values: List[float] = []
            else:
                values = [self._loop_cur]
                self._loop_cur += self._loop_step
                if self._loop_cur >= self._loop_hi:
                    self.loop_exhausted = True
        else:
            values = self._take(plan.srcs)
        self.inflight.append(Firing(cycle + self.t_execute, plan, values))

    def complete(self, cycle: int) -> List[FiringOutcome]:
        """Finish firings due this cycle and report their outcomes."""
        inflight = self.inflight
        done = []
        while inflight and inflight[0].complete_cycle <= cycle:
            done.append(inflight.popleft())
        # The whole due prefix leaves the pipeline before any finishes:
        # a loop firing's exit test reads what is still in flight.
        return [self._finish(firing) for firing in done]

    def _finish(self, firing: Firing) -> FiringOutcome:
        plan = firing.plan
        kind = plan.kind
        values = firing.values
        if kind is _COMPUTE:
            result = plan.evaluate(*values)
            for reg in plan.reg_dests:
                self.regs[reg] = result
            return FiringOutcome(
                plan.mesh_dests, result, None, None,
                bool(result) if plan.to_control else None,
            )
        if kind is _LOAD:
            # Value resolved by the array, which owns the scratchpad.
            return FiringOutcome(
                plan.mesh_dests, None, None, (plan.array_id, int(values[0])),
            )
        if kind is _STORE:
            return FiringOutcome(
                (), None, (plan.array_id, int(values[0]), values[1]),
            )
        if kind is _LOOP:
            if not values:  # zero-trip loop
                return FiringOutcome((), None, None, None, None, True)
            is_last = self.loop_exhausted and not any(
                f.plan.kind is _LOOP for f in self.inflight
            )
            for reg in plan.reg_dests:
                self.regs[reg] = values[0]
            return FiringOutcome(
                plan.mesh_dests, values[0], None, None, None, is_last,
            )
        raise SimulationError(f"unexpected firing of {kind}")  # pragma: no cover

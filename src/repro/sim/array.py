"""The whole-array simulator: PEs + control network + data mesh + memory.

Per cycle:

1. deliver in-flight data tokens and control messages due this cycle;
2. offer queued control messages to the CS-Benes network (destination
   conflicts retry next cycle — the "no arbitration during control
   transfers" property holds for conflict-free sets);
3. step every PE (control part, then data part); collect emitted control
   messages and completed firings;
4. turn firing outcomes into scratchpad accesses and mesh tokens
   (fixed ``data_net_latency`` per remote transfer, same-PE register/port
   forwarding immediate).

The simulation halts when a control message reaches the controller port
(kernels route their final basic block's exit there) or when the array goes
quiescent.

Two stepping strategies produce bit-identical results:

* ``strategy="event"`` (default) is the fast path: it only steps PEs that
  can actually act — delivery targets, PEs with a pending configuration or
  a fireable instruction, and PEs whose configuration countdown or
  in-flight firing reaches its deadline — and, when a whole cycle has no
  event, jumps ``cycle`` straight to the next delivery / deadline /
  quiescence point.  Skipped idle cycles are billed to the per-PE stats
  counters in O(1) jumps (:meth:`MarionettePE.advance_to`), so cycle
  counts, ``ArrayStats``, and scratchpad images match the naive stepper
  exactly;
* ``strategy="naive"`` is the reference stepper (every PE, every cycle),
  kept for differential testing — see ``tests/test_sim_event.py``.

Both strategies share the per-cycle path below the run loop: a data token
in flight is a plain ``(dst_pe, port, value)`` tuple, and a delivery
appends its value straight to the destination port's deque.  The
constructor runs :meth:`ArrayProgram.validate`, which proves every mesh
destination's PE and port in range, so no delivery checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.arch.network.cs_benes import ControlMessage, ControlNetwork
from repro.arch.params import ArchParams
from repro.isa.control import SenderMode
from repro.isa.program import ArrayProgram
from repro.sim.events import (
    ArrayStats,
    CtrlMsg,
    DeliverySchedule,
    MulticastQueue,
)
from repro.sim.memory import Scratchpad
from repro.sim.pe import MarionettePE

#: Stepping strategies accepted by :class:`ArraySimulator`.
STRATEGIES = ("event", "naive")


@dataclass
class SimulationResult:
    """Outcome of one array simulation."""

    cycles: int
    stats: ArrayStats
    scratchpad: Scratchpad
    halted: bool

    def array_out(self, program: ArrayProgram, name: str) -> np.ndarray:
        """Dump a named array image from the scratchpad."""
        entry = program.array_index().get(name)
        if entry is None:
            available = sorted(program.array_index())
            raise SimulationError(
                f"array {name!r} not in program table "
                f"(available: {', '.join(available) or 'none'})"
            )
        base, length = entry
        return self.scratchpad.dump_array(base, length)


class ArraySimulator:
    """Cycle-accurate simulator of a Marionette array."""

    def __init__(self, params: ArchParams, program: ArrayProgram,
                 *, strategy: str = "event") -> None:
        program.validate()
        if strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown stepping strategy {strategy!r}; "
                f"pick one of {STRATEGIES}"
            )
        if program.n_pes != params.n_pes:
            raise SimulationError(
                f"program is configured for {program.n_pes} PEs, the "
                f"array has {params.n_pes}"
            )
        self.params = params
        self.program = program
        self.strategy = strategy
        self.scratchpad = Scratchpad(params.sram_kb * 1024 // 4,
                                     banks=params.sram_banks)
        self.network = ControlNetwork(
            params.n_pes, latency=params.control_transfer_latency
        )
        steered = self._steered_pes()
        self.pes: Dict[int, MarionettePE] = {
            pe: MarionettePE(
                pe, program.program_for(pe),
                t_config=params.t_config, t_execute=params.t_execute,
                fifo_depth=params.control_fifo_depth,
                steered=pe in steered,
            )
            for pe in range(params.n_pes)
        }
        for (pe, reg), value in program.reg_init.items():
            self.pes[pe].data.regs[reg] = value
        #: PE id -> its data ports, the deques deliveries append to
        self._ports: List[List[Deque[float]]] = [
            self.pes[pe].data.ports for pe in range(params.n_pes)
        ]
        # In-flight queues keyed by delivery cycle.
        self._data_inflight = DeliverySchedule()
        self._ctrl_inflight = DeliverySchedule()
        self._ctrl_queue = MulticastQueue()
        self._controller_msgs: List[CtrlMsg] = []
        #: event strategy: PE -> next cycle it can act spontaneously.
        self._pe_next: Dict[int, int] = {}
        #: event strategy: PEs with firings in the FU pipeline.  Inflight
        #: only changes inside a PE's own step, so maintaining the set on
        #: stepped PEs keeps the busy checks O(live), not O(n_pes).
        self._inflight_pes: Set[int] = set()
        self.stats = ArrayStats()

    # ------------------------------------------------------------------
    def _steered_pes(self) -> set:
        out = set()
        for pe, pe_program in self.program.pe_programs.items():
            for entry in pe_program:
                if entry.control.mode is SenderMode.BRANCH:
                    out.update(entry.control.targets)
        return out

    # ------------------------------------------------------------------
    def load_array(self, name: str, values) -> None:
        """Pre-load a named array image into the scratchpad."""
        entry = self.program.array_index().get(name)
        if entry is None:
            raise SimulationError(f"array {name!r} not in program table")
        base, length = entry
        if len(values) > length:
            raise SimulationError(
                f"array {name!r}: {len(values)} values exceed "
                f"declared length {length}"
            )
        self.scratchpad.load_array(base, values)

    # ------------------------------------------------------------------
    def run(self, *, max_cycles: int = 200_000,
            halt_messages: int = 1) -> SimulationResult:
        """Run until the controller hears ``halt_messages`` exits, the
        array quiesces, or ``max_cycles`` elapse."""
        # Cycle 0: the controller pushes initial configurations.
        for pe, addr in self.program.initial_addrs.items():
            self._ctrl_queue.append(
                CtrlMsg(dst_pe=pe, addr=addr, src_pe=self.params.n_pes)
            )
        if self.strategy == "naive":
            cycle = self._run_naive(max_cycles, halt_messages)
        else:
            cycle = self._run_event(max_cycles, halt_messages)
        return self._finalize(cycle)

    def _run_naive(self, max_cycles: int, halt_messages: int) -> int:
        """The reference loop: step every cycle, poll every PE."""
        cycle = 0
        idle_streak = 0
        idle_limit = self._idle_limit()
        while cycle < max_cycles:
            busy = self._step_cycle(cycle)
            cycle += 1
            if len(self._controller_msgs) >= halt_messages:
                self.stats.halted = True
                break
            idle_streak = 0 if busy else idle_streak + 1
            if idle_streak > idle_limit:
                break
        return cycle

    def _run_event(self, max_cycles: int, halt_messages: int) -> int:
        """The fast path: step event cycles, jump across the rest.

        Events are cycles where anything can happen: a delivery is due,
        the control queue holds messages to offer, or some PE can act
        (see :meth:`MarionettePE.next_event`).  Between events the array
        state is frozen except for counters, so the loop advances
        ``cycle`` directly — crediting the naive stepper's idle-streak
        quiescence window cycle-for-cycle when nothing at all is in
        flight — and the skipped stretch is billed to the PE stats
        lazily on the next touch (:meth:`MarionettePE.advance_to`).
        """
        cycle = 0
        idle_streak = 0
        idle_limit = self._idle_limit()
        while cycle < max_cycles:
            busy = self._step_cycle_event(cycle)
            cycle += 1
            if len(self._controller_msgs) >= halt_messages:
                self.stats.halted = True
                break
            idle_streak = 0 if busy else idle_streak + 1
            if idle_streak > idle_limit:
                break
            target, busy_skip = self._skip_target(
                cycle, idle_streak, idle_limit, max_cycles
            )
            if target > cycle:
                if not busy_skip:
                    idle_streak += target - cycle
                cycle = target
                if cycle >= max_cycles or idle_streak > idle_limit:
                    break
        return cycle

    def _idle_limit(self) -> int:
        return 4 * self.params.data_net_latency + 8

    def _busy_while_skipping(self) -> bool:
        """Whether the naive stepper would report skipped cycles busy.

        Matches the tail of :meth:`_step_cycle`: anything in flight
        keeps the idle-streak quiescence detector at zero even when no
        PE acts.  (The control queue is empty during a skip — a
        non-empty queue is an immediate event.)
        """
        return bool(self._data_inflight or self._ctrl_inflight
                    or self._ctrl_queue or self._inflight_pes)

    def _skip_target(self, cycle: int, idle_streak: int, idle_limit: int,
                     max_cycles: int) -> Tuple[int, bool]:
        """``(next cycle worth executing, busy-while-skipping)``.

        The target is ``cycle`` itself when the next cycle is an event.
        When nothing is in flight, the naive stepper would grind idle
        cycles only until its quiescence window closes — so the skip is
        capped at that break point (and at ``max_cycles``), keeping the
        final cycle count identical.
        """
        nxt = self._next_event_cycle(cycle)
        busy_skip = self._busy_while_skipping()
        if busy_skip:
            horizon = max_cycles
        else:
            horizon = min(max_cycles,
                          cycle + idle_limit - idle_streak + 1)
        if nxt is None:
            return horizon, busy_skip
        return min(max(nxt, cycle), horizon), busy_skip

    def _next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which anything can happen."""
        if self._ctrl_queue:
            return now
        best: Optional[int] = None
        for when in (self._data_inflight.next_cycle(),
                     self._ctrl_inflight.next_cycle()):
            if when is not None:
                best = when if best is None else min(best, when)
        if self._pe_next:
            when = min(self._pe_next.values())
            best = when if best is None else min(best, when)
        return best

    def _finalize(self, cycle: int) -> SimulationResult:
        for pe in self.pes.values():
            pe.advance_to(cycle)  # bill idle cycles skipped at the tail
        self.stats.cycles = cycle
        self.stats.pe_stats = {pe: p.stats for pe, p in self.pes.items()}
        self.stats.ctrl_network_conflicts = self.network.conflicts
        self.stats.ctrl_msgs_delivered = self.network.messages_delivered
        return SimulationResult(
            cycles=cycle, stats=self.stats, scratchpad=self.scratchpad,
            halted=self.stats.halted,
        )

    # ------------------------------------------------------------------
    def _offer_ctrl_queue(self, cycle: int) -> None:
        """Step 2: offer queued control messages to the network.  A
        sender's same-address fan-out is one multicast (the CS stage
        spreads it); groups are maintained at enqueue time."""
        offered = [
            ControlMessage.to(
                max(0, src), [m.dst_pe for m in msgs], payload=msgs
            )
            for (src, _addr, _steer), msgs in self._ctrl_queue.groups()
        ]
        report = self.network.offer(offered)
        self._ctrl_queue.reset_to(
            rejected.payload for rejected in report.rejected
        )
        arrival = cycle + self.params.control_transfer_latency
        for delivered in report.delivered:
            self._ctrl_inflight.extend(arrival, delivered.payload)

    def _step_cycle(self, cycle: int) -> bool:
        busy = False

        # 1. Deliveries due this cycle.
        for dst_pe, port, value in self._data_inflight.pop_due(cycle):
            self._ports[dst_pe][port].append(value)
            busy = True
        for msg in self._ctrl_inflight.pop_due(cycle):
            if msg.dst_pe >= self.params.n_pes:
                self._controller_msgs.append(msg)
            elif not self.pes[msg.dst_pe].control.receive(msg):
                self._ctrl_queue.append(msg)  # control FIFO full: retry
            busy = True

        # 2. Offer queued control messages to the network.
        if self._ctrl_queue:
            self._offer_ctrl_queue(cycle)
            busy = True

        # 3. Step PEs.
        for pe in self.pes.values():
            msgs, outcomes = pe.step(cycle)
            if msgs or outcomes:
                busy = True
            self._ctrl_queue.extend(msgs)
            for outcome in outcomes:
                self._apply_outcome(pe, outcome, cycle)

        if any(pe.data.inflight for pe in self.pes.values()):
            busy = True
        if self._data_inflight or self._ctrl_inflight or self._ctrl_queue:
            busy = True
        return busy

    def _step_cycle_event(self, cycle: int) -> bool:
        """One cycle of the event strategy: only live PEs are stepped.

        A PE is live when a delivery lands on it this cycle or its
        scheduled :meth:`~repro.sim.pe.MarionettePE.next_event` is due.
        Idle PEs neither act nor emit in the naive stepper, so skipping
        them changes nothing observable; their per-cycle stats counters
        are credited lazily by :meth:`~repro.sim.pe.MarionettePE.advance_to`.
        """
        busy = False
        touched: Set[int] = set()
        pes, ctrl_queue = self.pes, self._ctrl_queue

        # 1. Deliveries due this cycle.
        tokens = self._data_inflight.pop_due(cycle)
        if tokens:
            busy = True
            ports = self._ports
            for dst_pe, port, value in tokens:
                ports[dst_pe][port].append(value)
                touched.add(dst_pe)
        for msg in self._ctrl_inflight.pop_due(cycle):
            if msg.dst_pe >= self.params.n_pes:
                self._controller_msgs.append(msg)
            else:
                if not pes[msg.dst_pe].control.receive(msg):
                    ctrl_queue.append(msg)  # control FIFO full: retry
                touched.add(msg.dst_pe)
            busy = True

        # 2. Offer queued control messages to the network.
        if ctrl_queue:
            self._offer_ctrl_queue(cycle)
            busy = True

        # 3. Step the live PEs (ascending id, like the naive full scan:
        # scratchpad access order and control-queue order are
        # observable through bank conflicts and network arbitration).
        pe_next, inflight_pes = self._pe_next, self._inflight_pes
        touched.update(pe for pe, when in pe_next.items() if when <= cycle)
        for pe_id in sorted(touched):
            pe = pes[pe_id]
            if pe.accrued_to < cycle:
                pe.advance_to(cycle)
            msgs, outcomes = pe.step(cycle)
            if msgs:
                busy = True
                ctrl_queue.extend(msgs)
            if outcomes:
                busy = True
                for outcome in outcomes:
                    self._apply_outcome(pe, outcome, cycle)
            when = pe.next_event(cycle + 1)
            if when is None:
                pe_next.pop(pe_id, None)
            else:
                pe_next[pe_id] = when
            if pe.data.inflight:
                inflight_pes.add(pe_id)
            else:
                inflight_pes.discard(pe_id)

        if inflight_pes or self._data_inflight or self._ctrl_inflight \
                or ctrl_queue:
            busy = True
        return busy

    # ------------------------------------------------------------------
    def _apply_outcome(self, pe: MarionettePE, outcome,
                       cycle: int) -> None:
        value = outcome.value
        if outcome.load is not None:
            array_id, index = outcome.load
            name, base, length = self.program.array_table[array_id]
            if not 0 <= index < length:
                raise SimulationError(
                    f"PE {pe.pe}: {name}[{index}] out of bounds"
                )
            value = self.scratchpad.read(base + index, cycle)
        if outcome.store is not None:
            array_id, index, stored = outcome.store
            name, base, length = self.program.array_table[array_id]
            if not 0 <= index < length:
                raise SimulationError(
                    f"PE {pe.pe}: {name}[{index}] out of bounds"
                )
            self.scratchpad.write(base + index, stored, cycle)
            return
        if value is None:
            return
        # Same-PE forwarding lands at once; the rest rides the mesh.
        remote = []
        for dst_pe, port in outcome.dests:
            if dst_pe == pe.pe:
                pe.data.ports[port].append(value)
            else:
                remote.append((dst_pe, port, value))
        if remote:
            self._data_inflight.extend(
                cycle + self.params.data_net_latency, remote)
            pe.stats.data_tokens_sent += len(remote)

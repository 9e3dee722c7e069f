"""The control flow part of a Marionette PE.

Implements the three control-plane micro-architecture units of paper
Section 4.1 / Fig. 5:

* **Control Flow Trigger** — check phase (compare incoming instruction
  address against the current one; identical addresses sustain the standing
  configuration) and configuration phase (``t_config`` cycles to swap the
  live instruction);
* **Control Flow Scheduler** — queues standing configuration requests in a
  control FIFO and serves them in arrival order, holding them off while a
  LOOP-mode instruction is still iterating (Remain Loop Config).  The
  paper's arbiter favours deeper loop levels (Section 4.3); this model
  does not read :attr:`~repro.isa.control.ControlDirective.priority`;
* **Control Flow Sender** — on becoming configured in DFG mode, proactively
  forwards ``next_addr`` to the subsequent PEs (Proactive Emit); in BRANCH
  mode, converts each branch result into per-token steering messages; in
  LOOP mode, announces ``exit_addr`` when the data path drains the loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulationError
from repro.isa.control import SenderMode
from repro.isa.program import PEProgram, TriggerEntry
from repro.sim.events import CtrlMsg
from repro.sim.fifo import Fifo


class ControlFlowPart:
    """Trigger + Scheduler + Sender for one PE."""

    def __init__(self, pe: int, program: PEProgram, *, t_config: int,
                 fifo_depth: int = 8) -> None:
        self.pe = pe
        self.program = program
        self.t_config = t_config
        self.current_addr: Optional[int] = None
        #: cycles left in the configuration phase (0: not configuring);
        #: the PE's step path reads it directly
        self.config_timer = 0
        self._config_target: Optional[int] = None
        #: standing configuration requests (the per-PE control FIFO)
        self.pending: Fifo[int] = Fifo(fifo_depth, name=f"pe{pe}.ctrl")
        #: per-token steering addresses from BRANCH-mode senders
        self.steer: Fifo[int] = Fifo(None, name=f"pe{pe}.steer")
        #: set when the live LOOP instruction still iterates
        self.loop_holding = False
        #: set when a same-address LOOP config asks for a counter restart
        self.rearm_pending = False
        self.configurations = 0

    # ------------------------------------------------------------------
    @property
    def configured(self) -> bool:
        return self.current_addr is not None and self.config_timer == 0

    @property
    def configuring(self) -> bool:
        return self.config_timer > 0

    def entry(self) -> Optional[TriggerEntry]:
        if self.current_addr is None:
            return None
        return self.program.get(self.current_addr)

    # ------------------------------------------------------------------
    # Event-driven scheduling hooks
    # ------------------------------------------------------------------
    def idle_category(self) -> str:
        """Which :class:`~repro.sim.events.PEStats` counter an externally
        quiet cycle bills: ``configuring`` / ``unconfigured`` /
        ``waiting`` — mirroring the accounting order in
        :meth:`MarionettePE.step`."""
        if self.config_timer > 0:
            return "configuring"
        if self.current_addr is None:
            return "unconfigured"
        return "waiting"

    def advance_idle(self, delta: int) -> str:
        """Advance ``delta`` externally quiet cycles in one jump.

        During such cycles the control part's only per-cycle work is the
        configuration countdown, so the whole stretch bills one stats
        category.  The event scheduler steps the PE *at* its
        configuration-completion deadline, so the countdown can never
        cross zero inside a jump; hitting that means the scheduler lost
        an event, which would silently diverge from the naive stepper —
        fail loudly instead.
        """
        category = self.idle_category()
        if self.config_timer > 0:
            if delta >= self.config_timer:
                raise SimulationError(
                    f"PE {self.pe}: event scheduler skipped a "
                    f"configuration completion ({delta} >= "
                    f"{self.config_timer})"
                )
            self.config_timer -= delta
        return category

    # ------------------------------------------------------------------
    # Check phase
    # ------------------------------------------------------------------
    def receive(self, msg: CtrlMsg) -> bool:
        """Accept an incoming control message.

        Steering goes to the steer FIFO (consumed one per firing); standing
        configuration goes through the trigger's check phase.  Returns
        ``False`` when a bounded FIFO is full (the network retries).
        """
        if msg.steer:
            self.steer.push(msg.addr)
            return True
        if msg.addr == self.current_addr and not self.configuring:
            # Same address: sustain the configuration.  A LOOP entry is
            # re-armed so the next loop run restarts the counter.
            entry = self.entry()
            if entry is not None and entry.control.mode is SenderMode.LOOP:
                return self._rearm_requested()
            return True
        return self.pending.try_push(msg.addr)

    def _rearm_requested(self) -> bool:
        self.rearm_pending = True
        return True

    # ------------------------------------------------------------------
    # Configuration phase
    # ------------------------------------------------------------------
    def step(self) -> List[CtrlMsg]:
        """Advance one cycle; returns Sender messages to inject.

        The check phase (popping a pending address) overlaps the first
        configuration cycle, so a swap costs exactly ``t_config`` cycles.
        """
        out: List[CtrlMsg] = []
        if self.config_timer == 0 and not self.pending.empty \
                and not self.loop_holding:
            addr = self.pending.pop()
            if addr != self.current_addr:
                self._config_target = addr
                self.config_timer = self.t_config
            # Identical queued address: drop (check phase already ran).
        if self.config_timer > 0:
            self.config_timer -= 1
            if self.config_timer == 0:
                self.current_addr = self._config_target
                self._config_target = None
                self.configurations += 1
                out.extend(self._on_configured())
        return out

    def _on_configured(self) -> List[CtrlMsg]:
        """Proactive Emit: DFG-mode entries forward control immediately."""
        entry = self.entry()
        if entry is None:
            raise SimulationError(
                f"PE {self.pe} configured to missing address "
                f"{self.current_addr}"
            )
        directive = entry.control
        if directive.mode is SenderMode.DFG:
            return [
                CtrlMsg(dst_pe=t, addr=directive.next_addr, src_pe=self.pe)
                for t in directive.targets
            ]
        if directive.mode is SenderMode.LOOP:
            self.loop_holding = True
        return []

    # ------------------------------------------------------------------
    # Sender events driven by the data path
    # ------------------------------------------------------------------
    def on_branch_result(self, taken: bool) -> List[CtrlMsg]:
        entry = self.entry()
        if entry is None or entry.control.mode is not SenderMode.BRANCH:
            return []
        directive = entry.control
        addr = directive.true_addr if taken else directive.false_addr
        return [
            CtrlMsg(dst_pe=t, addr=addr, src_pe=self.pe, steer=True)
            for t in directive.targets
        ]

    def on_loop_exit(self) -> List[CtrlMsg]:
        entry = self.entry()
        if entry is None or entry.control.mode is not SenderMode.LOOP:
            return []
        self.loop_holding = False
        directive = entry.control
        return [
            CtrlMsg(dst_pe=t, addr=directive.exit_addr, src_pe=self.pe)
            for t in directive.exit_targets
        ]

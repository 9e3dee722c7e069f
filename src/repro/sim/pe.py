"""A complete Marionette PE: control flow part + data flow part.

The decoupling shows in :meth:`MarionettePE.step`: the control part may be in
its configuration phase while the data part is still issuing and completing
firings of the previous standing instruction — the temporally
loosely-coupled behaviour of paper Fig. 4(a)/(b).

:meth:`~MarionettePE.step` and :meth:`~MarionettePE.next_event` run once
per live PE per cycle, so they read the control part's fields
(``config_timer``, ``pending.items``, ``loop_holding``, ``current_addr``)
directly rather than through properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.isa.program import PEProgram
from repro.sim.control_plane import ControlFlowPart
from repro.sim.datapath import DataFlowPart, FiringOutcome, Plan
from repro.sim.events import CtrlMsg, PEStats


class MarionettePE:
    """One PE of the array simulator."""

    def __init__(self, pe: int, program: PEProgram, *, t_config: int,
                 t_execute: int, fifo_depth: int = 8,
                 steered: bool = False) -> None:
        self.pe = pe
        self.control = ControlFlowPart(
            pe, program, t_config=t_config, fifo_depth=fifo_depth
        )
        self.data = DataFlowPart(pe, t_execute=t_execute)
        #: the data instruction at each program address, decoded once
        self.plans: Dict[int, Plan] = {
            addr: Plan.decode(entry.data)
            for addr, entry in program.entries.items()
        }
        #: PEs targeted by BRANCH-mode senders consume one steering address
        #: per firing, keeping token/configuration pairing exact.
        self.steered = steered
        self.stats = PEStats(pe)
        #: first cycle whose accounting has not been applied yet (the
        #: event-driven stepper bills skipped idle cycles lazily).
        self.accrued_to = 0

    # ------------------------------------------------------------------
    # Event-driven scheduling
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which this PE can act without new
        external input, or ``None`` while it is idle until a delivery.

        ``now`` means "can act immediately next step": the PE would pop a
        pending configuration, apply a re-arm, or issue a firing.  Future
        deadlines come from the configuration countdown and from firings
        in flight through the FU pipeline.  Everything else that changes
        this PE's readiness arrives over the networks, and the array
        steps every delivery target on its arrival cycle.
        """
        ctrl = self.control
        if ctrl.rearm_pending:
            return now
        deadline: Optional[int] = None
        if ctrl.config_timer:
            # The countdown decrements once per cycle starting at `now`,
            # completing (and proactively emitting) config_timer - 1
            # cycles later.
            deadline = now + ctrl.config_timer - 1
        elif ctrl.pending.items and not ctrl.loop_holding:
            return now  # the check phase pops a pending address
        elif ctrl.current_addr is not None:  # configured
            if self.steered:
                steer = ctrl.steer.items
                if steer:
                    plan = self.plans.get(steer[0])
                    # A missing steered address must still step (and
                    # raise) exactly like the naive stepper would.
                    if plan is None or self.data.can_fire(plan):
                        return now
            else:
                plan = self.plans.get(ctrl.current_addr)
                if plan is not None and self.data.can_fire(plan):
                    return now
        inflight = self.data.inflight
        if inflight:
            # The FU pipeline completes in issue order.
            complete = inflight[0].complete_cycle
            if complete < now:
                complete = now
            if deadline is None or complete < deadline:
                deadline = complete
        return deadline

    def advance_to(self, cycle: int) -> None:
        """Account the externally quiet cycles up to (excluding) ``cycle``.

        While a PE is neither stepped nor delivered to, its state is
        frozen except for the configuration countdown — so the whole
        stretch bills a single stats counter, in one O(1) jump instead
        of one :meth:`step` per cycle.
        """
        delta = cycle - self.accrued_to
        if delta <= 0:
            return
        category = self.control.advance_idle(delta)
        if category == "configuring":
            self.stats.cycles_configuring += delta
        elif category == "unconfigured":
            self.stats.cycles_unconfigured += delta
        else:
            self.stats.cycles_waiting += delta
        self.accrued_to = cycle

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> Tuple[List[CtrlMsg], List[FiringOutcome]]:
        """Advance one cycle.

        Returns control messages emitted by the Sender and firing outcomes
        completed by the FU this cycle (the array turns outcomes into data
        tokens / memory operations / steering).
        """
        control, data = self.control, self.data
        out_msgs: List[CtrlMsg] = []

        # 1. Complete in-flight firings (their results may drive the Sender).
        outcomes = data.complete(cycle) if data.inflight else []
        for outcome in outcomes:
            if outcome.branch_result is not None:
                out_msgs += control.on_branch_result(outcome.branch_result)
            if outcome.loop_exit:
                out_msgs += control.on_loop_exit()

        # 2. Control part: check/configuration phases + Proactive Emit.
        if control.config_timer or control.pending.items:
            out_msgs += control.step()
        if control.rearm_pending:
            control.rearm_pending = False
            data.rearm_loop()
            control.loop_holding = True

        # 3. Data part: apply per-token steering, then issue if ready.
        # Only a firing moves current_addr, so `addr` stays valid for the
        # accounting below whenever nothing issues.
        issued = False
        configuring = control.config_timer
        addr = control.current_addr
        if not configuring and addr is not None:
            if self.steered:
                issued = self._step_steered(cycle)
            else:
                plan = self.plans.get(addr)
                if plan is not None and data.can_fire(plan):
                    data.issue(plan, cycle)
                    issued = True

        # 4. Accounting.
        stats = self.stats
        if issued:
            stats.firings += 1
            stats.cycles_executing += 1
        elif configuring:
            stats.cycles_configuring += 1
        elif addr is None:
            stats.cycles_unconfigured += 1
        else:
            stats.cycles_waiting += 1
        if out_msgs:
            stats.ctrl_msgs_sent += len(out_msgs)
        self.accrued_to = cycle + 1
        return out_msgs, outcomes

    # ------------------------------------------------------------------
    def _step_steered(self, cycle: int) -> bool:
        """Steered PEs fire under the instruction address paired with the
        current token (one steering address consumed per firing)."""
        steer = self.control.steer
        if not steer:
            return False
        addr = steer.peek()
        plan = self.plans.get(addr)
        if plan is None:
            raise SimulationError(
                f"PE {self.pe}: steered to missing address {addr}"
            )
        if not self.data.can_fire(plan):
            return False
        steer.pop()
        # The check phase sustains the configuration when the address
        # repeats; a change would cost a configuration cycle, but steering
        # addresses arrive ahead of data (control net 1 cycle vs mesh ~6),
        # so the swap is hidden — model it as already configured.
        self.control.current_addr = addr
        self.data.issue(plan, cycle)
        return True

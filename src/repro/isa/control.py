"""Control-plane instructions: the Control Flow Sender directive.

Each instruction address carries one directive telling the Control Flow
Sender how to propagate control (paper Fig. 7(a)):

* ``DFG`` — current and successor PEs share a basic block: *proactively*
  forward ``next_addr`` to ``targets`` as soon as this PE is configured
  (Proactive Emit, Fig. 7(b)); configuration of downstream PEs overlaps
  this PE's computation;
* ``BRANCH`` — successors are in different basic blocks: wait for the data
  path's branch result, then send ``true_addr`` or ``false_addr`` to
  ``targets`` (no proactive transfer is possible);
* ``LOOP`` — the loop operator: retain this configuration while iterating
  (rejecting reconfiguration), and on loop exit send ``exit_addr`` to
  ``exit_targets`` (Proactive Config / Remain Loop Config, Fig. 7(c));
* ``NONE`` — leaf PE; no control propagation.

``priority`` orders configurations in the paper's Control Flow Scheduler
arbiter (deeper loop levels win, Section 4.3).  It is encoded, but the
cycle-level simulator (:mod:`repro.sim.control_plane`) does not read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.errors import EncodingError

#: Sentinel instruction address meaning "no address".
NO_ADDR = 0xFF


class SenderMode(enum.Enum):
    NONE = "none"
    DFG = "dfg"
    BRANCH = "branch"
    LOOP = "loop"


@dataclass(frozen=True)
class ControlDirective:
    """Control Flow Sender configuration for one instruction address."""

    mode: SenderMode = SenderMode.NONE
    #: DFG mode: the address to forward proactively.
    next_addr: int = NO_ADDR
    #: BRANCH mode: addresses selected by the branch result.
    true_addr: int = NO_ADDR
    false_addr: int = NO_ADDR
    #: PEs receiving the selected/forwarded address (``n_pes`` addresses the
    #: controller port).
    targets: Tuple[int, ...] = ()
    #: LOOP mode: where control goes when the loop drains.
    exit_addr: int = NO_ADDR
    exit_targets: Tuple[int, ...] = ()
    #: Arbitration priority (higher wins; use the loop depth).
    priority: int = 0

    def __post_init__(self) -> None:
        if self.mode is SenderMode.DFG and self.next_addr == NO_ADDR:
            raise EncodingError("DFG directive requires next_addr")
        if self.mode is SenderMode.BRANCH:
            if NO_ADDR in (self.true_addr, self.false_addr):
                raise EncodingError(
                    "BRANCH directive requires both true_addr and false_addr"
                )
        if self.mode is SenderMode.LOOP and self.exit_addr == NO_ADDR:
            raise EncodingError("LOOP directive requires exit_addr")

    @staticmethod
    def none() -> "ControlDirective":
        return ControlDirective()

    @staticmethod
    def dfg(next_addr: int, targets: Tuple[int, ...],
            priority: int = 0) -> "ControlDirective":
        return ControlDirective(SenderMode.DFG, next_addr=next_addr,
                                targets=targets, priority=priority)

    @staticmethod
    def branch(true_addr: int, false_addr: int, targets: Tuple[int, ...],
               priority: int = 0) -> "ControlDirective":
        return ControlDirective(SenderMode.BRANCH, true_addr=true_addr,
                                false_addr=false_addr, targets=targets,
                                priority=priority)

    @staticmethod
    def loop(exit_addr: int, exit_targets: Tuple[int, ...],
             priority: int = 0) -> "ControlDirective":
        return ControlDirective(SenderMode.LOOP, exit_addr=exit_addr,
                                exit_targets=exit_targets, priority=priority)

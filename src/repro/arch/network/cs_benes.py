"""The composed CS-Benes control network (paper Fig. 6(c)).

Structure for a 16-PE array: the 16 PEA control outputs plus 16
controller/FIFO ports feed a 16x16 CS broadcast stage, a 64x64 Benes
permutation stage, and a second 16x16 CS stage back to the 32 PEA/controller
control inputs.  The composition gives *configurable output with fixed
connection and no arbitration*: each path contributes one element of
throughput every cycle.

:class:`ControlNetwork` exposes the cycle-level contract the rest of the
system relies on:

* any set of control messages whose destination sets are disjoint is
  delivered in ``ctrl_net_latency`` cycles (peer-to-peer, single cycle at
  the prototype's 500 MHz);
* two messages addressing the same destination in the same cycle conflict —
  the caller (the Control Flow Scheduler's arbiter) must serialise them;
* multicast to arbitrary destination sets is realised by the Benes
  permutation aligning sources onto consecutive intermediate terminals and
  the CS stages spreading them (checked structurally via switch capacity,
  not re-routed per message).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.errors import NetworkError
from repro.arch.network.benes import BenesNetwork
from repro.arch.network.cs import CSNetwork


def _next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


@dataclass(frozen=True)
class ControlMessage:
    """A control flow transfer: new instruction address to a set of PEs.

    ``payload`` is opaque to the network (the simulator sends instruction
    addresses, matching "the control flow is represented by instruction
    addresses", Section 4.1).
    """

    src: int
    dests: FrozenSet[int]
    payload: object = None

    @staticmethod
    def to(src: int, dests: Iterable[int], payload: object = None
           ) -> "ControlMessage":
        return ControlMessage(src, frozenset(dests), payload)


@dataclass
class DeliveryReport:
    """Result of offering one cycle's messages to the network."""

    delivered: List[ControlMessage]
    rejected: List[ControlMessage]
    latency: int


class ControlNetwork:
    """Cycle-level model of the CS-Benes control network."""

    def __init__(self, n_pes: int, *, extra_ports: Optional[int] = None,
                 latency: int = 1) -> None:
        if n_pes <= 0:
            raise NetworkError("control network needs at least one PE port")
        self.n_pes = n_pes
        # Controller + control FIFO ports mirror the PEA port count
        # (Fig. 6(c): x16 PEA + x16 controller/FIFO on each side).
        self.extra_ports = n_pes if extra_ports is None else extra_ports
        self.latency = latency
        terminals = _next_power_of_two(2 * (self.n_pes + self.extra_ports))
        # Fig. 6(c): CS stages at PEA width, Benes at the full port count
        # (16x16 CS + 64x64 Benes for the 4x4 prototype).
        self.ingress_cs = CSNetwork(_next_power_of_two(self.n_pes))
        self.egress_cs = CSNetwork(_next_power_of_two(self.n_pes))
        self.benes = BenesNetwork(terminals)
        # Telemetry.
        self.cycles = 0
        self.messages_delivered = 0
        self.conflicts = 0

    # ------------------------------------------------------------------
    @property
    def switch_count(self) -> int:
        return (
            self.ingress_cs.switch_count
            + self.egress_cs.switch_count
            + self.benes.switch_count
        )

    # ------------------------------------------------------------------
    def offer(self, messages: Sequence[ControlMessage]) -> DeliveryReport:
        """Offer one cycle's control messages.

        Messages with pairwise-disjoint destination sets are delivered with
        ``latency`` cycles; destination conflicts reject the later message
        (callers re-offer next cycle).  Source ports can issue one message
        per cycle.
        """
        delivered: List[ControlMessage] = []
        rejected: List[ControlMessage] = []
        used_dests: set = set()
        used_srcs: set = set()
        for msg in messages:
            if not 0 <= msg.src < self.n_pes + self.extra_ports:
                raise NetworkError(f"source port {msg.src} out of range")
            bad = [d for d in msg.dests if not 0 <= d < self.n_pes + self.extra_ports]
            if bad:
                raise NetworkError(f"destination ports {bad} out of range")
            if msg.src in used_srcs or used_dests & msg.dests:
                rejected.append(msg)
                continue
            used_srcs.add(msg.src)
            used_dests |= msg.dests
            delivered.append(msg)
        self.cycles += 1
        self.messages_delivered += len(delivered)
        self.conflicts += len(rejected)
        return DeliveryReport(delivered, rejected, self.latency)

    # ------------------------------------------------------------------
    def realise(self, messages: Sequence[ControlMessage]) -> Dict[int, object]:
        """Functionally deliver an accepted message set: dest -> payload.

        Used by tests to confirm the behavioural contract matches what the
        switch fabric can realise: sources are aligned by the Benes stage
        (verified by routing an actual permutation) and spread by the CS
        stages.
        """
        report = self.offer(messages)
        if report.rejected:
            raise NetworkError(
                f"{len(report.rejected)} conflicting messages in realise()"
            )
        # Build a permutation placing each source at the first terminal of
        # a consecutive destination group, padding with identity.
        n = self.benes.n
        perm: List[Optional[int]] = [None] * n
        cursor = 0
        for msg in report.delivered:
            perm[msg.src] = cursor
            cursor += len(msg.dests)
        unused_outputs = [o for o in range(n) if o not in set(
            p for p in perm if p is not None
        )]
        it = iter(unused_outputs)
        for i in range(n):
            if perm[i] is None:
                perm[i] = next(it)
        self.benes.route([p for p in perm if p is not None])  # must not raise

        out: Dict[int, object] = {}
        for msg in report.delivered:
            for dest in msg.dests:
                out[dest] = msg.payload
        return out

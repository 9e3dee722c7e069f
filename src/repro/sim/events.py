"""Messages, statistics, and event-scheduling structures of the simulator.

A data token in flight is a plain ``(dst_pe, port, value)`` tuple.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class CtrlMsg:
    """A control-plane message carrying an instruction address.

    ``steer=True`` marks per-token steering from a BRANCH-mode sender: the
    receiver consumes one steering address per firing (keeping token/config
    pairing).  ``steer=False`` marks standing (re)configuration from DFG /
    LOOP senders or the controller.
    """

    dst_pe: int
    addr: int
    src_pe: int = -1
    steer: bool = False


@dataclass
class PEStats:
    """Per-PE cycle accounting."""

    pe: int
    cycles_unconfigured: int = 0
    cycles_configuring: int = 0
    cycles_waiting: int = 0
    cycles_executing: int = 0
    firings: int = 0
    ctrl_msgs_sent: int = 0
    data_tokens_sent: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.cycles_unconfigured + self.cycles_configuring
            + self.cycles_waiting + self.cycles_executing
        )

    @property
    def utilization(self) -> float:
        """Fraction of cycles spent executing."""
        total = self.total_cycles
        return self.cycles_executing / total if total else 0.0


class DeliverySchedule:
    """In-flight tokens/messages keyed by their delivery cycle.

    Besides the per-cycle buckets the naive stepper used, it tracks the
    earliest pending delivery cycle (a lazily-cleaned heap of bucket
    keys), which is what lets the event-driven stepper jump straight to
    the next arrival instead of polling empty cycles.
    """

    __slots__ = ("_by_cycle", "_heap")

    def __init__(self) -> None:
        self._by_cycle: Dict[int, list] = {}
        self._heap: List[int] = []

    def extend(self, cycle: int, items: list) -> None:
        """Schedule ``items`` for ``cycle``, after any already there."""
        if items:
            bucket = self._by_cycle.get(cycle)
            if bucket is None:
                self._by_cycle[cycle] = bucket = []
                heapq.heappush(self._heap, cycle)
            bucket.extend(items)

    def pop_due(self, cycle: int) -> Sequence:
        """Deliveries scheduled for exactly ``cycle`` (delivery order)."""
        return self._by_cycle.pop(cycle, ())

    def next_cycle(self) -> Optional[int]:
        """Earliest cycle holding a pending delivery, or ``None``."""
        heap = self._heap
        while heap and heap[0] not in self._by_cycle:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def __bool__(self) -> bool:
        return bool(self._by_cycle)


class MulticastQueue:
    """The array's outstanding control messages, pre-grouped for offer.

    A sender's same-``(addr, steer)`` fan-out is one multicast through
    the CS-Benes network.  The naive stepper used to rebuild these
    groups from a flat message list on every cycle; this queue maintains
    them incrementally at enqueue time instead.  Ordering matches the
    flat rebuild exactly (the network arbitrates first-come-first-served
    over the offered list, so order is observable in conflict counts):
    groups keep the insertion order of their first message, a rejected
    group re-enters ahead of newly emitted ones, and a retried message
    merges into its key's existing group wherever that group sits.
    """

    __slots__ = ("_groups", "_count")

    #: (src_pe, addr, steer) — one multicast per key per offer.
    Key = Tuple[int, int, bool]

    def __init__(self) -> None:
        self._groups: Dict[MulticastQueue.Key, List[CtrlMsg]] = {}
        self._count = 0

    def append(self, msg: CtrlMsg) -> None:
        key = (msg.src_pe, msg.addr, msg.steer)
        self._groups.setdefault(key, []).append(msg)
        self._count += 1

    def extend(self, msgs: Iterable[CtrlMsg]) -> None:
        for msg in msgs:
            self.append(msg)

    def groups(self) -> List[Tuple["MulticastQueue.Key", List[CtrlMsg]]]:
        """The current multicast groups in first-offered order."""
        return list(self._groups.items())

    def reset_to(self, rejected: Iterable[List[CtrlMsg]]) -> None:
        """Replace the queue with the network's rejected groups."""
        self._groups = {}
        self._count = 0
        for msgs in rejected:
            for msg in msgs:
                self.append(msg)

    def __bool__(self) -> bool:
        return self._count > 0

    def __len__(self) -> int:
        return self._count


@dataclass
class ArrayStats:
    """Whole-array accounting for one simulation."""

    cycles: int = 0
    pe_stats: Dict[int, PEStats] = field(default_factory=dict)
    ctrl_network_conflicts: int = 0
    ctrl_msgs_delivered: int = 0
    halted: bool = False

    @property
    def mean_utilization(self) -> float:
        stats = list(self.pe_stats.values())
        if not stats:
            return 0.0
        return sum(s.utilization for s in stats) / len(stats)

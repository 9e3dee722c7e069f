"""Mapping data structures shared by the placement and scheduling passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CompilationError
from repro.arch.topology import Coord
from repro.ir.cfg import BlockId
from repro.ir.dfg import NodeId


@dataclass(frozen=True)
class BBPlacement:
    """One basic block mapped onto a set of PEs.

    Frozen: the placement memo hands one instance to every caller that
    places the same block on the same inputs, so nothing may mutate it
    (reshape and unroll build new placements).

    Attributes:
        block: The block being mapped.
        assignment: DFG node -> PE coordinate.
        ii: Initiation interval the mapping sustains (resource sharing and
            routing congestion included).
        time_extended: Whether the mapping was folded into the time domain
            (fewer PEs, higher II) by :func:`~repro.compiler.reshape`.
        unroll: Spatial unroll factor (>=1; unrolled mappings replicate the
            DFG to start several iterations per II).
    """

    block: BlockId
    assignment: Dict[NodeId, Coord]
    ii: int
    time_extended: bool = False
    unroll: int = 1

    @property
    def pes(self) -> List[Coord]:
        """Distinct PEs used, in first-use order."""
        return list(dict.fromkeys(self.assignment.values()))

    @property
    def n_pes(self) -> int:
        return len(self.pes)

    @property
    def op_count(self) -> int:
        return len(self.assignment)

    def validate(self, op_ids: List[NodeId]) -> None:
        """Every FU op mapped exactly once; II and unroll at least 1."""
        mapped = sorted(self.assignment)
        if mapped != sorted(op_ids):
            raise CompilationError(
                f"block {self.block}: mapped ops {mapped} != DFG ops "
                f"{sorted(op_ids)}"
            )
        if self.ii < 1:
            raise CompilationError(f"block {self.block}: II {self.ii} < 1")
        if self.unroll < 1:
            raise CompilationError(
                f"block {self.block}: unroll {self.unroll} < 1"
            )


@dataclass
class LevelSchedule:
    """The array mapping active while one loop level executes (paper
    Fig. 8: "Mapping 1", "Mapping 2", ...)."""

    depth: int
    placements: Dict[BlockId, BBPlacement] = field(default_factory=dict)


@dataclass
class Schedule:
    """Complete Agile PE Assignment result for one kernel."""

    kernel: str
    #: innermost level first, matching the scheduling order
    levels: List[LevelSchedule] = field(default_factory=list)
    #: blocks outside any loop (entry/exit straight-line code)
    flat: Dict[BlockId, BBPlacement] = field(default_factory=dict)

    def placement_of(self, block: BlockId) -> Optional[BBPlacement]:
        """The placement used when ``block`` executes: the deepest level
        that maps it wins.  This models the arbiter of the paper's Control
        Flow Scheduler (Section 4.3), which favours deeper loop levels; the
        cycle-level simulator serves its control FIFO in arrival order."""
        for level in self.levels:
            if block in level.placements:
                return level.placements[block]
        return self.flat.get(block)

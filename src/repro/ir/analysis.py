"""Static + dynamic analyses over CDFGs and traces.

These produce the kernel-characterisation quantities the paper reports:

* **operators under branch %** — the secondary axis of Fig. 11: the share of
  dynamically executed FU operators that live in branch-divergent regions
  (these are the operators a von Neumann PE wastes under Predication);
* **control flow form metrics** — the quantities behind Table 1's
  qualitative rows (nested branches, imperfect/nested/serial loops)
  derived from the CDFG structure;
* **pipelineability** — how much of the dynamic work sits in long innermost
  loop bursts, which decides how much Agile PE Assignment can help.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.ir.cdfg import CDFG
from repro.ir.cfg import BlockId
from repro.ir.trace import DynamicTrace


@dataclass(frozen=True)
class ControlFlowProfile:
    """Structural + dynamic control flow characterisation of one kernel."""

    kernel: str
    blocks: int
    static_ops: int
    dynamic_ops: int
    loop_count: int
    max_loop_depth: int
    imperfect: bool
    serial_loops: int
    divergent_branches: int
    max_branch_nesting: int
    ops_under_branch_pct: float
    innermost_burst_ops_pct: float


def branch_nesting_depth(cdfg: CDFG) -> int:
    """Maximum nesting depth of non-loop branches.

    Measured structurally: for each divergent branch block, count how many
    other divergent branches it is "under" (inside the region of; no
    region holds its own branch).
    """
    regions = cdfg.branch_regions()
    return max(
        (1 + sum(branch in region for region in regions.values())
         for branch in regions),
        default=0,
    )


def serial_loop_count(cdfg: CDFG) -> int:
    """Number of sibling loops at the outermost loop level (serial loops)."""
    nests = cdfg.loop_nests()
    return sum(1 for nest in nests.values() if nest.parent is None)


def ops_under_branch_fraction(cdfg: CDFG, trace: DynamicTrace) -> float:
    """Dynamic share of FU operators inside branch-divergent regions."""
    total = trace.dynamic_op_count(cdfg)
    if total == 0:
        return 0.0
    under = cdfg.under_branch_blocks()
    return trace.dynamic_ops_in(cdfg, under) / total


def innermost_loop_blocks(cdfg: CDFG) -> Set[BlockId]:
    """Blocks belonging to innermost loops (candidate pipeline bodies)."""
    out: Set[BlockId] = set()
    for nest in cdfg.innermost_loops():
        out |= nest.own
    return out


def innermost_burst_fraction(cdfg: CDFG, trace: DynamicTrace) -> float:
    """Dynamic share of FU ops executed inside innermost loop bodies."""
    total = trace.dynamic_op_count(cdfg)
    if total == 0:
        return 0.0
    inner = innermost_loop_blocks(cdfg)
    return trace.dynamic_ops_in(cdfg, inner) / total


@dataclass(frozen=True)
class LoopDynamics:
    """Dynamic behaviour of one natural loop.

    Attributes:
        header: Loop header block id.
        entries: How many times control entered the loop from outside.
        total_iterations: Total body iterations across all entries.
        depth: Static nesting depth (1 = outermost).
        innermost: Whether the loop has no nested loops.
    """

    header: BlockId
    entries: int
    total_iterations: int
    depth: int
    innermost: bool


def loop_dynamics(cdfg: CDFG, trace: DynamicTrace) -> Dict[BlockId, LoopDynamics]:
    """Per-loop entry and iteration counts from the dynamic trace.

    Entries are counted as trace edges into the header from outside the loop
    body; iterations as back edges (latch -> header, a self-edge when the
    loop is a single block).
    """
    out: Dict[BlockId, LoopDynamics] = {}
    for header, nest in cdfg.loop_nests().items():
        entries = 0
        iterations = 0
        for (src, dst), count in trace.edge_counts.items():
            if dst != header:
                continue
            if src in nest.blocks:
                iterations += count
            else:
                entries += count
        out[header] = LoopDynamics(
            header=header,
            entries=entries,
            total_iterations=iterations,
            depth=nest.depth,
            innermost=not nest.children,
        )
    return out


def profile(cdfg: CDFG, trace: DynamicTrace) -> ControlFlowProfile:
    """Compute the full :class:`ControlFlowProfile` for one execution."""
    nests = cdfg.loop_nests()
    return ControlFlowProfile(
        kernel=cdfg.name,
        blocks=len(cdfg.blocks),
        static_ops=cdfg.total_op_count,
        dynamic_ops=trace.dynamic_op_count(cdfg),
        loop_count=len(nests),
        max_loop_depth=cdfg.max_loop_depth(),
        imperfect=cdfg.is_imperfect(),
        serial_loops=serial_loop_count(cdfg),
        divergent_branches=len(cdfg.branch_blocks()),
        max_branch_nesting=branch_nesting_depth(cdfg),
        ops_under_branch_pct=100.0 * ops_under_branch_fraction(cdfg, trace),
        innermost_burst_ops_pct=100.0 * innermost_burst_fraction(cdfg, trace),
    )

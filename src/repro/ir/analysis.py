"""Static + dynamic analyses over CDFGs and traces.

* **operators under branch %** — the secondary axis of Fig. 11: the share of
  dynamically executed FU operators that live in branch-divergent regions
  (these are the operators a von Neumann PE wastes under Predication);
* **control flow profile** — the per-kernel row ``repro workloads`` prints:
  block, operator, loop and divergent-branch counts and the deepest loop
  nesting, beside the under-branch share;
* **loop dynamics** — each loop's entries and iterations in one execution,
  which the execution models' loop pricing reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

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
    divergent_branches: int
    ops_under_branch_pct: float


def ops_under_branch_fraction(cdfg: CDFG, trace: DynamicTrace) -> float:
    """Dynamic share of FU operators inside branch-divergent regions."""
    total = trace.dynamic_op_count(cdfg)
    if total == 0:
        return 0.0
    under = cdfg.under_branch_blocks()
    return trace.dynamic_ops_in(cdfg, under) / total


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
        divergent_branches=len(cdfg.branch_blocks()),
        ops_under_branch_pct=100.0 * ops_under_branch_fraction(cdfg, trace),
    )

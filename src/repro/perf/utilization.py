"""Utilization analyses for Fig. 15.

Two metrics, both computed from an execution model's
:class:`~repro.baselines.base.CycleResult` breakdowns and the kernel's
dynamic statistics:

* **outer-BB PE utilization** — busy fraction of the PEs that hold the
  outer-loop basic blocks.  Without Agile PE Assignment those PEs only work
  during the (rare) outer iterations; with it they either join the outer
  pipeline or host reshaped/unrolled copies of the inner pipeline, and the
  kernel also finishes sooner — both effects multiply, producing the
  paper's 21.57x average (134x for GEMM's dense spatial pipeline).
* **pipeline utilization** — the proportion of pipeline initiations to the
  cycles the pipelined regions occupy (an II-weighted idleness measure);
  the Marionette schedule improves it 1.54x on average.
"""

from __future__ import annotations

from typing import Set

from repro.arch.params import ArchParams
from repro.baselines.base import CycleResult, KernelInstance
from repro.errors import ReproError
from repro.ir.cfg import BlockId


def _outer_blocks(kernel: KernelInstance) -> Set[BlockId]:
    """Own blocks of all non-innermost loops (the outer BBs)."""
    out: Set[BlockId] = set()
    for nest in kernel.nests.values():
        if nest.children:
            out |= nest.own
    return out


def outer_bb_utilization(kernel: KernelInstance, result: CycleResult,
                         params: ArchParams, *,
                         agile: bool) -> float:
    """Busy fraction of the PEs statically assigned to outer BBs."""
    outer = _outer_blocks(kernel)
    if not outer:
        raise ReproError(
            f"{kernel.name}: no outer basic blocks (not an imperfect nest)"
        )
    outer_pes = min(
        params.n_pes,
        max(1, sum(kernel.cdfg.block(b).op_count for b in outer)),
    )
    busy = kernel.trace.dynamic_ops_in(kernel.cdfg, outer) * params.t_execute
    if agile:
        # The reshaped/unrolled inner pipelines run on the formerly idle
        # outer PEs: account the inner initiations they now host.
        inner_ops = 0
        for breakdown in result.breakdowns:
            if breakdown.innermost and breakdown.unroll > 1:
                share = (breakdown.unroll - 1) / breakdown.unroll
                own = kernel.nests[breakdown.header].own
                inner_ops += int(
                    share * kernel.trace.dynamic_ops_in(kernel.cdfg, own)
                )
        busy += inner_ops * params.t_execute
    capacity = outer_pes * max(1, result.cycles)
    return min(1.0, busy / capacity)


def pipeline_utilization(result: CycleResult) -> float:
    """Initiations over occupied cycles across innermost pipelines."""
    initiations = 0
    occupied = 0
    for breakdown in result.breakdowns:
        if not breakdown.innermost or breakdown.iterations == 0:
            continue
        initiations += -(-breakdown.iterations // breakdown.unroll)
        occupied += breakdown.own_cycles
    if occupied == 0:
        return 0.0
    return min(1.0, initiations / occupied)

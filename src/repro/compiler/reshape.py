"""Time-extend reshaping and the PE-waste objective (paper Fig. 8).

Time-extended mapping folds a spatial mapping into the temporal domain:
fewer PEs execute the same DFG by multiplexing several operators per PE,
multiplying the initiation interval.  The scheduler uses it in two
directions:

* **shrink** an inner-loop mapping so the freed PEs can host outer-loop
  BBs (Agile PE Assignment);
* **unroll** a small mapping across spare PEs so several iterations start
  per II (the dense GEMM pipelines of Fig. 15).

``PE_waste = PE_remapping x II - PE x Unroll`` is the paper's objective:
the PE-cycles a reshape burns beyond the ideal spatial mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import CompilationError
from repro.arch.topology import Coord
from repro.ir.dfg import NodeId
from repro.compiler.mapping import BBPlacement


def pe_waste(placement: BBPlacement, original: BBPlacement) -> int:
    """The paper's objective for one reshape candidate.

    ``PE_waste = PE_remapping x II - PE x Unroll`` — PE-cycles consumed per
    initiation by the reshaped mapping minus the useful work it performs
    (``Unroll`` iterations of the original ``PE``-wide DFG).
    """
    return (
        placement.n_pes * placement.ii
        - original.n_pes * placement.unroll
    )


def reshape_placement(
    original: BBPlacement,
    target_pes: Sequence[Coord],
) -> BBPlacement:
    """Fold ``original`` onto ``target_pes`` (time-extend).

    The ops are redistributed round-robin over the target PEs; the II grows
    by the fold factor ``ceil(n_ops / len(target_pes))`` relative to ops-
    per-PE of 1.  Raises :class:`CompilationError` on an empty target.
    """
    targets = list(target_pes)
    if not targets:
        raise CompilationError("reshape target region is empty")
    ops: List[NodeId] = sorted(original.assignment)
    if not ops:
        return BBPlacement(original.block, {}, ii=1, time_extended=True)
    assignment: Dict[NodeId, Coord] = {}
    per_pe: Dict[Coord, int] = {c: 0 for c in targets}
    for index, node_id in enumerate(ops):
        coord = targets[index % len(targets)]
        assignment[node_id] = coord
        per_pe[coord] += 1
    fold = max(per_pe.values())
    ii = max(original.ii, fold)
    return BBPlacement(
        original.block, assignment, ii=ii, time_extended=True,
        unroll=original.unroll,
    )


def unroll_placement(
    original: BBPlacement,
    spare_pes: Sequence[Coord],
) -> Optional[BBPlacement]:
    """Replicate a mapping over spare PEs so several iterations start per
    II.  Returns ``None`` when not even one extra copy fits."""
    spare = list(spare_pes)
    if original.op_count == 0:
        return None
    copies = len(spare) // original.op_count
    if copies < 1:
        return None
    assignment = dict(original.assignment)
    cursor = 0
    offset = max(original.assignment) + 1
    for copy in range(copies):
        for node_id in sorted(original.assignment):
            # Clone ids live above the original DFG id space; they matter
            # only for PE accounting, never dereferenced into the DFG.
            assignment[offset + copy * original.op_count + node_id] = (
                spare[cursor]
            )
            cursor += 1
    return BBPlacement(
        original.block, assignment, ii=original.ii,
        time_extended=original.time_extended,
        unroll=original.unroll + copies,
    )

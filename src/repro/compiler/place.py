"""DFG placement onto the PE grid.

Greedy producer-proximity placement with a local-search improvement pass:

1. Nodes are visited in topological (creation) order; each is assigned to
   the free PE minimising the Manhattan distance to its producers' PEs
   (falling back to round-robin sharing once PEs run out — resource
   time-multiplexing raises the II).  Every data edge between two placed
   ops is then routed (XY) on a :class:`~repro.arch.network.mesh.DataMesh`.
2. A bounded pairwise-swap pass minimises ``(link congestion,
   wirelength)`` on that mesh.  A swap removes and re-adds only the edges
   incident to the swapped pair, and a rejected swap moves them back, so
   each candidate costs O(its edges) instead of a full re-route.
3. The initiation interval is ``max(ops-per-PE, link congestion)``, read
   from the mesh the pass leaves behind.

Nonlinear operators (LOG/EXP/...) must land on nonlinear-capable PEs — the
prototype has four (Table 4); placement reserves the last PEs of the region
for them.

:func:`place_block` is a lookup in one process-wide LRU memo.  The key is
everything placement reads: the block's id and its DFG's cached structural
fingerprint (:meth:`~repro.ir.dfg.DFG.fingerprint`, a digest of the
``(opcode, operands)`` sequence), :attr:`ArchParams.placement_inputs`, and
the region.  A built CDFG is never mutated, so entries need no
invalidation; a block edited through :meth:`~repro.ir.dfg.DFG.add`
fingerprints differently.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.arch.network.mesh import DataMesh
from repro.arch.params import ArchParams, PlacementInputs
from repro.arch.topology import Coord, Grid
from repro.ir.cfg import BasicBlock
from repro.ir.dfg import NodeId
from repro.ir.ops import OpClass
from repro.compiler.mapping import BBPlacement

#: Cap on the pairwise-swap improvement pass.
_SWAP_ROUNDS = 2

#: Entries kept by the placement memo (least recently used evicted first).
#: A small-scale arch sweep places 298 distinct inputs.
_MEMO_SIZE = 2048

_MEMO: "OrderedDict[tuple, BBPlacement]" = OrderedDict()


def nonlinear_capable(grid: Grid, nonlinear_pes: int) -> List[Coord]:
    """The nonlinear-fitting PEs: the tail of the row-major order."""
    coords = list(grid)
    return coords[len(coords) - nonlinear_pes:]


def place_block(
    block: BasicBlock,
    params: ArchParams,
    region: Optional[Sequence[Coord]] = None,
) -> BBPlacement:
    """Place one block's DFG onto ``region`` (default: the whole array).

    Returns a :class:`BBPlacement` whose II reflects FU sharing and mesh
    congestion.  Raises :class:`PlacementError` when the region is empty or
    nonlinear ops cannot be honoured, and
    :class:`~repro.errors.ConfigurationError` for a region coordinate
    outside the array.  Equal inputs share one (frozen) placement instance.
    """
    inputs = params.placement_inputs
    grid = Grid(inputs.rows, inputs.cols)
    pes = (tuple(range(grid.size)) if region is None
           else tuple(grid.index(c) for c in region))
    key = (block.block_id, block.dfg.fingerprint(), inputs, pes)
    placement = _MEMO.get(key)
    if placement is not None:
        _MEMO.move_to_end(key)
        return placement
    placement = _place(block, inputs, grid, [grid.coord(i) for i in pes])
    _MEMO[key] = placement
    if len(_MEMO) > _MEMO_SIZE:
        _MEMO.popitem(last=False)
    return placement


def _place(block: BasicBlock, inputs: PlacementInputs, grid: Grid,
           region_list: List[Coord]) -> BBPlacement:
    """The uncached placement behind :func:`place_block`."""
    if not region_list:
        raise PlacementError(f"block {block.name!r}: empty placement region")

    fu_nodes = block.dfg.fu_nodes
    if not fu_nodes:
        return BBPlacement(block.block_id, {}, ii=1)

    region_set = set(region_list)
    nonlinear_pool = [
        c for c in nonlinear_capable(grid, inputs.nonlinear_pes)
        if c in region_set
    ]
    needs_nonlinear = [
        n for n in fu_nodes if n.info.op_class is OpClass.NONLINEAR
    ]
    if needs_nonlinear and not nonlinear_pool:
        raise PlacementError(
            f"block {block.name!r}: {len(needs_nonlinear)} nonlinear ops "
            "but no nonlinear-capable PE in region"
        )

    load: Dict[Coord, int] = {c: 0 for c in region_list}
    assignment: Dict[NodeId, Coord] = {}

    def candidates_for(node) -> List[Coord]:
        if node.info.op_class is OpClass.NONLINEAR:
            return nonlinear_pool
        return region_list

    def proximity_cost(coord: Coord, node) -> Tuple[int, int]:
        dist = 0
        for operand in node.operands:
            producer = assignment.get(operand)
            if producer is not None:
                dist += coord.manhattan(producer)
        return (load[coord], dist)

    for node in fu_nodes:
        pool = candidates_for(node)
        best = min(pool, key=lambda c: proximity_cost(c, node))
        assignment[node.node_id] = best
        load[best] += 1

    mesh = DataMesh(grid)
    edges = [(operand, node.node_id) for node in fu_nodes
             for operand in node.operands if operand in assignment]
    for src, dst in edges:
        mesh.route(assignment[src], assignment[dst])
    _improve(assignment, block, edges, mesh)

    ii = max(max(load.values()), mesh.congestion_ii())
    return BBPlacement(block.block_id, assignment, ii=ii)


def _improve(assignment: Dict[NodeId, Coord], block: BasicBlock,
             edges: List[Tuple[NodeId, NodeId]], mesh: DataMesh) -> None:
    """Bounded pairwise swap pass minimising (link congestion, wirelength).

    ``mesh`` holds the routes of ``edges`` under ``assignment`` and is
    left holding them under the improved one.  Congestion is the binding
    term: a link shared by k routed edges forces the initiation interval
    to k, so trading wirelength for a lower maximum link load is always
    worth it.  Nonlinear ops never swap with ordinary ones, so they stay
    in the nonlinear pool.
    """
    if not edges:
        return
    nodes = list(assignment)
    slot = {node_id: i for i, node_id in enumerate(nodes)}
    pairs = [(slot[src], slot[dst]) for src, dst in edges]
    cols = mesh.grid.cols
    pe = [c.row * cols + c.col for c in assignment.values()]
    nonlinear = [
        block.dfg.node(node_id).info.op_class is OpClass.NONLINEAR
        for node_id in nodes
    ]
    incident: List[List[int]] = [[] for _ in nodes]
    for index, (a, b) in enumerate(pairs):
        incident[a].append(index)
        incident[b].append(index)

    def reroute(i: int, j: int, moved: List[Tuple[int, int]]) -> None:
        """Swap the PEs of slots ``i`` and ``j``, re-routing ``moved``."""
        for a, b in moved:
            mesh.remove(pe[a], pe[b])
        pe[i], pe[j] = pe[j], pe[i]
        for a, b in moved:
            mesh.add(pe[a], pe[b])

    current = (mesh.congestion_ii(), mesh.wirelength)
    for _ in range(_SWAP_ROUNDS):
        improved = False
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if pe[i] == pe[j] or nonlinear[i] != nonlinear[j]:
                    continue
                moved = [pairs[e] for e in
                         dict.fromkeys(incident[i] + incident[j])]
                reroute(i, j, moved)
                candidate = (mesh.congestion_ii(), mesh.wirelength)
                if candidate < current:
                    current = candidate
                    improved = True
                else:
                    reroute(i, j, moved)
        if not improved:
            break

    coords = list(mesh.grid)
    for node_id, index in zip(nodes, pe):
        assignment[node_id] = coords[index]

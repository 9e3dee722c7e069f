"""The Marionette scheduling algorithm — Agile PE Assignment (paper Fig. 8).

Scheduling walks loop nests **innermost to outermost**.  For each nest it
builds the array mapping active while that nest's level executes:

1. map the nest's own basic blocks onto free PEs (``Map`` / ``assign``);
   sibling branch arms are merged onto one PE lane
   (``checkBranchDivergence`` — arms never execute simultaneously);
2. record the pipeline II each placement sustains
   (``setPipelineIteration``);
3. if PEs remain unassigned, reshape (time-extend) or unroll the mappings of
   control-dependence-satisfying BBs — the current level's and the already
   scheduled inner levels' — onto the spare PEs; push each candidate's
   ``PE_waste`` and expand the mapping with the cheapest one.

The result is one mapping per loop level (paper Fig. 8: "Mapping 1..3");
the execution models resolve a block's active placement through
:meth:`~repro.compiler.mapping.Schedule.placement_of`, which prefers the
deepest level.  That models the paper's Control Flow Scheduler, whose
arbiter favours deeper loop levels between nested pipelines (Section 4.3);
the cycle-level simulator serves its control FIFO in arrival order.

:meth:`MarionetteScheduler.schedule` is a lookup in one process-wide LRU
memo, like :func:`~repro.compiler.place.place_block`.  The key is
everything scheduling reads: the CDFG's structural fingerprint
(:meth:`~repro.ir.cdfg.CDFG.fingerprint`: name, entry, and per block its id,
role, terminator shape and DFG fingerprint),
:attr:`ArchParams.placement_inputs` and ``enable_agile``.  So every model,
engine and architecture variant that agrees on those shares one
:class:`~repro.compiler.mapping.Schedule`; like a placement, nothing
mutates it after :meth:`~MarionetteScheduler.schedule` returns.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import PlacementError
from repro.arch.params import ArchParams
from repro.arch.topology import Coord, Grid
from repro.ir.cdfg import CDFG, LoopNest
from repro.ir.cfg import BasicBlock, BlockId, BlockRole
from repro.compiler.mapping import BBPlacement, LevelSchedule, Schedule
from repro.compiler.place import nonlinear_capable, place_block
from repro.compiler.reshape import pe_waste, reshape_placement, unroll_placement

#: Entries kept by the schedule memo (least recently used evicted first).
#: A small-scale arch sweep schedules 46 distinct inputs.
_MEMO_SIZE = 512

_MEMO: "OrderedDict[tuple, Schedule]" = OrderedDict()


class MarionetteScheduler:
    """Agile PE Assignment over one kernel."""

    def __init__(self, params: ArchParams, *, enable_agile: bool = True) -> None:
        self.params = params
        self.grid = Grid(params.rows, params.cols)
        #: reshape/unroll of spare PEs on/off (Fig. 14's comparison)
        self.enable_agile = enable_agile
        self._inputs = params.placement_inputs

    # ------------------------------------------------------------------
    def schedule(self, cdfg: CDFG) -> Schedule:
        """The per-loop-level mappings for ``cdfg``.  Equal inputs share
        one (never mutated) schedule instance."""
        key = (cdfg.fingerprint(), self._inputs, self.enable_agile)
        result = _MEMO.get(key)
        if result is not None:
            _MEMO.move_to_end(key)
            return result
        result = self._schedule(cdfg)
        _MEMO[key] = result
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
        return result

    def _schedule(self, cdfg: CDFG) -> Schedule:
        """The uncached scheduling behind :meth:`schedule`."""
        result = Schedule(cdfg.name)
        nests = cdfg.loop_nests()
        ordered = sorted(
            nests.values(), key=lambda n: (-n.depth, n.header)
        )
        for nest in ordered:
            result.levels.append(self._schedule_nest(cdfg, nest, result))

        for bid in cdfg.flat_blocks():
            result.flat[bid] = place_block(cdfg.block(bid), self.params)
        return result

    # ------------------------------------------------------------------
    def _schedule_nest(self, cdfg: CDFG, nest: LoopNest,
                       partial: Schedule) -> LevelSchedule:
        level = LevelSchedule(depth=nest.depth)
        own = sorted(nest.own)
        free: List[Coord] = list(self.grid)

        # Arm pairs of this level's branches: arm -> [leader, other].
        merged_arms: Dict[BlockId, List[BlockId]] = {}
        for branch, arms in cdfg.arm_pairs().items():
            if {branch, *arms} <= nest.own:
                leader = max(arms, key=lambda b: cdfg.block(b).op_count)
                other = arms[0] if arms[1] == leader else arms[1]
                merged_arms[leader] = merged_arms[other] = [leader, other]
        placed_ids: Set[BlockId] = set()
        order = sorted(
            own, key=lambda b: -cdfg.block(b).op_count
        )
        for block_id in order:
            if block_id in placed_ids:
                continue
            block = cdfg.block(block_id)
            if block.op_count == 0:
                placed_ids.add(block_id)
                continue
            group = merged_arms.get(block_id, [block_id])
            placement = self._place_with_fallback(block, free)
            level.placements[block_id] = placement
            placed_ids.add(block_id)
            # Merged branch arms share the leader's PE lane (they are
            # control-exclusive): place them within its coordinates.
            lane = placement.pes
            for sibling in group:
                if sibling == block_id or sibling in placed_ids:
                    continue
                sibling_block = cdfg.block(sibling)
                if sibling_block.op_count == 0:
                    placed_ids.add(sibling)
                    continue
                level.placements[sibling] = self._place_with_fallback(
                    sibling_block, lane
                )
                placed_ids.add(sibling)
            used = set(placement.pes)
            free = [c for c in free if c not in used]

        if self.enable_agile and free:
            self._expand(cdfg, nest, level, partial, free)
        return level

    # ------------------------------------------------------------------
    def _place_with_fallback(self, block: BasicBlock,
                             region: Sequence[Coord]) -> BBPlacement:
        """Place within ``region``; nonlinear ops may reach outside it to
        the nonlinear-capable pool (those PEs are shared, like the paper's
        four nonlinear-fitting PEs serving the whole array)."""
        region_list = list(region)
        if not region_list:
            region_list = list(self.grid)
        try:
            return place_block(block, self.params, region_list)
        except PlacementError:
            pool = nonlinear_capable(self.grid, self.params.nonlinear_pes)
            widened = region_list + [c for c in pool if c not in region_list]
            return place_block(block, self.params, widened)

    # ------------------------------------------------------------------
    def _expand(self, cdfg: CDFG, nest: LoopNest, level: LevelSchedule,
                partial: Schedule, spare: List[Coord]) -> None:
        """Fill unassigned PEs: reshape/unroll the cheapest dependence-
        satisfying BB mapping onto them (``Expand`` in the paper)."""
        candidates: List[Tuple[int, BBPlacement]] = []
        for block_id in sorted(nest.blocks):
            if cdfg.block(block_id).role is BlockRole.LOOP_HEADER:
                # A header is the loop operator; it unrolls with its body,
                # never on its own.
                continue
            same_level = block_id in level.placements
            original = level.placements.get(block_id)
            if original is None:
                original = partial.placement_of(block_id)
            if original is None or original.op_count == 0:
                continue
            unrolled = unroll_placement(original, spare)
            if unrolled is not None:
                candidates.append((pe_waste(unrolled, original), unrolled))
            if not same_level and original.op_count > len(spare):
                # Fold an *inner-level* mapping onto the spare PEs so it
                # co-resides with this level (time-extend).  A same-level
                # block already owns its spatial mapping — folding it onto
                # the leftovers would discard PEs it already has.
                folded = reshape_placement(original, spare)
                candidates.append((pe_waste(folded, original), folded))
        if not candidates:
            return
        chosen = min(candidates, key=lambda c: (c[0], c[1].block))[1]
        level.placements[chosen.block] = chosen

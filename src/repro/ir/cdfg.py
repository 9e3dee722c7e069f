"""The combined CDFG: a CFG whose blocks embed DFGs, plus the kernel's
structure analyses (loop nests, branch regions, arm pairs, flat blocks) and
its structural fingerprint.

:class:`LoopNest` is the unit the Marionette scheduler works at (paper
Fig. 8): scheduling proceeds innermost loop level to outermost, mapping the
basic blocks of each level and time-extending leftovers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError
from repro.ir.cfg import BasicBlock, BlockId, BlockRole, Branch, CFG


@dataclass
class LoopNest:
    """One natural loop in the nest tree.

    Attributes:
        header: Block id of the loop header (the loop decision block).
        blocks: All block ids in the loop (including inner loops' blocks).
        depth: Nesting depth; 1 for outermost loops.
        parent: Header id of the enclosing loop, or ``None``.
        children: Headers of directly nested loops.
        own: Blocks of this loop level that belong to no inner loop.
    """

    header: BlockId
    blocks: Set[BlockId]
    depth: int = 1
    parent: Optional[BlockId] = None
    children: List[BlockId] = field(default_factory=list)
    own: Set[BlockId] = field(default_factory=set)


class CDFG:
    """A kernel: control flow graph + per-block data flow graphs.

    A CDFG is sealed when :meth:`~repro.ir.builder.KernelBuilder.build`
    returns it: nothing mutates its CFG or DFGs afterwards, so it is the
    one home of the kernel's structural facts (loop nests with their own
    blocks, branch regions, arm pairs, flat blocks, the fingerprint), each
    computed once and cached without invalidation.
    """

    def __init__(self, name: str, cfg: CFG,
                 params: Sequence[str] = (),
                 arrays: Sequence[str] = ()) -> None:
        self.name = name
        self.cfg = cfg
        #: runtime scalar parameter names (set by the interpreter caller)
        self.params: Tuple[str, ...] = tuple(params)
        #: scratchpad array names referenced by LOAD/STORE
        self.arrays: Tuple[str, ...] = tuple(arrays)
        self._loop_nests: Optional[Dict[BlockId, LoopNest]] = None
        self._branch_regions: Optional[
            Dict[BlockId, FrozenSet[BlockId]]] = None
        self._under_branch: Optional[FrozenSet[BlockId]] = None
        self._arm_pairs: Optional[
            Dict[BlockId, Tuple[BlockId, BlockId]]] = None
        self._flat_blocks: Optional[Tuple[BlockId, ...]] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> List[BasicBlock]:
        return self.cfg.blocks

    def block(self, block_id: BlockId) -> BasicBlock:
        return self.cfg.block(block_id)

    @property
    def entry(self) -> BlockId:
        if self.cfg.entry is None:
            raise IRError(f"kernel {self.name!r} has no entry block")
        return self.cfg.entry

    @property
    def total_op_count(self) -> int:
        """Static FU-operation count over all blocks."""
        return sum(b.op_count for b in self.blocks)

    # ------------------------------------------------------------------
    # Loop nest analysis
    # ------------------------------------------------------------------
    def loop_nests(self) -> Dict[BlockId, LoopNest]:
        """Header id -> :class:`LoopNest`, computed once and cached."""
        if self._loop_nests is None:
            self._loop_nests = self._build_loop_nests()
        return self._loop_nests

    def _build_loop_nests(self) -> Dict[BlockId, LoopNest]:
        raw = self.cfg.natural_loops()
        nests = {h: LoopNest(h, set(body)) for h, body in raw.items()}
        headers = sorted(nests, key=lambda h: len(nests[h].blocks))
        # Parent = the smallest enclosing loop (smallest superset of blocks).
        for header in headers:
            nest = nests[header]
            best: Optional[BlockId] = None
            best_size = None
            for other in headers:
                if other == header:
                    continue
                candidate = nests[other]
                if header in candidate.blocks and nest.blocks <= candidate.blocks:
                    if best_size is None or len(candidate.blocks) < best_size:
                        best = other
                        best_size = len(candidate.blocks)
            nest.parent = best
            if best is not None:
                nests[best].children.append(header)
        for header in headers:
            depth = 1
            cursor = nests[header].parent
            while cursor is not None:
                depth += 1
                cursor = nests[cursor].parent
            nests[header].depth = depth
        for nest in nests.values():
            nest.own = nest.blocks.difference(
                *(nests[child].blocks for child in nest.children)
            )
        return nests

    def max_loop_depth(self) -> int:
        nests = self.loop_nests()
        return max((n.depth for n in nests.values()), default=0)

    def flat_blocks(self) -> Tuple[BlockId, ...]:
        """Blocks outside every loop that hold FU operations, in block
        order.  Computed once and cached."""
        if self._flat_blocks is None:
            in_loops: Set[BlockId] = set()
            for nest in self.loop_nests().values():
                in_loops |= nest.blocks
            self._flat_blocks = tuple(
                b.block_id for b in self.blocks
                if b.block_id not in in_loops and b.op_count > 0
            )
        return self._flat_blocks

    # ------------------------------------------------------------------
    # Control structure queries used by the execution models
    # ------------------------------------------------------------------
    def is_imperfect(self) -> bool:
        """Whether any non-innermost loop level carries FU computation.

        This is the paper's *Imperfect Loop* form: computation present in
        outer loop bodies (Section 3.1).
        """
        for nest in self.loop_nests().values():
            if not nest.children:
                continue
            for bid in nest.own:
                block = self.block(bid)
                if block.role is BlockRole.LOOP_HEADER and bid == nest.header:
                    continue
                if block.op_count > 0:
                    return True
        return False

    def branch_blocks(self) -> List[BasicBlock]:
        """Blocks ending in a non-loop conditional branch (divergence points)."""
        out = []
        for block in self.blocks:
            term = block.terminator
            if isinstance(term, Branch) and not term.is_loop_branch:
                out.append(block)
        return out

    def branch_regions(self) -> Dict[BlockId, FrozenSet[BlockId]]:
        """Divergent branch block -> the blocks under it: those reachable
        forwards from either arm without passing the branch itself or its
        immediate post-dominator, where the two paths re-join.  A branch
        with no post-dominator walks to the end.  The merge is the one the
        compiled interpreter's ``if``/``else`` goes on at, and a loop
        nested inside an arm is under the branch.  Computed once and
        cached.
        """
        if self._branch_regions is None:
            branches = self.branch_blocks()
            ipdom = self.cfg.immediate_post_dominators() if branches else {}
            regions: Dict[BlockId, FrozenSet[BlockId]] = {}
            for block in branches:
                stop = (block.block_id, ipdom.get(block.block_id))
                seen: Set[BlockId] = set()
                stack = list(block.successors())
                while stack:
                    bid = stack.pop()
                    if bid not in seen and bid not in stop:
                        seen.add(bid)
                        stack.extend(self.cfg.successors(bid))
                regions[block.block_id] = frozenset(seen)
            self._branch_regions = regions
        return self._branch_regions

    def under_branch_blocks(self) -> FrozenSet[BlockId]:
        """Blocks under some divergent branch: the union of
        :meth:`branch_regions`.  Computed once and cached."""
        if self._under_branch is None:
            self._under_branch = frozenset().union(
                *self.branch_regions().values()
            )
        return self._under_branch

    def arm_pairs(self) -> Dict[BlockId, Tuple[BlockId, BlockId]]:
        """Divergent branch block -> its ``(if_true, if_false)`` targets,
        for the branches whose targets are both builder branch arms:
        control-exclusive blocks that may share one PE lane (paper
        Fig. 8, ``checkBranchDivergence``).  Computed once and cached."""
        if self._arm_pairs is None:
            pairs: Dict[BlockId, Tuple[BlockId, BlockId]] = {}
            for block in self.branch_blocks():
                term = block.terminator
                assert isinstance(term, Branch)
                arms = (term.if_true, term.if_false)
                if all(self.block(arm).role is BlockRole.BRANCH_ARM
                       for arm in arms):
                    pairs[block.block_id] = arms
            self._arm_pairs = pairs
        return self._arm_pairs

    def fingerprint(self) -> str:
        """SHA-256 of the kernel's structure as the scheduler reads it: the
        name, the entry, and per block its id, role, terminator shape
        (kind, targets, loop flag) and DFG fingerprint.  Computed once and
        cached."""
        if self._fingerprint is None:
            blocks = []
            for block in self.blocks:
                term = block.terminator
                blocks.append([
                    block.block_id, block.role.value, type(term).__name__,
                    block.successors(),
                    isinstance(term, Branch) and term.is_loop_branch,
                    block.dfg.fingerprint(),
                ])
            text = json.dumps([self.name, self.entry, blocks])
            self._fingerprint = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Validation / repr
    # ------------------------------------------------------------------
    def validate(self) -> None:
        self.cfg.validate()
        referenced: Set[str] = set()
        for block in self.blocks:
            for node in block.dfg:
                if node.array is not None:
                    referenced.add(node.array)
        missing = referenced - set(self.arrays)
        if missing:
            raise IRError(
                f"kernel {self.name!r} uses undeclared arrays: {sorted(missing)}"
            )

    def summary(self) -> str:
        """A short human-readable description of the kernel's structure."""
        nests = self.loop_nests()
        return (
            f"kernel {self.name}: {len(self.blocks)} blocks, "
            f"{self.total_op_count} ops, {len(nests)} loops "
            f"(max depth {self.max_loop_depth()}), "
            f"{len(self.branch_blocks())} divergent branches, "
            f"imperfect={self.is_imperfect()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CDFG({self.summary()})"

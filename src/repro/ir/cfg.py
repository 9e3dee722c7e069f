"""Control flow graphs: basic blocks, terminators, dominators, natural loops.

Terminators carry the control decision of a block:

* :class:`Jump` — unconditional successor (same control flow, the Control
  Flow Sender's *DFG operator mode*);
* :class:`Branch` — two-way conditional on a DFG node (*branch operator
  mode*); ``is_loop_branch`` marks loop header/latch branches (*loop operator
  mode*);
* :class:`Halt` — kernel exit.

Block roles record how the builder created a block (loop header, branch arm,
…) so analyses do not have to re-discover intent heuristically; structural
facts (dominators, natural loops) are still computed from the graph itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError
from repro.ir.dfg import DFG, NodeId

BlockId = int


class BlockRole(enum.Enum):
    """How the builder created a block (annotation, not structure)."""

    ENTRY = "entry"
    EXIT = "exit"
    PLAIN = "plain"
    LOOP_PREHEADER = "loop_preheader"
    LOOP_HEADER = "loop_header"
    LOOP_BODY = "loop_body"
    LOOP_LATCH = "loop_latch"
    BRANCH_ARM = "branch_arm"
    MERGE = "merge"


@dataclass
class Jump:
    """Unconditional transfer to ``target``."""

    target: BlockId


@dataclass
class Branch:
    """Two-way conditional transfer on the value of ``cond`` (a DFG node).

    ``is_loop_branch`` is set for loop header/latch decisions, which the
    Marionette control plane serves in loop operator mode rather than branch
    operator mode.
    """

    cond: NodeId
    if_true: BlockId
    if_false: BlockId
    is_loop_branch: bool = False


@dataclass
class Halt:
    """Kernel exit."""


Terminator = (Jump, Branch, Halt)


@dataclass
class BasicBlock:
    """A single-entry single-exit block holding one DFG."""

    block_id: BlockId
    name: str
    dfg: DFG = field(default_factory=DFG)
    terminator: Optional[object] = None
    role: BlockRole = BlockRole.PLAIN
    #: variable name -> producing DFG node (live-out bindings)
    outputs: Dict[str, NodeId] = field(default_factory=dict)
    #: loop variable owned by this block's loop, if it is a header
    loop_var: Optional[str] = None

    def successors(self) -> Tuple[BlockId, ...]:
        term = self.terminator
        if isinstance(term, Jump):
            return (term.target,)
        if isinstance(term, Branch):
            return (term.if_true, term.if_false)
        if isinstance(term, Halt):
            return ()
        raise IRError(f"block {self.name!r} has no terminator")

    @property
    def op_count(self) -> int:
        return self.dfg.op_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BasicBlock({self.block_id}, {self.name!r}, "
            f"{self.op_count} ops, role={self.role.value})"
        )


def _dominator_tree(
    root: BlockId,
    successors: Callable[[BlockId], Sequence[BlockId]],
    predecessors: Callable[[BlockId], Sequence[BlockId]],
) -> Dict[BlockId, BlockId]:
    """Immediate dominator of every node reachable from ``root`` along
    ``successors`` (``root`` maps to itself): the algorithm of Cooper,
    Harvey and Kennedy.  ``predecessors`` gives each node's in-edges in
    the same direction, so swapping the two computes post-dominators."""
    order: List[BlockId] = []  # postorder from the root
    seen = {root}
    stack = [(root, iter(successors(root)))]
    while stack:
        node, todo = stack[-1]
        for succ in todo:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(successors(succ))))
                break
        else:
            stack.pop()
            order.append(node)
    rank = {node: index for index, node in enumerate(order)}
    idom: Dict[BlockId, BlockId] = {root: root}

    def meet(a: BlockId, b: BlockId) -> BlockId:
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(order[:-1]):
            new: Optional[BlockId] = None
            for pred in predecessors(node):
                if pred in idom:
                    new = pred if new is None else meet(pred, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


class CFG:
    """A control flow graph over :class:`BasicBlock`.

    Provides dominators and post-dominators (one Cooper-Harvey-Kennedy
    routine, run forwards from the entry and backwards from the exits) and
    natural loop discovery via back edges; all are pure structure,
    independent of the builder's role annotations.
    """

    def __init__(self) -> None:
        self.blocks: List[BasicBlock] = []
        self.entry: Optional[BlockId] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_block(
        self, name: str, role: BlockRole = BlockRole.PLAIN
    ) -> BasicBlock:
        block = BasicBlock(len(self.blocks), name, role=role)
        self.blocks.append(block)
        if self.entry is None:
            self.entry = block.block_id
            if role is BlockRole.PLAIN:
                block.role = BlockRole.ENTRY
        return block

    def block(self, block_id: BlockId) -> BasicBlock:
        return self.blocks[block_id]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def successors(self, block_id: BlockId) -> Tuple[BlockId, ...]:
        return self.blocks[block_id].successors()

    def predecessors(self) -> Dict[BlockId, List[BlockId]]:
        preds: Dict[BlockId, List[BlockId]] = {b.block_id: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block.block_id)
        return preds

    def edges(self) -> List[Tuple[BlockId, BlockId]]:
        out: List[Tuple[BlockId, BlockId]] = []
        for block in self.blocks:
            for succ in block.successors():
                out.append((block.block_id, succ))
        return out

    def immediate_dominators(self) -> Dict[BlockId, Optional[BlockId]]:
        """Immediate dominator per block reachable from the entry
        (``None`` for the entry); unreachable blocks are left out."""
        if self.entry is None:
            return {}
        idom = _dominator_tree(self.entry, self.successors,
                               self.predecessors().__getitem__)
        idom[self.entry] = None
        return idom

    def dominators(self) -> Dict[BlockId, Set[BlockId]]:
        """Dominator sets, read off the dominator tree.

        ``dom[b]`` is the set of blocks that dominate ``b`` (including ``b``).
        Unreachable blocks are excluded.
        """
        idom = self.immediate_dominators()
        dom: Dict[BlockId, Set[BlockId]] = {}
        for bid in idom:
            chain: Set[BlockId] = set()
            cursor: Optional[BlockId] = bid
            while cursor is not None:
                chain.add(cursor)
                cursor = idom[cursor]
            dom[bid] = chain
        return dom

    def immediate_post_dominators(self) -> Dict[BlockId, Optional[BlockId]]:
        """Immediate post-dominator per block that reaches a ``Halt``.

        A block post-dominates ``b`` when every path from ``b`` to a
        ``Halt`` passes through it.  ``Halt`` blocks, and blocks whose
        paths reach different ``Halt`` blocks before any common block, map
        to ``None``; blocks that never halt are left out.  These are the
        dominators of the reversed graph, rooted at a virtual exit that
        follows every ``Halt``.
        """
        exit_ = -1
        preds = self.predecessors()
        preds[exit_] = [b.block_id for b in self.blocks
                        if isinstance(b.terminator, Halt)]
        ipdom = _dominator_tree(
            exit_, preds.__getitem__,
            lambda bid: self.blocks[bid].successors() or (exit_,),
        )
        return {node: None if d == exit_ else d
                for node, d in ipdom.items() if node != exit_}

    def back_edges(self) -> List[Tuple[BlockId, BlockId]]:
        """Edges ``u -> v`` where ``v`` dominates ``u`` (loop back edges)."""
        dom = self.dominators()
        out = []
        for u, v in self.edges():
            if u in dom and v in dom.get(u, set()):
                out.append((u, v))
        return out

    def natural_loops(self) -> Dict[BlockId, Set[BlockId]]:
        """Header -> set of blocks in the loop (merged per header)."""
        preds = self.predecessors()
        loops: Dict[BlockId, Set[BlockId]] = {}
        for latch, header in self.back_edges():
            body: Set[BlockId] = {header}
            stack = [latch]
            while stack:
                bid = stack.pop()
                if bid in body:
                    continue
                body.add(bid)
                stack.extend(preds[bid])
            loops.setdefault(header, set()).update(body)
        return loops

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check graph invariants; raises :class:`IRError` on violation."""
        if self.entry is None:
            raise IRError("CFG has no entry block")
        halts = 0
        for block in self.blocks:
            if block.terminator is None:
                raise IRError(f"block {block.name!r} lacks a terminator")
            for succ in block.successors():
                if not 0 <= succ < len(self.blocks):
                    raise IRError(
                        f"block {block.name!r} targets missing block {succ}"
                    )
            if isinstance(block.terminator, Branch):
                cond = block.terminator.cond
                if not 0 <= cond < len(block.dfg):
                    raise IRError(
                        f"block {block.name!r}: branch condition n{cond} "
                        "is not in its DFG"
                    )
            if isinstance(block.terminator, Halt):
                halts += 1
            for var, node_id in block.outputs.items():
                if not 0 <= node_id < len(block.dfg):
                    raise IRError(
                        f"block {block.name!r}: output {var!r} binds missing "
                        f"node n{node_id}"
                    )
            block.dfg.validate()
        if halts == 0:
            raise IRError("CFG has no exit (Halt) block")

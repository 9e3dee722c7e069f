"""Per-basic-block data flow graphs.

A :class:`DFG` is a pure dataflow graph: nodes are operations
(:class:`~repro.ir.ops.Opcode`), edges are value dependencies.  Node ids are
dense integers in creation order; creation order is guaranteed to be a valid
topological order (operands must exist before use), which both the
interpreter and the mapper rely on.

Side effects (stores) carry no result; their program order is preserved by
the creation order.  Live-in variables enter through ``INPUT`` nodes and
live-out variables are named bindings to node ids (held by the enclosing
:class:`~repro.ir.cfg.BasicBlock`).

The facts pricing reads on every model and every architecture variant —
:attr:`DFG.fu_nodes`, :attr:`DFG.op_count`, :meth:`DFG.critical_path_length`
and the structural :meth:`DFG.fingerprint` — are computed on first read and
kept until :meth:`DFG.add`, the graph's only mutator, appends a node.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.ops import Opcode, op_info

NodeId = int


@dataclass
class Node:
    """One operation in a DFG.

    Attributes:
        node_id: Dense integer id, unique within the DFG.
        opcode: The operation.
        operands: Ids of producer nodes, in positional order.
        array: For ``LOAD``/``STORE``, the scratchpad array name.
        value: For ``CONST``, the literal value.
        var: For ``INPUT``, the live-in variable name.
    """

    node_id: NodeId
    opcode: Opcode
    operands: Tuple[NodeId, ...] = ()
    array: Optional[str] = None
    value: Optional[float] = None
    var: Optional[str] = None

    @property
    def info(self):
        return op_info(self.opcode)

    @property
    def needs_fu(self) -> bool:
        return self.info.needs_fu

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = ""
        if self.array is not None:
            extra = f" @{self.array}"
        if self.value is not None:
            extra = f" ={self.value}"
        if self.var is not None:
            extra = f" %{self.var}"
        ops = ", ".join(f"n{i}" for i in self.operands)
        return f"n{self.node_id} = {self.opcode.value}({ops}){extra}"


class DFG:
    """A growable data flow graph embedded in one basic block."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self._const_cache: Dict[Tuple[type, float, float], NodeId] = {}
        self._input_cache: Dict[str, NodeId] = {}
        self._forget()

    def _forget(self) -> None:
        """Drop the cached facts (the node list changed)."""
        self._fu_nodes: Optional[Tuple[Node, ...]] = None
        self._critical_path: Optional[int] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        opcode: Opcode,
        operands: Sequence[NodeId] = (),
        *,
        array: Optional[str] = None,
        value: Optional[float] = None,
        var: Optional[str] = None,
    ) -> NodeId:
        """Append a node and return its id.

        Raises:
            IRError: on arity mismatch or dangling operand ids.
        """
        info = op_info(opcode)
        if len(operands) != info.arity:
            raise IRError(
                f"{opcode.value} expects {info.arity} operands, "
                f"got {len(operands)}"
            )
        for operand in operands:
            if not 0 <= operand < len(self.nodes):
                raise IRError(
                    f"operand n{operand} does not exist (DFG has "
                    f"{len(self.nodes)} nodes)"
                )
        if opcode in (Opcode.LOAD, Opcode.STORE) and not array:
            raise IRError(f"{opcode.value} requires an array name")
        node_id = len(self.nodes)
        self.nodes.append(
            Node(node_id, opcode, tuple(operands), array=array, value=value,
                 var=var)
        )
        self._forget()
        return node_id

    def const(self, value: float) -> NodeId:
        """Return a (deduplicated) constant node.

        Keyed by exact type and sign, not by ``==``: ``x / 2`` divides
        C-style and ``x / 2.0`` does not, and ``x * 0.0`` and
        ``x * -0.0`` give zeros of different signs.
        """
        key = (type(value), value, math.copysign(1.0, value))
        if key not in self._const_cache:
            self._const_cache[key] = self.add(Opcode.CONST, value=value)
        return self._const_cache[key]

    def input(self, var: str) -> NodeId:
        """Return a (deduplicated) live-in read of variable ``var``."""
        if var not in self._input_cache:
            self._input_cache[var] = self.add(Opcode.INPUT, var=var)
        return self._input_cache[var]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    @property
    def fu_nodes(self) -> Tuple[Node, ...]:
        """Nodes that occupy a function unit when mapped (non-meta)."""
        if self._fu_nodes is None:
            self._fu_nodes = tuple(n for n in self.nodes if n.needs_fu)
        return self._fu_nodes

    @property
    def op_count(self) -> int:
        """Number of FU operations (the paper's "operators")."""
        return len(self.fu_nodes)

    def fingerprint(self) -> str:
        """SHA-256 of the ``(opcode, operands)`` sequence: everything
        placement and scheduling read of the graph, so two graphs with one
        fingerprint place alike (constant values, arrays and variable
        names do not move a PE)."""
        if self._fingerprint is None:
            text = ";".join(
                f"{node.opcode.value}:{','.join(map(str, node.operands))}"
                for node in self.nodes
            )
            self._fingerprint = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
        return self._fingerprint

    def consumers(self) -> Dict[NodeId, List[NodeId]]:
        """Map producer id -> list of consumer ids."""
        out: Dict[NodeId, List[NodeId]] = {n.node_id: [] for n in self.nodes}
        for node in self.nodes:
            for operand in node.operands:
                out[operand].append(node.node_id)
        return out

    def critical_path_length(self) -> int:
        """Longest latency chain through the DFG, in cycles.

        This is the drain time of a spatial pipeline executing the block: the
        longest accumulated FU latency over any dependence chain.
        """
        if self._critical_path is None:
            depth: Dict[NodeId, int] = {}
            for node in self.nodes:  # creation order is topological
                base = max((depth[o] for o in node.operands), default=0)
                depth[node.node_id] = base + node.info.latency
            self._critical_path = max(depth.values(), default=0)
        return self._critical_path

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IRError` on violation.

        Invariants: operand ids precede their consumers (topological creation
        order), arities match, memory nodes carry array names.
        """
        for node in self.nodes:
            info = node.info
            if len(node.operands) != info.arity:
                raise IRError(f"node {node!r}: arity mismatch")
            for operand in node.operands:
                if operand >= node.node_id:
                    raise IRError(
                        f"node {node!r}: operand n{operand} does not precede it"
                    )
            if info.is_memory and not node.array:
                raise IRError(f"node {node!r}: memory op without array")
            if node.opcode is Opcode.CONST and node.value is None:
                raise IRError(f"node {node!r}: const without value")
            if node.opcode is Opcode.INPUT and not node.var:
                raise IRError(f"node {node!r}: input without variable name")

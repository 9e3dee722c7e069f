"""Dynamic execution traces.

A kernel execution is recorded as its **edge table**: how many times
control transferred from block ``src`` to block ``dst`` (a block that
re-executes itself takes a self-edge), plus the block execution started
in.  The table is everything the architecture timing models read:
per-block execution counts are its column sums (plus one for the entry
block), and a loop's entries and iterations are the edges into its
header from outside and from inside its body.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.ir.cdfg import CDFG
from repro.ir.cfg import BlockId


class DynamicTrace:
    """Aggregated dynamic behaviour of one kernel execution.

    Args:
        kernel: name of the executed kernel.
        entry: the block execution started in.
        edge_counts: taken control transfers ``(src, dst) -> count``,
            self-edges included.
    """

    def __init__(self, kernel: str, entry: BlockId,
                 edge_counts: Mapping[Tuple[BlockId, BlockId], int]) -> None:
        self.kernel = kernel
        self.entry = entry
        self.edge_counts: Dict[Tuple[BlockId, BlockId], int] = dict(
            edge_counts
        )
        self.exec_counts: Dict[BlockId, int] = {entry: 1}
        for (_src, dst), count in self.edge_counts.items():
            self.exec_counts[dst] = self.exec_counts.get(dst, 0) + count

    @property
    def total_block_execs(self) -> int:
        return sum(self.exec_counts.values())

    def execs_of(self, block: BlockId) -> int:
        return self.exec_counts.get(block, 0)

    def dynamic_op_count(self, cdfg: CDFG) -> int:
        """Total FU operations executed."""
        return sum(
            cdfg.block(bid).op_count * n for bid, n in self.exec_counts.items()
        )

    def dynamic_ops_in(self, cdfg: CDFG, blocks: Iterable[BlockId]) -> int:
        """FU operations executed within the given block set."""
        wanted: Set[BlockId] = set(blocks)
        return sum(
            cdfg.block(bid).op_count * n
            for bid, n in self.exec_counts.items()
            if bid in wanted
        )

    # ------------------------------------------------------------------
    # Serialization (the engine's on-disk trace cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe image of the trace; its size is O(edges)."""
        return {
            "kernel": self.kernel,
            "entry": self.entry,
            "edge_counts": [
                [src, dst, n]
                for (src, dst), n in sorted(self.edge_counts.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DynamicTrace":
        """Inverse of :meth:`to_payload`."""
        return cls(
            str(payload["kernel"]),
            int(payload["entry"]),
            {(int(src), int(dst)): int(n)
             for src, dst, n in payload["edge_counts"]},
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DynamicTrace({self.kernel}: {len(self.edge_counts)} edges, "
            f"{self.total_block_execs} block execs)"
        )

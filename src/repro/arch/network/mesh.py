"""Data mesh network: XY routing, link occupancy, transfer latency.

The data flow plane connects PEs with a conventional mesh (paper Fig. 4(d):
"Data Mesh Network", ~6-cycle transfers vs the control network's 1 cycle).
The compiler uses :class:`DataMesh` to route placed DFG edges and derive the
initiation-interval pressure caused by link sharing; the execution models
use its latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.topology import Coord, Grid

#: A directed mesh link between neighbouring PE coordinates.
Link = Tuple[Coord, Coord]


@dataclass
class RoutedEdge:
    """One routed producer->consumer data edge."""

    src: Coord
    dst: Coord
    path: List[Coord]

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)

    @property
    def links(self) -> List[Link]:
        return list(zip(self.path, self.path[1:]))


class DataMesh:
    """A mesh interconnect over a PE grid with per-link occupancy."""

    def __init__(self, grid: Grid, *, hop_latency: int = 1,
                 injection_latency: int = 1) -> None:
        self.grid = grid
        self.hop_latency = hop_latency
        self.injection_latency = injection_latency
        self.link_load: Dict[Link, int] = {}

    # ------------------------------------------------------------------
    def route(self, src: Coord, dst: Coord) -> RoutedEdge:
        """Route with dimension-ordered (XY) routing, recording link load."""
        path = self.grid.xy_path(src, dst)
        edge = RoutedEdge(src, dst, path)
        for link in edge.links:
            self.link_load[link] = self.link_load.get(link, 0) + 1
        return edge

    def latency(self, edge: RoutedEdge) -> int:
        """Transfer latency: injection + per-hop traversal (+ejection)."""
        if edge.hops == 0:
            return 0  # same PE, register forwarding
        return self.injection_latency + edge.hops * self.hop_latency + 1

    def max_link_load(self) -> int:
        """Worst per-link sharing; each shared link adds II pressure because
        a link carries one element per cycle."""
        if not self.link_load:
            return 0
        return max(self.link_load.values())

    def congestion_ii(self) -> int:
        """The initiation interval the routed edge set can sustain."""
        return max(1, self.max_link_load())

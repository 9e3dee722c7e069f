"""Data mesh network: XY routes and the link loads they share.

The data flow plane connects PEs with a conventional mesh (paper Fig. 4(d):
"Data Mesh Network").  A link carries one element per cycle, so ``k``
routed edges sharing a link hold the initiation interval at ``k`` or
more.  :class:`DataMesh` is the one model of that pressure: placement
(:mod:`repro.compiler.place`) routes a block's placed edges on it, its
swap pass moves them with :meth:`DataMesh.remove` and :meth:`DataMesh.add`,
and the placement's II reads :meth:`DataMesh.congestion_ii`.  Transfer
latency is not modelled here; the execution models price it from
:class:`~repro.arch.params.ArchParams` directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.arch.topology import Coord, Grid


@lru_cache(maxsize=1 << 14)  # every PE pair of an 8x8 array, four times
def _xy_links(rows: int, cols: int, src: int, dst: int) -> Tuple[int, ...]:
    """The links of the XY route between two row-major PE indices.

    A link is ``4 * pe + direction`` (east, west, south, north), which
    keeps ids of arrays up to 8x8 among Python's shared small ints."""
    grid = Grid(rows, cols)
    path = grid.xy_path(grid.coord(src), grid.coord(dst))
    return tuple(
        4 * (a.row * cols + a.col)
        + (0 if b.col > a.col else 1 if b.col < a.col
           else 2 if b.row > a.row else 3)
        for a, b in zip(path, path[1:])
    )


class DataMesh:
    """A multiset of XY-routed edges over a PE grid, with per-link loads.

    :meth:`route` adds an edge between coordinates; :meth:`add` and
    :meth:`remove` add and remove one between row-major PE indices, so a
    placement pass re-routes only the edges it moved.  A histogram of
    link loads keeps the maximum exact under removal.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self._rows, self._cols = grid.rows, grid.cols
        self._load = [0] * (4 * grid.size)
        #: ``_count[k]``: links currently carrying exactly ``k`` edges
        self._count = [0]
        self._peak = 0
        #: hops summed over the routed edges
        self.wirelength = 0

    def route(self, src: Coord, dst: Coord) -> None:
        """Route one edge from ``src`` to ``dst`` (dimension-ordered XY)."""
        self.add(self.grid.index(src), self.grid.index(dst))

    def add(self, src: int, dst: int) -> None:
        links = _xy_links(self._rows, self._cols, src, dst)
        self.wirelength += len(links)
        load, count = self._load, self._count
        for link in links:
            k = load[link] + 1
            load[link] = k
            count[k - 1] -= 1
            if k == len(count):
                count.append(0)
            count[k] += 1
            if k > self._peak:
                self._peak = k

    def remove(self, src: int, dst: int) -> None:
        """Remove one edge that :meth:`add` or :meth:`route` put in."""
        links = _xy_links(self._rows, self._cols, src, dst)
        self.wirelength -= len(links)
        load, count = self._load, self._count
        for link in links:
            k = load[link]
            load[link] = k - 1
            count[k] -= 1
            count[k - 1] += 1
            if k == self._peak and not count[k]:
                self._peak = k - 1

    def congestion_ii(self) -> int:
        """The initiation interval the routed edges can sustain: the
        worst per-link sharing, at least 1."""
        return max(1, self._peak)

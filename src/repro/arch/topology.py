"""PE grid topology: coordinates, XY routes, and Manhattan geometry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class Coord:
    """A PE position on the array (row-major)."""

    row: int
    col: int

    def manhattan(self, other: "Coord") -> int:
        return abs(self.row - other.row) + abs(self.col - other.col)


class Grid:
    """A ``rows x cols`` PE grid with 4-neighbour (mesh) connectivity."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def contains(self, coord: Coord) -> bool:
        return 0 <= coord.row < self.rows and 0 <= coord.col < self.cols

    def index(self, coord: Coord) -> int:
        """Row-major PE index of a coordinate."""
        if not self.contains(coord):
            raise ConfigurationError(f"{coord} outside {self.rows}x{self.cols}")
        return coord.row * self.cols + coord.col

    def coord(self, index: int) -> Coord:
        """Coordinate of a row-major PE index."""
        if not 0 <= index < self.size:
            raise ConfigurationError(f"PE index {index} out of range")
        return Coord(index // self.cols, index % self.cols)

    def __iter__(self) -> Iterator[Coord]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield Coord(row, col)

    def xy_path(self, src: Coord, dst: Coord) -> List[Coord]:
        """Dimension-ordered (X then Y) route from ``src`` to ``dst``,
        inclusive of both endpoints."""
        if not (self.contains(src) and self.contains(dst)):
            raise ConfigurationError("route endpoints outside the grid")
        path = [src]
        cur = src
        step = 1 if dst.col > src.col else -1
        while cur.col != dst.col:
            cur = Coord(cur.row, cur.col + step)
            path.append(cur)
        step = 1 if dst.row > src.row else -1
        while cur.row != dst.row:
            cur = Coord(cur.row + step, cur.col)
            path.append(cur)
        return path

"""Bounded FIFOs used for a PE's control queues."""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded FIFO.

    ``capacity=None`` models an unbounded queue (the steering FIFO).
    """

    __slots__ = ("name", "capacity", "items")

    def __init__(self, capacity: Optional[int] = None,
                 name: str = "fifo") -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError("fifo capacity must be positive")
        self.name = name
        self.capacity = capacity
        #: the queued items, oldest first; callers only read it (a
        #: truth test here is the simulator's cheapest emptiness check)
        self.items: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def empty(self) -> bool:
        return not self.items

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def push(self, item: T) -> None:
        items = self.items
        if self.capacity is not None and len(items) >= self.capacity:
            raise SimulationError(f"push to full fifo {self.name!r}")
        items.append(item)

    def try_push(self, item: T) -> bool:
        if self.full:
            return False
        self.push(item)
        return True

    def pop(self) -> T:
        if not self.items:
            raise SimulationError(f"pop from empty fifo {self.name!r}")
        return self.items.popleft()

    def peek(self) -> T:
        if self.empty:
            raise SimulationError(f"peek at empty fifo {self.name!r}")
        return self.items[0]

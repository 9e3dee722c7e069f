"""Banked data scratchpad.

Arrays live at fixed base addresses (declared in the
:class:`~repro.isa.program.ArrayProgram` array table); addresses interleave
across banks word-by-word.  Bank conflicts are counted but — matching the
paper's optimistic memory model (Section 6.1) — do not stall accesses.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SimulationError


class Scratchpad:
    """A word-addressed scratchpad of ``words`` 32-bit entries."""

    def __init__(self, words: int, banks: int = 4) -> None:
        if words <= 0 or banks <= 0:
            raise SimulationError("scratchpad size/banks must be positive")
        self.words = words
        self.banks = banks
        self.data: List[float] = [0] * words
        self.reads = 0
        self.writes = 0
        self.bank_conflicts = 0
        #: accesses per bank in ``_cycle``, the cycle last accessed
        self._cycle_banks: List[int] = [0] * banks
        self._cycle: int = -1

    # ------------------------------------------------------------------
    # Each access checks its address and counts a bank conflict when its
    # bank was already accessed in the same cycle.
    def read(self, addr: int, cycle: int = 0) -> float:
        if not 0 <= addr < self.words:
            raise SimulationError(
                f"scratchpad address {addr} out of range (0..{self.words - 1})"
            )
        if cycle != self._cycle:
            self._cycle = cycle
            self._cycle_banks = [0] * self.banks
        counts = self._cycle_banks
        bank = addr % self.banks
        if counts[bank]:
            self.bank_conflicts += 1
        counts[bank] += 1
        self.reads += 1
        return self.data[addr]

    def write(self, addr: int, value: float, cycle: int = 0) -> None:
        if not 0 <= addr < self.words:
            raise SimulationError(
                f"scratchpad address {addr} out of range (0..{self.words - 1})"
            )
        if cycle != self._cycle:
            self._cycle = cycle
            self._cycle_banks = [0] * self.banks
        counts = self._cycle_banks
        bank = addr % self.banks
        if counts[bank]:
            self.bank_conflicts += 1
        counts[bank] += 1
        self.writes += 1
        self.data[addr] = value

    # ------------------------------------------------------------------
    def load_array(self, base: int, values: Sequence[float]) -> None:
        """DMA an array image in at ``base`` (setup, not timed)."""
        if base < 0 or base + len(values) > self.words:
            raise SimulationError(
                f"array of {len(values)} words does not fit at base {base}"
            )
        for offset, value in enumerate(values):
            self.data[base + offset] = (
                value.item() if isinstance(value, np.generic) else value
            )

    def dump_array(self, base: int, length: int) -> np.ndarray:
        """Read an array image back out (verification, not timed)."""
        if base < 0 or base + length > self.words:
            raise SimulationError(
                f"array of {length} words does not fit at base {base}"
            )
        return np.array(self.data[base:base + length])

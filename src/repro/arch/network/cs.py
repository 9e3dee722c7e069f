"""Consecutive Spreading (CS) broadcast network — behavioural model.

The Benes network is rearrangeable non-blocking but cannot replicate a
value; Marionette composes it with CS networks (Lea, 1988) that broadcast an
input to a *consecutive* range of outputs with far fewer switches than
cascaded full-size networks (paper Section 4.1, Fig. 6(b)).

This module models the CS network at the behavioural level:

* structure — ``log2(n)`` stages of ``n/2`` two-by-two switches whose
  crosspoints can replicate an input to both outputs (switch count used by
  the area model);
* capability — a single cycle can realise any set of broadcasts whose output
  ranges are pairwise disjoint and *order-preserving* with respect to the
  sources (the consecutive-spreading property: signal order is maintained,
  ranges cannot cross);
* function — :meth:`CSNetwork.apply` computes the output vector and rejects
  configurations outside the capability.

The switch-level routing bits of the 1988 design are not reproduced; the
area, delay and admissible-traffic behaviour — all the evaluation depends
on — are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import NetworkError


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Broadcast:
    """One broadcast request: input ``src`` to outputs ``lo..hi`` inclusive."""

    src: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise NetworkError(f"empty broadcast range {self.lo}..{self.hi}")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


class CSNetwork:
    """An ``n x n`` consecutive-spreading broadcast network."""

    def __init__(self, n: int) -> None:
        if not _is_power_of_two(n):
            raise NetworkError(f"CS size must be a power of two, got {n}")
        self.n = n

    @property
    def stages(self) -> int:
        """Switch stages: ``log2(n)``."""
        return self.n.bit_length() - 1

    @property
    def switch_count(self) -> int:
        """Total 2x2 spreading switches: ``stages * n/2``."""
        return self.stages * self.n // 2

    # ------------------------------------------------------------------
    def admissible(self, broadcasts: Sequence[Broadcast]) -> bool:
        """Whether the set of broadcasts can be realised in one pass.

        Requires: terminals in range, pairwise disjoint output ranges,
        distinct sources, and source order matching range order (the
        *consecutive spreading* non-crossing property).
        """
        try:
            self._check(broadcasts)
        except NetworkError:
            return False
        return True

    def _check(self, broadcasts: Sequence[Broadcast]) -> None:
        for b in broadcasts:
            if not 0 <= b.src < self.n:
                raise NetworkError(f"source {b.src} out of range")
            if not (0 <= b.lo and b.hi < self.n):
                raise NetworkError(f"range {b.lo}..{b.hi} out of range")
        by_range = sorted(broadcasts, key=lambda b: b.lo)
        for a, b in zip(by_range, by_range[1:]):
            if b.lo <= a.hi:
                raise NetworkError(
                    f"broadcast ranges overlap: {a.lo}..{a.hi} and "
                    f"{b.lo}..{b.hi}"
                )
            if b.src <= a.src:
                raise NetworkError(
                    "consecutive spreading requires source order to match "
                    f"range order (sources {a.src}, {b.src})"
                )

    def apply(self, broadcasts: Sequence[Broadcast],
              inputs: Sequence) -> List[Optional[object]]:
        """Compute the output vector for an admissible broadcast set.

        Outputs not covered by any range are ``None``.

        Raises:
            NetworkError: if the broadcast set is not admissible.
        """
        if len(inputs) != self.n:
            raise NetworkError(f"expected {self.n} inputs, got {len(inputs)}")
        self._check(broadcasts)
        outputs: List[Optional[object]] = [None] * self.n
        for b in broadcasts:
            for out in range(b.lo, b.hi + 1):
                outputs[out] = inputs[b.src]
        return outputs

"""Benes network: construction, permutation routing, functional simulation.

A Benes network on ``n = 2^k`` terminals is the rearrangeable non-blocking
butterfly-shaped structure the paper uses as the starting point of the
control network (Section 4.1, Fig. 6(a)): ``2*log2(n) - 1`` stages of
``n/2`` two-by-two switches, far cheaper than an ``n x n`` crossbar.

Routing uses the classic looping algorithm: inputs sharing a first-stage
switch must enter different half-size subnetworks, outputs sharing a
last-stage switch must leave from different subnetworks; walking these
constraints two-colours every terminal, then the two half permutations are
routed recursively.  :meth:`BenesNetwork.simulate` pushes values through the
configured switches to prove the configuration realises the permutation —
tests exercise this on every permutation of small networks and random
permutations of large ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import NetworkError


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass
class RouteConfig:
    """Switch settings realising one permutation.

    ``first`` / ``last`` hold per-switch *cross* flags for the entry and exit
    stages (``False`` = straight).  For the base two-terminal network only
    ``first`` is populated.
    """

    n: int
    first: List[bool] = field(default_factory=list)
    last: List[bool] = field(default_factory=list)
    upper: Optional["RouteConfig"] = None
    lower: Optional["RouteConfig"] = None

    def switch_settings_count(self) -> int:
        """Total number of configured switches (for area cross-checks)."""
        count = len(self.first) + len(self.last)
        if self.upper is not None:
            count += self.upper.switch_settings_count()
        if self.lower is not None:
            count += self.lower.switch_settings_count()
        return count


class BenesNetwork:
    """An ``n x n`` Benes network (``n`` must be a power of two, >= 2)."""

    def __init__(self, n: int) -> None:
        if not _is_power_of_two(n):
            raise NetworkError(f"Benes size must be a power of two, got {n}")
        self.n = n

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    @property
    def stages(self) -> int:
        """Number of switch stages: ``2*log2(n) - 1``."""
        return 2 * (self.n.bit_length() - 1) - 1

    @property
    def switch_count(self) -> int:
        """Total 2x2 switches: ``stages * n/2``."""
        return self.stages * self.n // 2

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, permutation: Sequence[int]) -> RouteConfig:
        """Compute switch settings realising ``permutation``.

        Args:
            permutation: ``permutation[i]`` is the output terminal for input
                ``i``; must be a permutation of ``range(n)``.

        Raises:
            NetworkError: if the argument is not a valid permutation.
        """
        perm = list(permutation)
        if sorted(perm) != list(range(self.n)):
            raise NetworkError(
                f"not a permutation of range({self.n}): {permutation!r}"
            )
        return self._route(perm)

    def _route(self, perm: List[int]) -> RouteConfig:
        n = len(perm)
        if n == 2:
            return RouteConfig(n=2, first=[perm[0] == 1])

        inverse = [0] * n
        for i, o in enumerate(perm):
            inverse[o] = i

        # Two-colour terminals: subnet[i] == 0 routes input i via the upper
        # half network, 1 via the lower.
        subnet: List[Optional[int]] = [None] * n
        for start in range(n):
            if subnet[start] is not None:
                continue
            i, colour = start, 0
            while subnet[i] is None:
                subnet[i] = colour
                partner_in = i ^ 1              # shares the first-stage switch
                if subnet[partner_in] is None:
                    subnet[partner_in] = colour ^ 1
                partner_out = perm[partner_in] ^ 1  # shares last-stage switch
                i = inverse[partner_out]
                colour = subnet[partner_in] ^ 1

        first = [subnet[2 * s] == 1 for s in range(n // 2)]
        upper_perm: List[int] = [0] * (n // 2)
        lower_perm: List[int] = [0] * (n // 2)
        for i in range(n):
            sub_in = i // 2
            sub_out = perm[i] // 2
            if subnet[i] == 0:
                upper_perm[sub_in] = sub_out
            else:
                lower_perm[sub_in] = sub_out
        # Last-stage switch t is crossed when the upper subnetwork's output t
        # feeds terminal 2t+1 instead of 2t.
        last = [False] * (n // 2)
        for i in range(n):
            if subnet[i] == 0:
                last[perm[i] // 2] = perm[i] % 2 == 1

        return RouteConfig(
            n=n,
            first=first,
            last=last,
            upper=self._route(upper_perm),
            lower=self._route(lower_perm),
        )

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    def simulate(self, config: RouteConfig, inputs: Sequence) -> List:
        """Push ``inputs`` through the configured switches.

        Returns the output vector; with a config from :meth:`route` this
        satisfies ``outputs[perm[i]] == inputs[i]``.
        """
        if len(inputs) != self.n:
            raise NetworkError(
                f"expected {self.n} inputs, got {len(inputs)}"
            )
        if config.n != self.n:
            raise NetworkError("config size does not match network size")
        return self._simulate(config, list(inputs))

    def _simulate(self, config: RouteConfig, inputs: List) -> List:
        n = len(inputs)
        if n == 2:
            cross = config.first[0]
            return [inputs[1], inputs[0]] if cross else list(inputs)

        upper_in = [None] * (n // 2)
        lower_in = [None] * (n // 2)
        for s in range(n // 2):
            a, b = inputs[2 * s], inputs[2 * s + 1]
            if config.first[s]:
                a, b = b, a
            upper_in[s] = a
            lower_in[s] = b

        assert config.upper is not None and config.lower is not None
        upper_out = self._simulate(config.upper, upper_in)
        lower_out = self._simulate(config.lower, lower_in)

        outputs = [None] * n
        for t in range(n // 2):
            a, b = upper_out[t], lower_out[t]
            if config.last[t]:
                a, b = b, a
            outputs[2 * t] = a
            outputs[2 * t + 1] = b
        return outputs

    def verify(self, permutation: Sequence[int]) -> bool:
        """Route then simulate; ``True`` iff the permutation is realised."""
        config = self.route(permutation)
        outputs = self.simulate(config, list(range(self.n)))
        return all(outputs[permutation[i]] == i for i in range(self.n))

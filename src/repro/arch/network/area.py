"""Area and delay models for the networks (Table 6, Fig. 13).

The paper's absolute numbers come from Synopsys DC synthesis at 28 nm; this
module replaces synthesis with analytic models **calibrated to the published
component areas** (Table 4) so that relative comparisons — the network area
ratio of Table 6 and the delay-vs-stages scaling of Fig. 13 — are computed
from structure (switch counts, stage counts), not hardcoded per experiment.

Calibration anchors (28 nm, 32-bit data / 12-bit control):

* Marionette control network (two 16x16 CS + one 64x64 Benes, 416 two-by-two
  switches) = 0.0022 mm^2  ->  control switch area;
* Marionette data mesh (16 routers) = 0.0063 mm^2  ->  router area;
* memory access interconnect = 0.0030 mm^2 (fixed block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.arch.network.benes import BenesNetwork
from repro.arch.network.cs import CSNetwork
from repro.arch.network.cs_benes import ControlNetwork


def _next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def benes_switch_count(n: int) -> int:
    """2x2 switches in an ``n x n`` Benes network."""
    return BenesNetwork(_next_power_of_two(max(2, n))).switch_count


def cs_switch_count(n: int) -> int:
    """2x2 switches in an ``n x n`` consecutive-spreading network."""
    return CSNetwork(_next_power_of_two(max(2, n))).switch_count


# ----------------------------------------------------------------------
# Calibration constants (28 nm)
# ----------------------------------------------------------------------
#: Table 4: control network of the 4x4 prototype = 0.0022 mm^2 over the
#: 416 switches of its CS-Benes fabric.
_PROTO_CTRL_SWITCHES = (
    ControlNetwork(16).switch_count
)
CTRL_SWITCH_AREA_MM2 = 0.0022 / _PROTO_CTRL_SWITCHES

#: Table 4: data mesh of the 4x4 prototype = 0.0063 mm^2 over 16 routers.
DATA_ROUTER_AREA_MM2 = 0.0063 / 16

#: Table 4: memory access interconnect (fixed block for 4 banks).
MEMORY_INTERCONNECT_AREA_MM2 = 0.0030

#: Nominal 28 nm switch traversal delay (ns) and per-stage wire delay used
#: by the Fig. 13 delay model; calibrated so the 19-stage prototype fabric
#: closes timing in a single 500 MHz cycle (paper Fig. 4(d)).
SWITCH_DELAY_NS = 0.07
WIRE_DELAY_PER_STAGE_NS = 0.025
#: Fraction of traversal delay recoverable by synthesis under a tight clock
#: constraint (faster cells, more buffering).
SYNTHESIS_SPEEDUP_MAX = 0.35


@dataclass(frozen=True)
class NetworkAreaModel:
    """Computes network areas for a Marionette instance."""

    n_pes: int = 16
    data_width_bits: int = 32
    ctrl_width_bits: int = 12

    def control_network_area(self) -> float:
        """Area (mm^2) of the CS-Benes control network for ``n_pes``."""
        switches = ControlNetwork(self.n_pes).switch_count
        width_scale = self.ctrl_width_bits / 12
        return switches * CTRL_SWITCH_AREA_MM2 * width_scale

    def data_network_area(self) -> float:
        """Area (mm^2) of the data mesh (one router per PE)."""
        width_scale = self.data_width_bits / 32
        return self.n_pes * DATA_ROUTER_AREA_MM2 * width_scale

    def memory_interconnect_area(self) -> float:
        return MEMORY_INTERCONNECT_AREA_MM2 * (self.n_pes / 16)


# ----------------------------------------------------------------------
# Fig. 13: delay vs stages vs synthesis frequency
# ----------------------------------------------------------------------
def delay_model(stages: int, frequency_ghz: float) -> Dict[str, float]:
    """Control-network delay for a given stage count and clock target.

    Models DC synthesis behaviour: under a tighter clock the tools buy back
    up to ``SYNTHESIS_SPEEDUP_MAX`` of the per-switch delay; wire delay per
    stage is constant.  Returns the raw network delay, the clock period, and
    the resulting latency in cycles (the quantity Fig. 13 argues stays low).
    """
    if stages <= 0:
        raise ConfigurationError("stage count must be positive")
    if frequency_ghz <= 0:
        raise ConfigurationError("frequency must be positive")
    period_ns = 1.0 / frequency_ghz
    # Normalised synthesis pressure: 0 at 0.5 GHz (relaxed), 1 at 2 GHz.
    pressure = min(1.0, max(0.0, (frequency_ghz - 0.5) / 1.5))
    switch_delay = SWITCH_DELAY_NS * (1 - SYNTHESIS_SPEEDUP_MAX * pressure)
    network_delay = stages * (switch_delay + WIRE_DELAY_PER_STAGE_NS)
    cycles = max(1, math.ceil(network_delay / period_ns))
    return {
        "stages": stages,
        "frequency_ghz": frequency_ghz,
        "network_delay_ns": network_delay,
        "clock_period_ns": period_ns,
        "latency_cycles": cycles,
        "meets_single_cycle": network_delay <= period_ns,
    }


def scaling_series(
    stage_range: Sequence[int] = (3, 5, 7, 9, 11, 13),
    frequencies_ghz: Sequence[float] = (0.5, 1.0, 2.0),
) -> List[Dict[str, float]]:
    """The Fig. 13 sweep: every (stages, frequency) point."""
    return [
        delay_model(stages, freq)
        for freq in frequencies_ghz
        for stages in stage_range
    ]


def stages_for_array(n_pes: int) -> int:
    """Control-network stage count for an ``n_pes`` array (CS + Benes +
    CS along the critical path)."""
    cs = CSNetwork(_next_power_of_two(max(2, n_pes))).stages
    benes = BenesNetwork(_next_power_of_two(max(2, 4 * n_pes))).stages
    return 2 * cs + benes

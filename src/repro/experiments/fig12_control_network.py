"""Figure 12: speedup from the peer-to-peer control network.

Paper result: the CS-Benes control network contributes geomean 1.14x, up
to 1.36x on CRC; CRC/ADPCM/Merge Sort benefit most because they are only
partially pipelined, leaving control transfer latency exposed.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.experiments.common import (
    INTENSIVE,
    MARIONETTE_CN,
    MARIONETTE_PE,
    ExperimentResult,
    feature_speedup,
    grid,
    priced,
)

WORKLOADS = INTENSIVE
MODELS = (MARIONETTE_PE, MARIONETTE_CN)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 12",
        title="Speedup contributed by the dedicated control network",
        columns=["kernel", "marionette_pe", "with_control_network",
                 "improvement_pct"],
        paper_claim="geomean 1.14x, up to 1.36x (CRC)",
    )
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)
    return feature_speedup(result, "control-network", prices, MARIONETTE_CN)

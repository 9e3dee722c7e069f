"""Figure 14: speedup from Agile PE Assignment.

Paper result: geomean 2.03x, up to 5.99x; kernels that cannot pipeline
well (CRC/ADPCM/Merge Sort/LDPC) see little gain, regular imperfect nests
(HT, GEMM, SC Decode, Viterbi) see the most.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.experiments.common import (
    INTENSIVE,
    MARIONETTE_AGILE,
    MARIONETTE_PE,
    ExperimentResult,
    feature_speedup,
    grid,
    priced,
)

WORKLOADS = INTENSIVE
MODELS = (MARIONETTE_PE, MARIONETTE_AGILE)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 14",
        title="Speedup contributed by Agile PE Assignment",
        columns=["kernel", "marionette_pe", "with_agile", "improvement_pct"],
        paper_claim="geomean 2.03x, up to 5.99x",
    )
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)
    return feature_speedup(result, "Agile", prices, MARIONETTE_AGILE)

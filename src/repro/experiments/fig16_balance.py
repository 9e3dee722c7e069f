"""Figure 16: control network speedup vs Agile PE Assignment speedup.

Paper claim: the two features split the kernels — partially-pipelined
kernels (MS, ADPCM, CRC, LDPC) gain from the control network; kernels with
regular control flow (VI, HT, SCD, GEMM) gain from Agile PE Assignment —
distinguished by how much of the control flow can be hidden in pipelines.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.workloads import get_workload
from repro.experiments.common import (
    MARIONETTE_AGILE,
    MARIONETTE_CN,
    MARIONETTE_PE,
    ExperimentResult,
    feature_gains,
    grid,
    priced,
)

#: paper order: network-optimised group, then pipeline-optimised group
WORKLOADS = ("ms", "adpcm", "crc", "ldpc", "nw", "fft", "vi", "ht", "scd",
             "gemm")
MODELS = (MARIONETTE_PE, MARIONETTE_CN, MARIONETTE_AGILE)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)
    result = ExperimentResult(
        experiment="Figure 16",
        title="Control network speedup vs Agile PE Assignment speedup",
        columns=["kernel", "network_speedup_pct", "agile_speedup_pct",
                 "dominant"],
        paper_claim="network helps partially-pipelined kernels (MS ADPCM "
                    "CRC LDPC); Agile helps regular ones (VI HT SCD GEMM)",
    )
    for name, network_gain, agile_gain in zip(
            WORKLOADS, feature_gains(prices, WORKLOADS, MARIONETTE_CN),
            feature_gains(prices, WORKLOADS, MARIONETTE_AGILE)):
        network_pct = 100.0 * (network_gain - 1.0)
        agile_pct = 100.0 * (agile_gain - 1.0)
        if agile_pct > 2 * network_pct:
            dominant = "pipeline"
        elif network_pct > 2 * agile_pct:
            dominant = "network"
        else:
            dominant = "balanced"
        result.rows.append({
            "kernel": get_workload(name).short,
            "network_speedup_pct": network_pct,
            "agile_speedup_pct": agile_pct,
            "dominant": dominant,
        })
    return result

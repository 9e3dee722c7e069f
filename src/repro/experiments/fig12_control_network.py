"""Figure 12: speedup from the peer-to-peer control network.

Paper result: the CS-Benes control network contributes geomean 1.14x, up
to 1.36x on CRC; CRC/ADPCM/Merge Sort benefit most because they are only
partially pipelined, leaving control transfer latency exposed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.perf.speedup import geomean
from repro.workloads import INTENSIVE_WORKLOADS
from repro.experiments.common import (
    MARIONETTE_CN,
    MARIONETTE_PE,
    ExperimentResult,
    execute_specs,
)


def specs(scale: str = "small", seed: int = 0,
          params: ArchParams = DEFAULT_PARAMS) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model, params)
        for w in INTENSIVE_WORKLOADS
        for model in (MARIONETTE_PE, MARIONETTE_CN)
    ]


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    table = execute_specs(specs(scale, seed, params), engine)

    result = ExperimentResult(
        experiment="Figure 12",
        title="Speedup contributed by the dedicated control network",
        columns=["kernel", "marionette_pe", "with_control_network",
                 "improvement_pct"],
        paper_claim="geomean 1.14x, up to 1.36x (CRC)",
    )
    gains = []
    for workload in INTENSIVE_WORKLOADS:
        short = workload.short.lower()
        base_cycles = table.cycles(
            RunSpec(short, scale, seed, MARIONETTE_PE, params)
        )
        net_cycles = table.cycles(
            RunSpec(short, scale, seed, MARIONETTE_CN, params)
        )
        gain = base_cycles / net_cycles
        gains.append(gain)
        result.rows.append({
            "kernel": workload.short,
            "marionette_pe": 1.0,
            "with_control_network": gain,
            "improvement_pct": 100.0 * (gain - 1.0),
        })
    result.summary = {
        "geomean control-network speedup": geomean(gains),
        "max control-network speedup": max(gains),
    }
    return result

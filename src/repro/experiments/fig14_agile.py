"""Figure 14: speedup from Agile PE Assignment.

Paper result: geomean 2.03x, up to 5.99x; kernels that cannot pipeline
well (CRC/ADPCM/Merge Sort/LDPC) see little gain, regular imperfect nests
(HT, GEMM, SC Decode, Viterbi) see the most.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.perf.speedup import geomean
from repro.workloads import INTENSIVE_WORKLOADS
from repro.experiments.common import (
    MARIONETTE_AGILE,
    MARIONETTE_PE,
    ExperimentResult,
    execute_specs,
)


def specs(scale: str = "small", seed: int = 0,
          params: ArchParams = DEFAULT_PARAMS) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model, params)
        for w in INTENSIVE_WORKLOADS
        for model in (MARIONETTE_PE, MARIONETTE_AGILE)
    ]


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    table = execute_specs(specs(scale, seed, params), engine)
    result = ExperimentResult(
        experiment="Figure 14",
        title="Speedup contributed by Agile PE Assignment",
        columns=["kernel", "marionette_pe", "with_agile", "improvement_pct"],
        paper_claim="geomean 2.03x, up to 5.99x",
    )
    gains = []
    for workload in INTENSIVE_WORKLOADS:
        short = workload.short.lower()
        base_cycles = table.cycles(
            RunSpec(short, scale, seed, MARIONETTE_PE, params)
        )
        agile_cycles = table.cycles(
            RunSpec(short, scale, seed, MARIONETTE_AGILE, params)
        )
        gain = base_cycles / agile_cycles
        gains.append(gain)
        result.rows.append({
            "kernel": workload.short,
            "marionette_pe": 1.0,
            "with_agile": gain,
            "improvement_pct": 100.0 * (gain - 1.0),
        })
    result.summary = {
        "geomean Agile speedup": geomean(gains),
        "max Agile speedup": max(gains),
    }
    return result

"""Figure 17: Marionette vs state-of-the-art spatial architectures.

All 13 kernels; cycles normalised to Softbrain (higher = faster).

Paper result: on intensive control flow kernels Marionette outperforms
Softbrain 2.88x, TIA 3.38x, REVEL 1.55x, RipTide 2.66x geomean; on the
non-intensive kernels (CO/SI/GP) all architectures are comparable except
TIA (longer pipeline II).
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.perf.speedup import geomean
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.experiments.common import (
    INTENSIVE,
    MARIONETTE,
    REVEL,
    RIPTIDE,
    SOFTBRAIN,
    TIA,
    ExperimentResult,
    grid,
    priced,
)

WORKLOADS = tuple(w.short.lower() for w in ALL_WORKLOADS)
MODELS = (SOFTBRAIN, TIA, REVEL, RIPTIDE, MARIONETTE)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)
    result = ExperimentResult(
        experiment="Figure 17",
        title="vs state-of-the-art architectures "
              "(normalized speedup over Softbrain)",
        columns=["kernel", "group", "softbrain", "tia", "revel", "riptide",
                 "marionette"],
        paper_claim="geomean 2.88x / 3.38x / 1.55x / 2.66x over "
                    "Softbrain / TIA / REVEL / RipTide on intensive kernels",
    )
    for name in WORKLOADS:
        workload = get_workload(name)
        base = prices[name, SOFTBRAIN].cycles
        result.rows.append({
            "kernel": workload.short,
            "group": workload.group,
            **{model.model: base / prices[name, model].cycles
               for model in MODELS},
        })

    for rival in MODELS[:-1]:
        result.summary[f"geomean speedup vs {rival.model}"] = geomean([
            prices[name, rival].cycles / prices[name, MARIONETTE].cycles
            for name in INTENSIVE
        ])
    result.summary["geomean vs best rival (non-intensive)"] = geomean([
        min(prices[name, rival].cycles
            for rival in (SOFTBRAIN, REVEL, RIPTIDE))
        / prices[name, MARIONETTE].cycles
        for name in WORKLOADS if name not in INTENSIVE
    ])
    return result

"""Figure 17: Marionette vs state-of-the-art spatial architectures.

All 13 kernels; cycles normalised to Softbrain (higher = faster).

Paper result: on intensive control flow kernels Marionette outperforms
Softbrain 2.88x, TIA 3.38x, REVEL 1.55x, RipTide 2.66x geomean; on the
non-intensive kernels (CO/SI/GP) all architectures are comparable except
TIA (longer pipeline II).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.perf.speedup import geomean
from repro.workloads import (
    ALL_WORKLOADS,
    INTENSIVE_WORKLOADS,
    NON_INTENSIVE_WORKLOADS,
)
from repro.experiments.common import (
    MARIONETTE,
    REVEL,
    RIPTIDE,
    SOFTBRAIN,
    TIA,
    ExperimentResult,
    execute_specs,
)

_MODELS = {
    "softbrain": SOFTBRAIN,
    "tia": TIA,
    "revel": REVEL,
    "riptide": RIPTIDE,
    "marionette": MARIONETTE,
}


def specs(scale: str = "small", seed: int = 0,
          params: ArchParams = DEFAULT_PARAMS) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model, params)
        for w in ALL_WORKLOADS
        for model in _MODELS.values()
    ]


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    table = execute_specs(specs(scale, seed, params), engine)
    result = ExperimentResult(
        experiment="Figure 17",
        title="vs state-of-the-art architectures "
              "(normalized speedup over Softbrain)",
        columns=["kernel", "group", "softbrain", "tia", "revel", "riptide",
                 "marionette"],
        paper_claim="geomean 2.88x / 3.38x / 1.55x / 2.66x over "
                    "Softbrain / TIA / REVEL / RipTide on intensive kernels",
    )
    cycles_by_kernel: Dict[str, Dict[str, int]] = {}
    for workload in ALL_WORKLOADS:
        short = workload.short.lower()
        cycles = {
            name: table.cycles(RunSpec(short, scale, seed, model, params))
            for name, model in _MODELS.items()
        }
        cycles_by_kernel[workload.short] = cycles
        base = cycles["softbrain"]
        result.rows.append({
            "kernel": workload.short,
            "group": workload.group,
            **{name: base / c for name, c in cycles.items()},
        })

    intensive = [w.short for w in INTENSIVE_WORKLOADS]
    for rival in ("softbrain", "tia", "revel", "riptide"):
        result.summary[f"geomean speedup vs {rival}"] = geomean([
            cycles_by_kernel[k][rival] / cycles_by_kernel[k]["marionette"]
            for k in intensive
        ])
    non_intensive = [w.short for w in NON_INTENSIVE_WORKLOADS]
    result.summary["geomean vs best rival (non-intensive)"] = geomean([
        min(
            cycles_by_kernel[k][r]
            for r in ("softbrain", "revel", "riptide")
        ) / cycles_by_kernel[k]["marionette"]
        for k in non_intensive
    ])
    return result

"""Figure 11: Marionette PE vs von Neumann PE vs dataflow PE.

Paper setup (Section 7.1): Proactive PE Configuration on, but *no*
dedicated control network and *no* Agile PE Assignment; data network
unified across the three models.  Secondary axis: the share of dynamically
executed operators under a branch.

Paper result: Marionette PE outperforms the von Neumann PE by geomean
1.18x (up to 1.45x on Merge Sort) and the dataflow PE by 1.33x (up to
1.76x on GEMM).
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine, default_engine
from repro.engine.spec import RunSpec
from repro.ir import analysis
from repro.perf.speedup import geomean
from repro.workloads import INTENSIVE_WORKLOADS
from repro.experiments.common import (
    DATAFLOW,
    MARIONETTE_PE,
    VON_NEUMANN,
    ExperimentResult,
    execute_specs,
)

_MODELS = (VON_NEUMANN, DATAFLOW, MARIONETTE_PE)


def specs(scale: str = "small", seed: int = 0,
          params: ArchParams = DEFAULT_PARAMS) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model, params)
        for w in INTENSIVE_WORKLOADS
        for model in _MODELS
    ]


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    engine = engine or default_engine()
    table = execute_specs(specs(scale, seed, params), engine)

    result = ExperimentResult(
        experiment="Figure 11",
        title="PE execution model comparison (normalized to von Neumann)",
        columns=["kernel", "von_neumann", "dataflow", "marionette_pe",
                 "ops_under_branch_pct"],
        paper_claim="geomean 1.18x over vN PE, 1.33x over dataflow PE",
    )
    speedups_vn = []
    speedups_df = []
    for workload in INTENSIVE_WORKLOADS:
        short = workload.short.lower()
        kernel = engine.kernel(short, scale, seed)
        cycles = {
            "vn": table.cycles(RunSpec(short, scale, seed,
                                       VON_NEUMANN, params)),
            "df": table.cycles(RunSpec(short, scale, seed,
                                       DATAFLOW, params)),
            "m": table.cycles(RunSpec(short, scale, seed,
                                      MARIONETTE_PE, params)),
        }
        under_branch = 100.0 * analysis.ops_under_branch_fraction(
            kernel.cdfg, kernel.trace
        )
        result.rows.append({
            "kernel": workload.short,
            "von_neumann": 1.0,
            "dataflow": cycles["vn"] / cycles["df"],
            "marionette_pe": cycles["vn"] / cycles["m"],
            "ops_under_branch_pct": under_branch,
        })
        speedups_vn.append(cycles["vn"] / cycles["m"])
        speedups_df.append(cycles["df"] / cycles["m"])

    result.summary = {
        "geomean speedup vs von Neumann PE": geomean(speedups_vn),
        "geomean speedup vs dataflow PE": geomean(speedups_df),
        "max speedup vs von Neumann PE": max(speedups_vn),
        "max speedup vs dataflow PE": max(speedups_df),
    }
    return result

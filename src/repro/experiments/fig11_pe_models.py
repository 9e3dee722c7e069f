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

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine, default_engine
from repro.ir import analysis
from repro.perf.speedup import geomean
from repro.workloads import get_workload
from repro.experiments.common import (
    DATAFLOW,
    INTENSIVE,
    MARIONETTE_PE,
    VON_NEUMANN,
    ExperimentResult,
    grid,
    priced,
)

WORKLOADS = INTENSIVE
MODELS = (VON_NEUMANN, DATAFLOW, MARIONETTE_PE)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    engine = engine or default_engine()
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)

    result = ExperimentResult(
        experiment="Figure 11",
        title="PE execution model comparison (normalized to von Neumann)",
        columns=["kernel", "von_neumann", "dataflow", "marionette_pe",
                 "ops_under_branch_pct"],
        paper_claim="geomean 1.18x over vN PE, 1.33x over dataflow PE",
    )
    speedups_vn = []
    speedups_df = []
    for name in WORKLOADS:
        kernel = engine.kernel(name, scale, seed)
        vn, df, m = (prices[name, model].cycles for model in MODELS)
        under_branch = 100.0 * analysis.ops_under_branch_fraction(
            kernel.cdfg, kernel.trace
        )
        result.rows.append({
            "kernel": get_workload(name).short,
            "von_neumann": 1.0,
            "dataflow": vn / df,
            "marionette_pe": vn / m,
            "ops_under_branch_pct": under_branch,
        })
        speedups_vn.append(vn / m)
        speedups_df.append(df / m)

    result.summary = {
        "geomean speedup vs von Neumann PE": geomean(speedups_vn),
        "geomean speedup vs dataflow PE": geomean(speedups_df),
        "max speedup vs von Neumann PE": max(speedups_vn),
        "max speedup vs dataflow PE": max(speedups_df),
    }
    return result

"""Figure 15: effects of Agile PE Assignment on utilization.

Only multi-level nested-loop kernels whose innermost loop pipelines are
included (paper: FFT, VI, NW, HT, SCD, LDPC, GEMM).

Paper result: outer-BB PE utilization improves 21.57x on average (GEMM
134x); pipeline utilization improves 1.54x on average.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine, default_engine
from repro.perf.utilization import outer_bb_utilization, pipeline_utilization
from repro.workloads import get_workload
from repro.experiments.common import (
    MARIONETTE_AGILE,
    MARIONETTE_PE,
    ExperimentResult,
    grid,
    priced,
)

WORKLOADS = ("fft", "vi", "nw", "ht", "scd", "ldpc", "gemm")
MODELS = (MARIONETTE_PE, MARIONETTE_AGILE)


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    engine = engine or default_engine()
    prices = priced(grid(WORKLOADS, MODELS, scale, seed, params), engine)
    result = ExperimentResult(
        experiment="Figure 15",
        title="Outer-BB PE utilization and pipeline utilization",
        columns=["kernel", "outer_util_orig_pct", "outer_util_agile_pct",
                 "outer_util_gain", "pipe_util_orig_pct",
                 "pipe_util_agile_pct", "pipe_util_gain"],
        paper_claim="outer-BB utilization 21.57x avg (GEMM 134x); "
                    "pipeline utilization 1.54x avg",
    )
    outer_gains = []
    pipe_gains = []
    for name in WORKLOADS:
        kernel = engine.kernel(name, scale, seed)
        base_result = prices[name, MARIONETTE_PE]
        agile_result = prices[name, MARIONETTE_AGILE]
        outer_orig = outer_bb_utilization(
            kernel, base_result, params, agile=False
        )
        outer_new = outer_bb_utilization(
            kernel, agile_result, params, agile=True
        )
        pipe_orig = pipeline_utilization(base_result)
        pipe_new = pipeline_utilization(agile_result)
        outer_gain = outer_new / outer_orig if outer_orig > 0 else 1.0
        pipe_gain = pipe_new / pipe_orig if pipe_orig > 0 else 1.0
        outer_gains.append(outer_gain)
        pipe_gains.append(pipe_gain)
        result.rows.append({
            "kernel": get_workload(name).short,
            "outer_util_orig_pct": 100.0 * outer_orig,
            "outer_util_agile_pct": 100.0 * outer_new,
            "outer_util_gain": outer_gain,
            "pipe_util_orig_pct": 100.0 * pipe_orig,
            "pipe_util_agile_pct": 100.0 * pipe_new,
            "pipe_util_gain": pipe_gain,
        })
    result.summary = {
        "mean outer-BB utilization gain": sum(outer_gains) / len(outer_gains),
        "max outer-BB utilization gain": max(outer_gains),
        "mean pipeline utilization gain": sum(pipe_gains) / len(pipe_gains),
    }
    return result

"""Table 4: area and power breakdown of the 28 nm prototype.

Computed from the calibrated component models; the default configuration
reproduces the published totals (0.151 mm^2, 152.09 mW).
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.perf.area import table4_rows
from repro.experiments.common import ExperimentResult


#: Analytic: no workload is priced.
WORKLOADS = MODELS = ()


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    """Parameter-only: ``scale``, ``seed`` and ``engine`` are accepted
    for the common protocol and ignored."""
    result = ExperimentResult(
        experiment="Table 4",
        title="Area and power breakdown (28 nm)",
        columns=["group", "component", "area_mm2", "power_mw"],
        paper_claim="total 0.151 mm^2, 152.09 mW",
    )
    rows = table4_rows(params)
    for row in rows:
        result.rows.append({
            "group": row["group"],
            "component": row["component"],
            "area_mm2": round(float(row["area_mm2"]), 4),
            "power_mw": round(float(row["power_mw"]), 2),
        })
    total = rows[-1]
    result.summary = {
        "total area mm^2": float(total["area_mm2"]),
        "total power mW": float(total["power_mw"]),
    }
    return result

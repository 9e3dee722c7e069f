"""Table 6: network area across architectures (28 nm, 32-bit, 4x4).

Competitor numbers are the paper's published constants; the Marionette row
is computed from this repository's PE and network area models.

Paper result: Marionette's total network area is 0.0118 mm^2 — 11.5% of
the computing fabric, versus 47-76% for the other architectures.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.perf.area import table6_rows
from repro.experiments.common import ExperimentResult


#: Analytic: no workload is priced.
WORKLOADS = MODELS = ()


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    """Parameter-only: ``scale``, ``seed`` and ``engine`` are accepted
    for the common protocol and ignored."""
    result = ExperimentResult(
        experiment="Table 6",
        title="Network area vs computing fabric (28 nm, 32-bit, 4x4)",
        columns=["architecture", "pe_area", "network_area",
                 "computing_fabric", "network_ratio_pct"],
        paper_claim="Marionette network ratio 11.5% vs 47.2-75.8% for "
                    "Softbrain/REVEL/DySER/Plasticine/SPU",
    )
    for row in table6_rows(params):
        result.rows.append({
            "architecture": row["architecture"],
            "pe_area": round(float(row["pe_area"]), 4),
            "network_area": round(float(row["network_area"]), 4),
            "computing_fabric": round(float(row["computing_fabric"]), 4),
            "network_ratio_pct": 100.0 * float(row["network_ratio"]),
        })
        if row["architecture"] == "Marionette":
            result.summary["marionette network ratio pct"] = (
                100.0 * float(row["network_ratio"])
            )
    return result

"""Area/power models and utilization analyses backing the experiments."""

from repro.perf.area import AreaPowerModel, TABLE6_PUBLISHED, table4_rows, table6_rows
from repro.perf.utilization import (
    outer_bb_utilization,
    pipeline_utilization,
)
from repro.perf.speedup import geomean

__all__ = [
    "AreaPowerModel",
    "TABLE6_PUBLISHED",
    "table4_rows",
    "table6_rows",
    "outer_bb_utilization",
    "pipeline_utilization",
    "geomean",
]

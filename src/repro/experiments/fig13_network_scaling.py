"""Figure 13: control network delay vs stages vs synthesis frequency.

Paper claim: higher frequency and larger fabric increase network latency,
but the increase (in cycles) stays low — the control network scales well
because control flow tolerates more latency than the data path.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.network.area import delay_model, scaling_series, stages_for_array
from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.experiments.common import ExperimentResult

#: Control network stage counts and synthesis frequencies the figure sweeps.
STAGE_RANGE = (3, 5, 7, 9, 11, 13, 15, 17, 19)
FREQUENCIES_GHZ = (0.5, 1.0, 2.0)

#: Analytic: no workload is priced.
WORKLOADS = MODELS = ()


def run(scale: str = "small", seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        engine: Optional[Engine] = None) -> ExperimentResult:
    """The sweep is analytic: ``scale``, ``seed``, ``params`` and
    ``engine`` are accepted for the common protocol and ignored."""
    result = ExperimentResult(
        experiment="Figure 13",
        title="Control network delay vs stages and synthesis frequency",
        columns=["stages", "frequency_ghz", "network_delay_ns",
                 "clock_period_ns", "latency_cycles", "meets_single_cycle"],
        paper_claim="latency grows slowly with stages; single-cycle at "
                    "500 MHz for the 4x4 prototype (19 stages)",
    )
    for point in scaling_series(STAGE_RANGE, FREQUENCIES_GHZ):
        result.rows.append(point)
    prototype = delay_model(stages_for_array(16), 0.5)
    result.summary = {
        "prototype stages (4x4)": float(stages_for_array(16)),
        "prototype latency cycles @500MHz": float(
            prototype["latency_cycles"]
        ),
    }
    return result

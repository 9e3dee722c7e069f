"""One module per paper table/figure, plus the ablation studies.

Each module exposes ``run(scale, seed) -> ExperimentResult`` and can be
executed directly (``python -m repro.experiments.fig11_pe_models``);
:mod:`repro.experiments.report` regenerates everything.
"""

from repro.experiments.common import ExperimentResult, SuiteContext

__all__ = ["ExperimentResult", "SuiteContext"]

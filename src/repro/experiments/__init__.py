"""One module per paper table/figure, plus the ablation studies.

Each figure/table module exposes ``specs(scale, seed, params)`` and
``run(scale, seed, params, engine) -> ExperimentResult`` (the analytic
ones ignore ``scale`` and ``seed``) and can be executed directly
(``python -m repro.experiments.fig11_pe_models``);
:mod:`repro.experiments.report` regenerates everything.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]

"""One module per paper table/figure.

Each figure/table module declares the grid it prices, ``WORKLOADS``
by ``MODELS`` (both empty for the analytic ones), and exposes
``run(scale, seed, params, engine) -> ExperimentResult`` (the analytic
ones ignore ``scale`` and ``seed``).  ``repro experiment NAME`` prints
one of them; :mod:`repro.experiments.report` regenerates everything
(``repro report``).
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]

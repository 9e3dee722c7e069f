"""Experiment harness shared by every table/figure module.

Execution goes through the :mod:`repro.engine` subsystem.  Each pricing
figure declares its grid once, as module data: ``WORKLOADS`` (workload
names) by ``MODELS`` (:class:`~repro.engine.spec.ModelSpec` presets);
the analytic ones declare both empty.  :func:`grid` spells a grid out as
:class:`~repro.engine.spec.RunSpec` combinations and :func:`priced`
hands them to an :class:`~repro.engine.executor.Engine`, which caches
functional traces (the expensive part) on disk, shares them across all
nine experiments and every parameter sweep, and optionally fans the
model evaluations out over worker processes.  Figures that analyse a
trace itself (Fig. 11's branch fractions, Fig. 15's utilization) take
the :class:`~repro.baselines.base.KernelInstance` from
:meth:`Engine.kernel`.

Results are plain :class:`ExperimentResult` tables that render to aligned
ASCII, mirroring the rows/series of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import ArchParams
from repro.baselines.base import CycleResult
from repro.engine.executor import Engine, default_engine
from repro.engine.spec import ModelSpec, RunSpec
from repro.perf.speedup import geomean
from repro.workloads import INTENSIVE_WORKLOADS, get_workload

#: Canonical model specs shared across experiments, so figures that price
#: the same configuration (e.g. the bare Marionette PE in Figs. 11/12/14/16)
#: share one cache entry per kernel.
VON_NEUMANN = ModelSpec.make("von_neumann")
DATAFLOW = ModelSpec.make("dataflow")
SOFTBRAIN = ModelSpec.make("softbrain")
TIA = ModelSpec.make("tia")
REVEL = ModelSpec.make("revel")
RIPTIDE = ModelSpec.make("riptide")
MARIONETTE = ModelSpec.make("marionette")
MARIONETTE_PE = ModelSpec.make(
    "marionette", label="Marionette PE",
    control_network=False, agile=False,
)
MARIONETTE_CN = ModelSpec.make(
    "marionette", label="Marionette PE + Control Network",
    control_network=True, agile=False,
)
MARIONETTE_AGILE = ModelSpec.make(
    "marionette", label="Marionette PE + Agile PE Assignment",
    control_network=False, agile=True,
)

#: The ten control-intensive workloads' names, in figure order.
INTENSIVE = tuple(w.short.lower() for w in INTENSIVE_WORKLOADS)

#: One figure's prices: a cycle result per (workload, model).
Prices = Dict[Tuple[str, ModelSpec], CycleResult]


def grid(workloads: Sequence[str], models: Sequence[ModelSpec],
         scale: str, seed: int, params: ArchParams) -> List[RunSpec]:
    """Every (workload, model) spec, workload-major."""
    return [RunSpec(workload, scale, seed, model, params)
            for workload in workloads for model in models]


def priced(specs: Sequence[RunSpec], engine: Optional[Engine] = None
           ) -> Prices:
    """Price ``specs`` on ``engine`` (default: the shared process engine),
    each result keyed by its spec's ``(workload, model)``."""
    engine = engine or default_engine()
    return {(run.spec.workload, run.spec.model): run.result
            for run in engine.execute(specs)}


def feature_gains(prices: Prices, workloads: Sequence[str],
                  feature: ModelSpec) -> List[float]:
    """The speedup one Marionette feature brings the bare Marionette PE,
    per workload (Figs. 12, 14 and 16)."""
    return [prices[w, MARIONETTE_PE].cycles / prices[w, feature].cycles
            for w in workloads]


def feature_speedup(result: ExperimentResult, name: str, prices: Prices,
                    feature: ModelSpec) -> ExperimentResult:
    """Figs. 12 and 14: ``feature``'s speedup on each intensive kernel.

    Fills ``result``, whose four columns name the kernel, the bare PE
    (1.0), the speedup and its percentage gain; ``name`` names the
    feature in the summary.
    """
    gains = feature_gains(prices, INTENSIVE, feature)
    for workload, gain in zip(INTENSIVE, gains):
        result.rows.append(dict(zip(result.columns, (
            get_workload(workload).short, 1.0, gain, 100.0 * (gain - 1.0),
        ))))
    result.summary = {f"geomean {name} speedup": geomean(gains),
                      f"max {name} speedup": max(gains)}
    return result


@dataclass
class ExperimentResult:
    """A rendered experiment: rows of one table/figure."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    paper_claim: str = ""
    notes: List[str] = field(default_factory=list)

    def to_table(self) -> str:
        """Aligned ASCII rendering."""
        widths = {c: len(c) for c in self.columns}
        rendered: List[Dict[str, str]] = []
        for row in self.rows:
            out = {}
            for column in self.columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    text = f"{value:.3f}"
                else:
                    text = str(value)
                out[column] = text
                widths[column] = max(widths[column], len(text))
            rendered.append(out)
        lines = [f"== {self.experiment}: {self.title} =="]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append(
                "  ".join(row[c].ljust(widths[c]) for c in self.columns)
            )
        if self.summary:
            lines.append("")
            for key, value in self.summary.items():
                lines.append(f"{key}: {value:.3f}")
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.to_table())

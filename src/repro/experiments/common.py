"""Experiment harness shared by every table/figure module.

Execution goes through the :mod:`repro.engine` subsystem: each experiment
enumerates declarative :class:`~repro.engine.spec.RunSpec` combinations and
hands them to an :class:`~repro.engine.executor.Engine`, which caches
functional traces (the expensive part) on disk, shares them across all nine
experiments and every parameter sweep, and optionally fans the model
evaluations out over worker processes.  Figures that analyse a trace
itself (Fig. 11's branch fractions, Fig. 15's utilization) take the
:class:`~repro.baselines.base.KernelInstance` from :meth:`Engine.kernel`.

Results are plain :class:`ExperimentResult` tables that render to aligned
ASCII, mirroring the rows/series of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.executor import Engine, default_engine
from repro.engine.spec import ModelSpec, RunResult, RunSpec

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


class ResultTable:
    """Spec-indexed view over one :meth:`Engine.execute` batch."""

    def __init__(self, results: Sequence[RunResult]) -> None:
        self._by_spec: Dict[RunSpec, RunResult] = {
            r.spec: r for r in results
        }

    def result(self, spec: RunSpec):
        return self._by_spec[spec].result

    def cycles(self, spec: RunSpec) -> int:
        return self._by_spec[spec].result.cycles


def execute_specs(specs: Sequence[RunSpec],
                  engine: Optional[Engine] = None) -> ResultTable:
    """Run ``specs`` on ``engine`` (default: the shared process engine)."""
    engine = engine or default_engine()
    return ResultTable(engine.execute(specs))


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

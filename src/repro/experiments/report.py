"""Run every experiment and emit the full evaluation report.

``repro bench`` (alias ``repro report``) regenerates all tables and
figures in one pass through this module (the payloads ``tests/golden/``
locks down).

The report enumerates its sections once, in :func:`_sections`: each
section's priced grid and the thunk that builds it.  :func:`all_specs`
is the union of the grids; :func:`run_all` executes that union through
one engine, so the nine figures share every functional trace and — with
``repro bench --jobs N`` — run their model evaluations in parallel, then
builds the sections serially in paper order.  :func:`assemble` builds
each section the moment its last spec lands in a stream (``--stream``,
``--dispatch``), and :func:`report_lines` is the one ASCII renderer.
"""

from __future__ import annotations

from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine, default_engine
from repro.engine.spec import RunResult, RunSpec
from repro.experiments import (
    fig11_pe_models,
    fig12_control_network,
    fig13_network_scaling,
    fig14_agile,
    fig15_utilization,
    fig16_balance,
    fig17_sota,
    table4_area,
    table6_network_area,
)
from repro.experiments.common import ExperimentResult, grid

#: Every experiment module, in paper order.
EXPERIMENT_MODULES = (
    fig11_pe_models,
    fig12_control_network,
    fig13_network_scaling,
    fig14_agile,
    fig15_utilization,
    fig16_balance,
    fig17_sota,
    table4_area,
    table6_network_area,
)


def _sections(scale: str, seed: int, params: ArchParams,
              kernels: Sequence, engine: Optional[Engine]
              ) -> List[Tuple[List[RunSpec], Callable[[], ExperimentResult]]]:
    """(priced grid, build) per report section, in report order: the
    paper's experiments, then the external-kernel section."""
    sections = [
        (grid(module.WORKLOADS, module.MODELS, scale, seed, params),
         lambda module=module: module.run(scale, seed, params, engine))
        for module in EXPERIMENT_MODULES
    ]
    if kernels:
        from repro.kernels.bench import kernel_specs, run_section

        sections.append((
            kernel_specs(kernels, seed, params),
            lambda: run_section(kernels, seed, params, engine=engine),
        ))
    return sections


def _union(sections) -> List[RunSpec]:
    """Every section's specs, deduplicated in order."""
    return list(dict.fromkeys(
        spec for specs, _build in sections for spec in specs
    ))


def all_specs(scale: str = "small", seed: int = 0,
              params: ArchParams = DEFAULT_PARAMS,
              kernels: Sequence = ()) -> List[RunSpec]:
    """The union of every report section's run specs (deduplicated in
    order).

    ``params`` is the architecture every spec prices (``repro bench
    --arch`` threads a loaded description here) — the same sweep over
    different :attr:`~repro.arch.params.ArchParams.pricing_inputs`
    lands on disjoint fingerprints, and variants that agree on them
    share every cycle record.

    ``kernels`` (loaded :class:`~repro.kernels.package.KernelPackage`
    objects from ``repro bench --kernels``) appends the external-kernel
    section's specs after the paper's figures, so kernel runs shard,
    stream, cache, and dispatch exactly like built-in ones.
    """
    return _union(_sections(scale, seed, params, kernels, None))


def run_all(scale: str = "small", seed: int = 0,
            engine: Optional[Engine] = None,
            params: ArchParams = DEFAULT_PARAMS,
            kernels: Sequence = ()
            ) -> List[ExperimentResult]:
    """Every table and figure of the evaluation, in paper order.

    One batch prices every section's specs (parallel + cached), then
    each section builds from the engine memo.  With ``kernels``, the
    external-kernel section is appended after the paper's figures (same
    engine, same batch).
    """
    engine = engine or default_engine()
    sections = _sections(scale, seed, params, kernels, engine)
    engine.execute(_union(sections))
    return [build() for _specs, build in sections]


def assemble(pairs: Iterable[Tuple[int, RunResult]],
             scale: str = "small", seed: int = 0,
             engine: Optional[Engine] = None,
             params: ArchParams = DEFAULT_PARAMS,
             kernels: Sequence = ()
             ) -> Iterator[ExperimentResult]:
    """Assemble the report's sections from a stream of spec landings.

    ``pairs`` is any iterator of ``(index, run result)`` tuples over the
    :func:`all_specs` batch — :meth:`Engine.stream` output or a dispatch
    client's result feed.  Each section is built and yielded **as soon
    as its last spec lands** (the engine memo replays the assembly;
    nothing is recomputed), in paper order, so a consumer printing the
    yields reproduces the canonical report byte-for-byte while later
    sections are still computing.
    """
    engine = engine or default_engine()
    sections = _sections(scale, seed, params, kernels, engine)
    landed: set = set()
    position = 0
    for _index, run_result in pairs:
        landed.add(run_result.spec)
        while position < len(sections) \
                and landed.issuperset(sections[position][0]):
            yield sections[position][1]()
            position += 1
    # A fully-consumed stream has landed every spec; anything left (e.g.
    # an empty spec batch edge case) assembles from the engine memo.
    for _specs, build in sections[position:]:
        yield build()


def report_lines(results: Iterable[ExperimentResult], scale: str,
                 seed: int) -> Iterator[str]:
    """The canonical ASCII report, one printable line at a time.

    The header, then each table followed by a blank line.  Lazy in
    ``results``, so fed :func:`assemble`'s generator each table surfaces
    the moment its section lands.
    """
    yield "# Marionette evaluation report"
    yield f"(workload scale: {scale}, seed: {seed})"
    yield ""
    for result in results:
        yield result.to_table()
        yield ""


"""Run every experiment and emit the full evaluation report.

``repro report`` and ``repro bench`` regenerate all tables and figures
in one pass through this module (the payloads ``tests/golden/`` locks
down).

:func:`run_all` collects the :class:`RunSpec` batches of every experiment
first and executes them through one engine, so the nine figures share every
functional trace and — with ``repro bench --jobs N`` — run their model
evaluations in parallel before the tables are assembled serially in paper
order.
"""

from __future__ import annotations

from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.executor import Engine, default_engine
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
from repro.experiments.common import ExperimentResult

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


def all_specs(scale: str = "small", seed: int = 0,
              params: ArchParams = DEFAULT_PARAMS,
              kernels: Sequence = ()) -> List:
    """The union of every experiment's run specs (deduplicated in order).

    ``params`` is the architecture every spec prices (``repro bench
    --arch`` threads a loaded description here) — the same sweep over a
    different ``ArchParams`` lands on disjoint fingerprints, so arch
    variants never collide in the cache or a shard partition.

    ``kernels`` (loaded :class:`~repro.kernels.package.KernelPackage`
    objects from ``repro bench --kernels``) appends the external-kernel
    section's specs after the paper's figures, so kernel runs shard,
    stream, cache, and dispatch exactly like built-in ones.
    """
    seen = set()
    specs = []
    for module in EXPERIMENT_MODULES:
        for spec in module.specs(scale, seed, params):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    if kernels:
        from repro.kernels.bench import kernel_specs

        for spec in kernel_specs(kernels, seed, params):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def run_all(scale: str = "small", seed: int = 0,
            engine: Optional[Engine] = None,
            params: ArchParams = DEFAULT_PARAMS,
            kernels: Sequence = ()
            ) -> List[ExperimentResult]:
    """Every table and figure of the evaluation, in paper order.

    With ``kernels``, the external-kernel section is appended after the
    paper's figures (same engine, same batch — its specs were priced
    alongside everything else).
    """
    engine = engine or default_engine()
    # one batch: parallel + cached
    engine.execute(all_specs(scale, seed, params, kernels))
    results = [module.run(scale, seed, params, engine)
               for module in EXPERIMENT_MODULES]
    if kernels:
        from repro.kernels.bench import run_section

        results.append(run_section(kernels, seed, params, engine=engine))
    return results


def assemble_stream(pairs: Iterable[Tuple[int, object]],
                    scale: str = "small", seed: int = 0,
                    engine: Optional[Engine] = None,
                    params: ArchParams = DEFAULT_PARAMS,
                    kernels: Sequence = ()
                    ) -> Iterator[ExperimentResult]:
    """Assemble experiments incrementally from a stream of spec landings.

    ``pairs`` is any iterator of ``(index, _)`` tuples over
    :func:`all_specs` positions — :meth:`Engine.stream` output, or a
    dispatch client's result feed.  Each experiment's table is built and
    yielded **as soon as its last spec lands** (the engine memo replays
    the assembly; nothing is recomputed), subject to one ordering rule:
    experiments emit in paper order, so the concatenated yields are
    exactly :func:`run_all`'s list and a consumer printing them
    reproduces the canonical report byte-for-byte — early tables
    surface while later experiments are still computing, and nothing
    waits for the whole batch.
    """
    engine = engine or default_engine()
    specs = all_specs(scale, seed, params, kernels)
    # (needed spec set, assembly thunk) per report section, in report
    # order: paper experiments first, then the external-kernel section.
    sections: List[Tuple[set, Callable[[], ExperimentResult]]] = [
        (set(module.specs(scale, seed, params)),
         lambda module=module: module.run(scale, seed, params, engine))
        for module in EXPERIMENT_MODULES
    ]
    if kernels:
        from repro.kernels.bench import kernel_specs, run_section

        sections.append((
            set(kernel_specs(kernels, seed, params)),
            lambda: run_section(kernels, seed, params, engine=engine),
        ))
    landed: set = set()
    position = 0
    for index, _result in pairs:
        landed.add(specs[index])
        while position < len(sections) \
                and sections[position][0] <= landed:
            yield sections[position][1]()
            position += 1
    # A fully-consumed stream has landed every spec; anything left (e.g.
    # an empty spec batch edge case) assembles from the engine memo.
    while position < len(sections):
        yield sections[position][1]()
        position += 1


def stream_pairs(scale: str = "small", seed: int = 0,
                 engine: Optional[Engine] = None,
                 on_result: Optional[Callable] = None,
                 params: ArchParams = DEFAULT_PARAMS,
                 kernels: Sequence = ()
                 ) -> Iterator[Tuple[int, object]]:
    """:meth:`Engine.stream` over :func:`all_specs`, as ``(index,
    run result)`` pairs ready for :func:`assemble_stream`.

    ``on_result(position, total, run_result)`` fires as each spec
    finishes (completion order) — the CLI's progress lines.  Streaming
    changes *when* results surface, never *what* they are: assembling
    the pairs reproduces :func:`run_all`'s report exactly.
    """
    engine = engine or default_engine()
    specs = all_specs(scale, seed, params, kernels)
    for done, (index, run_result) in enumerate(engine.stream(specs), 1):
        if on_result is not None:
            on_result(done, len(specs), run_result)
        yield index, run_result


def report_header(scale: str, seed: int) -> List[str]:
    """The ASCII report's header lines.

    Shared by :func:`render_results` and the CLI's incremental streamed
    emitter — both paths must stay byte-identical.
    """
    return [
        "# Marionette evaluation report",
        f"(workload scale: {scale}, seed: {seed})",
        "",
    ]


def render_results(results: List[ExperimentResult], scale: str,
                   seed: int) -> str:
    """The canonical ASCII report for an already-assembled result list."""
    sections = report_header(scale, seed)
    for result in results:
        sections.append(result.to_table())
        sections.append("")
    return "\n".join(sections)


def render_report(scale: str = "small", seed: int = 0,
                  engine: Optional[Engine] = None,
                  params: ArchParams = DEFAULT_PARAMS) -> str:
    return render_results(
        run_all(scale, seed, engine=engine, params=params), scale, seed
    )

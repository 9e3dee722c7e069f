"""The ``repro bench --kernels DIR`` report section.

External kernels enter the evaluation as ordinary :class:`RunSpec`
batches — workload token ``kernel:<name>@<fingerprint>``, the package's
scale hint, the bench seed — so the engine's caching, sharding,
streaming, and dispatch all apply unchanged.  This module enumerates
those specs (:func:`kernel_specs`) and assembles the extra
:class:`~repro.experiments.common.ExperimentResult` section
(:func:`run_section`) the report appends after the paper's figures.

Each package is priced on a representative model ladder (von Neumann
-> dataflow -> RipTide -> Marionette -> ideal), one row per
(kernel, model), with the speedup column normalized to the von Neumann
baseline — the same normalization Fig. 11 uses.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.engine.spec import ModelSpec, RunSpec
from repro.experiments.common import ExperimentResult, grid, priced
from repro.kernels.package import KernelPackage
from repro.kernels.registry import register

#: The model ladder every external kernel is priced on.
KERNEL_BENCH_MODELS = (
    ModelSpec.make("von_neumann"),
    ModelSpec.make("dataflow"),
    ModelSpec.make("riptide"),
    ModelSpec.make("marionette"),
    ModelSpec.make("ideal"),
)


def kernel_specs(packages: Sequence[KernelPackage], seed: int = 0,
                 params: ArchParams = DEFAULT_PARAMS) -> List[RunSpec]:
    """Every (kernel, model) spec, in suite order then ladder order.

    Registers each package in the process-wide registry as a side
    effect, so the returned specs are immediately executable (and
    dispatchable — ``to_payload`` reads the registry).
    """
    return [spec for package in packages
            for spec in grid((register(package),), KERNEL_BENCH_MODELS,
                             package.scale_hint, seed, params)]


def run_section(packages: Sequence[KernelPackage], seed: int = 0,
                params: ArchParams = DEFAULT_PARAMS,
                engine=None) -> ExperimentResult:
    """The external-kernels report section (one row per kernel-model)."""
    prices = priced(kernel_specs(packages, seed, params), engine)
    rows = []
    for package in packages:
        token = package.workload_token()
        baseline = prices[token, KERNEL_BENCH_MODELS[0]].cycles
        for model in KERNEL_BENCH_MODELS:
            cycles = prices[token, model].cycles
            rows.append({
                "kernel": package.name,
                "fingerprint": package.fingerprint()[:12],
                "model": model.model,
                "cycles": cycles,
                "speedup": baseline / cycles,
            })
    return ExperimentResult(
        experiment="kernels",
        title="external kernel packages",
        columns=["kernel", "fingerprint", "model", "cycles", "speedup"],
        rows=rows,
        notes=[f"{len(packages)} package(s); speedup normalized to "
               f"von_neumann, as in fig11"],
    )

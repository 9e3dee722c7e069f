"""Ablation studies beyond the paper's headline figures.

Three sweeps over the paper's design choices:

* **array size** — does the control flow plane's advantage survive scaling
  the fabric (4x4 -> 8x8)?  The control network grows O(n log n) in
  switches while a crossbar grows O(n^2), and the CCU detour of
  conventional arrays gets *longer* with array diameter;
* **data network latency** — sensitivity of each feature to the mesh
  latency assumption (the paper's ~6-cycle annotation);
* **control FIFO depth** — how deep the per-PE control queues must be
  before the Scheduler stops rejecting standing configurations (measured
  on the micro-architectural simulator).

The parameter sweeps enumerate :class:`RunSpec` batches: the engine shares
one functional trace per workload across every parameter point, so a sweep
costs sweeps-many model evaluations, not sweeps-many workload simulations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.params import DEFAULT_PARAMS
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.perf.speedup import geomean
from repro.workloads import INTENSIVE_WORKLOADS
from repro.experiments.common import (
    MARIONETTE,
    MARIONETTE_CN,
    MARIONETTE_PE,
    VON_NEUMANN,
    ExperimentResult,
    execute_specs,
)

_ARRAY_SIZES: Sequence[int] = (2, 4, 8)
_MESH_LATENCIES: Sequence[int] = (2, 4, 6, 10)


def _array_size_specs(scale: str, seed: int,
                      sizes: Sequence[int]) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model,
                DEFAULT_PARAMS.scaled(size, size))
        for size in sizes
        for w in INTENSIVE_WORKLOADS
        for model in (VON_NEUMANN, MARIONETTE)
    ]


def array_size_sweep(scale: str = "small", seed: int = 0,
                     sizes: Sequence[int] = _ARRAY_SIZES,
                     engine: Optional[Engine] = None) -> ExperimentResult:
    """Marionette-vs-von-Neumann geomean across array sizes."""
    table = execute_specs(_array_size_specs(scale, seed, sizes), engine)
    result = ExperimentResult(
        experiment="Ablation A1",
        title="Marionette advantage vs array size (intensive geomean)",
        columns=["array", "n_pes", "von_neumann_cycles_gm",
                 "marionette_cycles_gm", "speedup"],
        notes=["the CCU detour grows with array diameter while the "
               "control network stays single-cycle"],
    )
    for size in sizes:
        params = DEFAULT_PARAMS.scaled(size, size)
        vn_cycles: List[int] = []
        m_cycles: List[int] = []
        for workload in INTENSIVE_WORKLOADS:
            short = workload.short.lower()
            vn_cycles.append(table.cycles(
                RunSpec(short, scale, seed, VON_NEUMANN, params)
            ))
            m_cycles.append(table.cycles(
                RunSpec(short, scale, seed, MARIONETTE, params)
            ))
        speedups = [v / m for v, m in zip(vn_cycles, m_cycles)]
        result.rows.append({
            "array": f"{size}x{size}",
            "n_pes": params.n_pes,
            "von_neumann_cycles_gm": geomean(vn_cycles),
            "marionette_cycles_gm": geomean(m_cycles),
            "speedup": geomean(speedups),
        })
    result.summary["speedup at largest array"] = result.rows[-1]["speedup"]
    return result


def _mesh_latency_specs(scale: str, seed: int,
                        latencies: Sequence[int]) -> List[RunSpec]:
    return [
        RunSpec(w.short.lower(), scale, seed, model,
                replace(DEFAULT_PARAMS, data_net_latency=latency))
        for latency in latencies
        for w in INTENSIVE_WORKLOADS
        for model in (MARIONETTE_PE, MARIONETTE_CN)
    ]


def mesh_latency_sweep(scale: str = "small", seed: int = 0,
                       latencies: Sequence[int] = _MESH_LATENCIES,
                       engine: Optional[Engine] = None) -> ExperimentResult:
    """Control network gain as a function of data mesh latency."""
    table = execute_specs(_mesh_latency_specs(scale, seed, latencies), engine)
    result = ExperimentResult(
        experiment="Ablation A2",
        title="Control-network speedup vs data mesh latency",
        columns=["data_net_latency", "cn_speedup_geomean"],
        notes=["with a slower mesh, routing control through it costs more, "
               "so the dedicated network's contribution grows"],
    )
    for latency in latencies:
        params = replace(DEFAULT_PARAMS, data_net_latency=latency)
        gains = []
        for workload in INTENSIVE_WORKLOADS:
            short = workload.short.lower()
            gains.append(
                table.cycles(RunSpec(short, scale, seed,
                                     MARIONETTE_PE, params))
                / table.cycles(RunSpec(short, scale, seed,
                                       MARIONETTE_CN, params))
            )
        result.rows.append({
            "data_net_latency": latency,
            "cn_speedup_geomean": geomean(gains),
        })
    first = result.rows[0]["cn_speedup_geomean"]
    last = result.rows[-1]["cn_speedup_geomean"]
    result.summary["gain slope (10c vs 2c mesh)"] = last / first
    return result


def fifo_depth_sweep(depths: Sequence[int] = (1, 2, 4, 8)
                     ) -> ExperimentResult:
    """Control FIFO depth vs scheduler rejections (array simulator).

    Drives a two-loop-run micro-program whose loop operator receives a
    standing reconfiguration while still iterating; a depth-1 FIFO is
    enough for this shape, and rejections never lose messages (the network
    retries), only add cycles.
    """
    from repro.ir.builder import KernelBuilder
    from repro.compiler.config_gen import generate_program
    from repro.sim.array import ArraySimulator

    n = 24
    k = KernelBuilder("fifo_probe")
    size = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.load("x", i) * 2 + 1)
    cdfg = k.build()

    result = ExperimentResult(
        experiment="Ablation A3",
        title="Control FIFO depth vs conflicts (array simulator)",
        columns=["fifo_depth", "cycles", "ctrl_conflicts", "correct"],
    )
    x = np.arange(n)
    for depth in depths:
        params = replace(DEFAULT_PARAMS, control_fifo_depth=depth)
        program = generate_program(
            cdfg, params, param_values={"n": n},
            array_lengths={"x": n, "o": n},
        )
        sim = ArraySimulator(params, program)
        sim.load_array("x", x)
        sim_result = sim.run(halt_messages=999)
        out = sim_result.array_out(program, "o")
        result.rows.append({
            "fifo_depth": depth,
            "cycles": sim_result.cycles,
            "ctrl_conflicts": sim_result.stats.ctrl_network_conflicts,
            "correct": bool(np.array_equal(out, x * 2 + 1)),
        })
    result.summary["all depths correct"] = float(
        all(r["correct"] for r in result.rows)
    )
    return result


def specs(scale: str = "small", seed: int = 0) -> List[RunSpec]:
    """Every model evaluation the parameter sweeps will need.

    Unlike the figure modules, the sweeps define their own parameter
    points, so there is no ``params`` argument to honour here.
    """
    return (
        _array_size_specs(scale, seed, _ARRAY_SIZES)
        + _mesh_latency_specs(scale, seed, _MESH_LATENCIES)
    )


def run(scale: str = "small", seed: int = 0,
        engine: Optional[Engine] = None) -> List[ExperimentResult]:
    execute_specs(specs(scale, seed), engine)  # one batch, shared traces
    return [
        array_size_sweep(scale, seed, engine=engine),
        mesh_latency_sweep(scale, seed, engine=engine),
        fifo_depth_sweep(),
    ]


if __name__ == "__main__":  # pragma: no cover
    for result in run():
        result.print()
        print()

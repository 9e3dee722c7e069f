"""``repro run KERNEL_DIR``: simulate one package on the array.

The end-to-end ingestion path: load + validate the package, construct
its CDFG, generate the array configuration
(:func:`repro.compiler.config_gen.generate_program` — external kernels
must sit in the same compilable class the built-in micro-architectural
validation uses), pre-load the committed memory images, run the
cycle-accurate :class:`~repro.sim.array.ArraySimulator`, and compare
every output region against the package's expected images (or the
functional interpreter's, when the package omits them) under the
package's tolerance.

:func:`run_kernel` returns a :class:`KernelRunReport`; the CLI renders
it in ASCII or JSON and maps the verdict to an exit code (0 PASS,
1 FAIL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.compiler.config_gen import generate_program
from repro.errors import ConfigurationError
from repro.kernels.package import KernelPackage
from repro.kernels.workload import KernelWorkload
from repro.sim.array import ArraySimulator
from repro.workloads.base import first_mismatch


@dataclass
class OutputVerdict:
    """One output region's comparison against its expected image."""

    array: str
    passed: bool
    checked: int
    atol: float
    first_bad_index: Optional[int] = None


@dataclass
class KernelRunReport:
    """Everything ``repro run`` reports about one simulation."""

    name: str
    fingerprint: str
    arch: str
    strategy: str
    cycles: int
    halted: bool
    mean_utilization: float
    ctrl_msgs_delivered: int
    ctrl_network_conflicts: int
    verdicts: List[OutputVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts)

    def to_document(self) -> Dict[str, object]:
        """The ``--format json`` document."""
        return {
            "kernel": self.name,
            "fingerprint": self.fingerprint,
            "arch": self.arch,
            "strategy": self.strategy,
            "cycles": self.cycles,
            "halted": self.halted,
            "mean_utilization": self.mean_utilization,
            "ctrl_msgs_delivered": self.ctrl_msgs_delivered,
            "ctrl_network_conflicts": self.ctrl_network_conflicts,
            "outputs": [
                {
                    "array": verdict.array,
                    "verdict": "PASS" if verdict.passed else "FAIL",
                    "checked": verdict.checked,
                    "atol": verdict.atol,
                    "first_bad_index": verdict.first_bad_index,
                }
                for verdict in self.verdicts
            ],
            "verdict": "PASS" if self.passed else "FAIL",
        }

    def to_lines(self) -> List[str]:
        """The ``--format ascii`` rendering."""
        lines = [
            f"kernel: {self.name} "
            f"(fingerprint {self.fingerprint[:12]})",
            f"arch: {self.arch}  strategy: {self.strategy}",
            f"cycles: {self.cycles}"
            + ("" if self.halted else "  [hit max-cycles]"),
            f"array: mean utilization "
            f"{100.0 * self.mean_utilization:.1f}%, "
            f"{self.ctrl_msgs_delivered} ctrl msgs delivered, "
            f"{self.ctrl_network_conflicts} conflicts",
        ]
        for verdict in self.verdicts:
            status = "PASS" if verdict.passed else (
                f"FAIL (first bad index "
                f"{verdict.first_bad_index})"
            )
            lines.append(
                f"  {verdict.array}: {status} "
                f"({verdict.checked} values, atol={verdict.atol:g})"
            )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return lines


def run_kernel(package: KernelPackage, *,
               params: ArchParams = DEFAULT_PARAMS,
               arch_name: str = "default",
               strategy: str = "event",
               max_cycles: int = 200_000) -> KernelRunReport:
    """Simulate one package end to end and grade its outputs."""
    workload = KernelWorkload(package)
    instance = workload.instance(package.scale_hint)
    try:
        program = generate_program(
            instance.cdfg, params, instance.params,
            package.array_lengths(),
        )
    except ConfigurationError:
        raise
    except Exception as error:
        # CompilationError and friends: name the kernel, keep one line.
        raise ConfigurationError(
            f"kernel {package.name!r} cannot be configured for the "
            f"array: {error}"
        ) from error
    simulator = ArraySimulator(params, program, strategy=strategy)
    for decl in package.arrays:
        simulator.load_array(decl.name, package.memory[decl.name])
    # Run to quiescence (not the first exit announcement): the loop
    # operator signals exit while the tail iterations' stores are still
    # in flight, and a verdict graded on a truncated image is noise.
    result = simulator.run(max_cycles=max_cycles, halt_messages=999)
    # A quiescent stop leaves stats.halted False (no message threshold
    # was reached); what the report should flag is a *runaway* — the
    # cycle budget running out with work still in flight.
    completed = result.halted or result.cycles < max_cycles

    verdicts = []
    for name in sorted(instance.expected):
        expected = instance.expected[name]
        bad = first_mismatch(result.array_out(program, name), expected,
                             package.atol)
        verdicts.append(OutputVerdict(
            array=name, passed=bad is None, checked=len(expected),
            atol=package.atol, first_bad_index=bad,
        ))
    stats = result.stats
    return KernelRunReport(
        name=package.name,
        fingerprint=package.fingerprint(),
        arch=arch_name,
        strategy=strategy,
        cycles=result.cycles,
        halted=completed,
        mean_utilization=stats.mean_utilization,
        ctrl_msgs_delivered=stats.ctrl_msgs_delivered,
        ctrl_network_conflicts=stats.ctrl_network_conflicts,
        verdicts=verdicts,
    )

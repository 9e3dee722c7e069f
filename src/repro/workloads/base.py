"""Workload framework: each benchmark provides a CDFG, inputs, a reference.

A :class:`Workload` subclass describes one of the paper's 13 benchmarks
(Table 5).  It can build itself at three scales:

* ``tiny`` — seconds-long unit-test sizes;
* ``small`` — default experiment sizes (minutes for the whole suite);
* ``paper`` — the exact Table 5 sizes.

``instance()`` returns a :class:`WorkloadInstance` binding the kernel to
concrete inputs plus an independently computed reference output, so the
functional interpreter (and, through it, every execution model's trace) is
checked against ground truth on every run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.ir.cdfg import CDFG
from repro.ir.interp import ExecutionResult, Interpreter

SCALES = ("tiny", "small", "paper")

#: benchmark groups, matching Fig. 17's split
INTENSIVE = "intensive"
NON_INTENSIVE = "non_intensive"
#: user-supplied kernels ingested from on-disk packages (repro.kernels)
EXTERNAL = "external"


def first_mismatch(actual: np.ndarray, expected: np.ndarray,
                   atol: float) -> Optional[int]:
    """The suite's output-comparison rule, shared with external kernels.

    Returns the index of the first element of ``actual`` that differs
    from ``expected``, or None when the output matches.  ``atol == 0``
    demands exact equality (integer kernels); a positive tolerance
    compares floats with ``rtol=1e-6`` besides.  Only ``len(expected)``
    leading elements are compared, so a reference may cover a prefix of
    a larger region.
    """
    actual = np.asarray(actual)[: len(expected)]
    if atol == 0.0:
        bad = np.flatnonzero(actual != expected)
    else:
        bad = np.flatnonzero(
            ~np.isclose(actual, expected, atol=atol, rtol=1e-6))
    return int(bad[0]) if len(bad) else None


@dataclass
class WorkloadInstance:
    """A kernel bound to inputs and expected outputs."""

    workload: "Workload"
    cdfg: CDFG
    memory: Dict[str, np.ndarray]
    params: Dict[str, int]
    expected: Dict[str, np.ndarray]
    #: absolute tolerance for float outputs (0 = exact integer match)
    atol: float = 0.0
    _result: Optional[ExecutionResult] = None

    @property
    def name(self) -> str:
        return self.cdfg.name

    def run(self, *, engine: str = "compiled",
            max_steps: int = 50_000_000) -> ExecutionResult:
        """Interpret the kernel (cached)."""
        if self._result is None or engine != "compiled":
            result = Interpreter(self.cdfg, engine=engine).run(
                self.memory, self.params, max_steps=max_steps
            )
            if engine != "compiled":
                return result
            self._result = result
        return self._result

    def check(self) -> None:
        """Run and compare every expected output array against the
        reference; raises :class:`ReproError` on mismatch."""
        result = self.run()
        for name, expected in self.expected.items():
            bad = first_mismatch(result.array(name), expected, self.atol)
            if bad is not None:
                raise ReproError(
                    f"{self.name}: output {name!r} mismatches reference "
                    f"(first bad index: {bad})"
                )


class Workload(abc.ABC):
    """One benchmark of the evaluation suite."""

    #: short name used in figures ("MS", "FFT", ...)
    short = ""
    #: full name
    name = ""
    #: INTENSIVE or NON_INTENSIVE
    group = INTENSIVE
    #: Table 5 data-size note
    paper_size = ""

    @abc.abstractmethod
    def sizes(self, scale: str) -> Dict[str, int]:
        """Size parameters for a scale."""

    @abc.abstractmethod
    def build(self, sizes: Mapping[str, int]) -> CDFG:
        """Construct the kernel CDFG."""

    @abc.abstractmethod
    def inputs(self, sizes: Mapping[str, int],
               rng: np.random.Generator) -> Tuple[
                   Dict[str, np.ndarray], Dict[str, int]]:
        """Random inputs: (memory images, scalar parameters)."""

    @abc.abstractmethod
    def reference(self, sizes: Mapping[str, int],
                  memory: Mapping[str, np.ndarray],
                  params: Mapping[str, int]) -> Dict[str, np.ndarray]:
        """Independently computed expected outputs."""

    #: tolerance for float kernels
    atol = 0.0

    # ------------------------------------------------------------------
    def instance(self, scale: str = "small", *,
                 seed: int = 0) -> WorkloadInstance:
        if scale not in SCALES:
            raise ReproError(f"unknown scale {scale!r}; pick one of {SCALES}")
        sizes = self.sizes(scale)
        rng = np.random.default_rng(seed)
        cdfg = self.build(sizes)
        memory, params = self.inputs(sizes, rng)
        expected = self.reference(sizes, memory, params)
        return WorkloadInstance(
            workload=self, cdfg=cdfg, memory=memory, params=params,
            expected=expected, atol=self.atol,
        )

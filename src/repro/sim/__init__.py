"""Micro-architectural cycle simulator of the Marionette PE array.

An ISA-level, cycle-accurate model of the control flow plane (Control
Flow Trigger / Scheduler / Sender), the data flow plane (FU, local
registers, token ports), the CS-Benes control network and the data mesh.
It executes :class:`~repro.isa.program.ArrayProgram` configurations and is
used to validate the mechanisms cycle-by-cycle (configuration hidden
behind computation, loop pipelining, branch steering).  The report's
figures come from the trace-driven models in :mod:`repro.baselines`; this
simulator serves ``repro run`` and the tests.

Two stepping strategies share one behaviour: the default event-driven
fast path (active-PE scheduling + cycle skipping) and the naive
poll-everything reference, kept for differential testing — see
``docs/ENGINE.md`` ("Event-driven array simulation") and
``tests/test_sim_event.py``.
"""

from repro.sim.fifo import Fifo
from repro.sim.memory import Scratchpad
from repro.sim.events import (
    ArrayStats,
    CtrlMsg,
    DeliverySchedule,
    MulticastQueue,
    PEStats,
)
from repro.sim.pe import MarionettePE
from repro.sim.array import STRATEGIES, ArraySimulator, SimulationResult

__all__ = [
    "Fifo",
    "Scratchpad",
    "CtrlMsg",
    "PEStats",
    "ArrayStats",
    "DeliverySchedule",
    "MulticastQueue",
    "MarionettePE",
    "ArraySimulator",
    "SimulationResult",
    "STRATEGIES",
]

"""The Marionette mapping toolchain.

Pipeline: CDFG -> per-BB placement onto the PE grid, with its edges
routed on the :class:`~repro.arch.network.mesh.DataMesh` (:mod:`place`),
time-extend reshaping (:mod:`reshape`), the Agile PE Assignment scheduler
(:mod:`schedule`, paper Fig. 8), and configuration generation for the
micro-architectural simulator (:mod:`config_gen`).
"""

from repro.compiler.mapping import BBPlacement, LevelSchedule, Schedule
from repro.compiler.place import place_block
from repro.compiler.reshape import reshape_placement, pe_waste
from repro.compiler.schedule import MarionetteScheduler
from repro.compiler.config_gen import generate_program

__all__ = [
    "BBPlacement",
    "LevelSchedule",
    "Schedule",
    "place_block",
    "reshape_placement",
    "pe_waste",
    "MarionetteScheduler",
    "generate_program",
]

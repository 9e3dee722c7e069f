"""Exception hierarchy for the Marionette reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-types are grouped by
subsystem: IR construction, compilation/mapping, simulation, and network
routing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class IRError(ReproError):
    """Malformed IR: invalid CDFG structure, bad operands, type misuse."""


class BuilderError(IRError):
    """Misuse of the :class:`~repro.ir.builder.KernelBuilder` DSL."""


class InterpreterError(ReproError):
    """Functional interpretation failed (bad memory access, no terminator)."""


class CompilationError(ReproError):
    """Mapping / scheduling / configuration generation failed."""


class PlacementError(CompilationError):
    """A DFG could not be placed onto the PE grid."""


class EncodingError(ReproError):
    """ISA encoding or decoding failed."""


class SimulationError(ReproError):
    """The micro-architectural simulator hit an inconsistent state."""


class NetworkError(ReproError):
    """Control/data network construction or routing failed."""


class ConfigurationError(ReproError):
    """Invalid architecture parameters."""


class EngineError(ReproError):
    """The experiment engine failed: a worker crashed mid-stream, or a
    shard export is malformed / inconsistent with its merge partners."""


class DistributedError(EngineError):
    """The distributed execution subsystem failed: a cache server or
    coordinator is unreachable, speaks a different engine version, a
    dispatched job was rejected, or a remote worker reported a failure."""


class DistributedUnavailable(DistributedError):
    """A *transport-level* distributed failure: the server could not be
    reached at all (connection refused, timeout, it vanished
    mid-request, or it answered with bytes that are not JSON).  Unlike
    its parent — which also covers protocol-level rejections such as
    "unknown job" that retrying can never fix — this condition is
    plausibly transient, so workers and dispatch clients may retry with
    backoff instead of dying on the first server restart."""

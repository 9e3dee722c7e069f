"""Architecture parameters.

One :class:`ArchParams` instance describes a Marionette configuration and is
shared by the compiler, the micro-architectural simulator, and the
trace-driven execution models — mirroring the paper's "parameterizable design
yields an architectural description shared with the software stack and
simulator" (Section 5).

Timing defaults follow the paper's relative-cost assumptions:

* configuring a PE takes 1 cycle, executing an instruction takes 2 cycles
  (Section 2.3);
* a transfer through the data mesh costs ~6 cycles, through the dedicated
  control network 1 cycle (Figure 4(d));
* a centralized-control-unit round trip (branch PE -> CCU -> branch-target
  reconfiguration) therefore costs two mesh traversals plus the decision and
  the configuration write.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Dict

from repro.errors import ConfigurationError

#: Control-network topology choices (paper Section 4 / Fig. 6).  The full
#: design pairs copy-and-spread (CS) stages for multicast with a Benes
#: permutation network; the ablated variants keep one half, and ``mesh``
#: drops the dedicated network entirely, sending control over the data
#: mesh.
CONTROL_TOPOLOGIES = ("mesh", "cs", "benes", "cs_benes")

#: Effective control-transfer cost per topology, as a multiple of
#: ``ctrl_net_latency``.  A CS-only network must serialize conflicting
#: peer-to-peer transfers (it can only spread, not permute); a
#: Benes-only network must serialize multicasts (it can only permute,
#: not spread).  Both are approximated as doubling the effective
#: transfer latency — the combined CS-Benes network is the calibrated
#: 1x baseline.  ``mesh`` is handled separately (data-mesh latency).
_TOPOLOGY_LATENCY_FACTOR = {"cs_benes": 1, "cs": 2, "benes": 2}


@dataclass(frozen=True)
class PlacementInputs:
    """The projection of :class:`ArchParams` that DFG placement reads: the
    grid geometry and the size of the nonlinear-capable PE pool.

    It doubles as the architecture half of the placement memo key, so a
    parameter placement does not read can never split or alias an entry.
    """

    rows: int
    cols: int
    nonlinear_pes: int


@dataclass(frozen=True)
class PricingInputs:
    """The projection of :class:`ArchParams` that pricing reads: every
    field an execution model's construction and ``simulate`` read,
    placement and scheduling included.

    It is the architecture half of a cycle record's cache key, so
    variants that differ only in fields pricing does not read (the
    memory system, the control FIFO depth, the physical parameters)
    share their cycle records, and a field pricing reads always splits
    them.
    """

    rows: int
    cols: int
    nonlinear_pes: int
    t_config: int
    t_execute: int
    data_net_latency: int
    ctrl_net_latency: int
    mesh_hop_latency: int
    control_topology: str

    @cached_property
    def token(self) -> Dict[str, object]:
        """JSON-safe field table (the cache key's ``params``), built
        once; callers copy it before changing it."""
        return asdict(self)


@dataclass(frozen=True)
class ArchParams:
    """A Marionette hardware configuration."""

    rows: int = 4
    cols: int = 4

    # Relative timing (cycles).
    t_config: int = 1
    t_execute: int = 2
    data_net_latency: int = 6
    ctrl_net_latency: int = 1
    mesh_hop_latency: int = 1

    # Memory system.
    sram_banks: int = 4
    sram_kb: int = 16
    inst_scratchpad_kb: int = 2
    control_fifo_depth: int = 8

    # PE mix (Table 4: 12 ordinary + 4 nonlinear-fitting PEs).
    nonlinear_pes: int = 4

    # Physical.
    frequency_mhz: int = 500
    technology_nm: int = 28
    data_width_bits: int = 32

    # Control-network topology (one of :data:`CONTROL_TOPOLOGIES`).
    control_topology: str = "cs_benes"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError("array dimensions must be positive")
        if self.nonlinear_pes > self.rows * self.cols:
            raise ConfigurationError(
                "more nonlinear PEs than PEs in the array"
            )
        if self.nonlinear_pes < 0:
            raise ConfigurationError("nonlinear_pes must be non-negative")
        for name in ("t_config", "t_execute", "data_net_latency",
                     "ctrl_net_latency", "mesh_hop_latency",
                     "sram_banks", "sram_kb", "inst_scratchpad_kb",
                     "control_fifo_depth", "frequency_mhz",
                     "technology_nm", "data_width_bits"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.control_topology not in CONTROL_TOPOLOGIES:
            raise ConfigurationError(
                f"control_topology {self.control_topology!r} unknown; "
                f"pick one of {CONTROL_TOPOLOGIES}"
            )

    @property
    def n_pes(self) -> int:
        return self.rows * self.cols

    @property
    def placement_inputs(self) -> PlacementInputs:
        """The fields DFG placement reads (see :class:`PlacementInputs`)."""
        return PlacementInputs(self.rows, self.cols, self.nonlinear_pes)

    @cached_property
    def pricing_inputs(self) -> PricingInputs:
        """The fields pricing reads (see :class:`PricingInputs`), built
        once per instance."""
        return PricingInputs(
            self.rows, self.cols, self.nonlinear_pes, self.t_config,
            self.t_execute, self.data_net_latency, self.ctrl_net_latency,
            self.mesh_hop_latency, self.control_topology,
        )

    @property
    def control_transfer_latency(self) -> int:
        """Cycles for one control transfer under the selected topology.

        ``cs_benes`` is the calibrated baseline (``ctrl_net_latency``);
        the single-half networks pay the serialization factor documented
        at :data:`_TOPOLOGY_LATENCY_FACTOR`; ``mesh`` has no dedicated
        control network at all, so control rides the data mesh.
        """
        if self.control_topology == "mesh":
            return self.data_net_latency
        return (self.ctrl_net_latency
                * _TOPOLOGY_LATENCY_FACTOR[self.control_topology])

    @property
    def ccu_round_trip(self) -> int:
        """Cost of indirecting control through the centralized control unit.

        Branch result travels to the CCU over the data/config network, the
        CCU decides, then re-configures the target PEs — two traversals plus
        decision plus configuration write (paper Section 3.2, Fig. 3(c)).
        """
        return 2 * self.data_net_latency + 1 + self.t_config

    def scaled(self, rows: int, cols: int) -> "ArchParams":
        """A copy with a different array size (for scalability studies)."""
        nonlinear = min(self.nonlinear_pes, rows * cols)
        return replace(self, rows=rows, cols=cols, nonlinear_pes=nonlinear)


#: The prototype configuration evaluated in the paper (4x4 PEs, 28 nm,
#: 500 MHz, 16 KB data scratchpad, 2 KB instruction scratchpad).
DEFAULT_PARAMS = ArchParams()

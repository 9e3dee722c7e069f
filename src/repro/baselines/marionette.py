"""The Marionette execution model, with per-feature toggles.

Proactive PE Configuration is always on (Fig. 11's "Marionette PE" has
it too), so configuration never shows; two switches mirror the paper's
feature-by-feature breakdown:

* ``control_network`` — the dedicated CS-Benes network (Fig. 12): control
  transfers drop from the data path's ~6 cycles to 1;
* ``agile`` — Agile PE Assignment (Fig. 14): outer-BB pipelines built by the
  Marionette scheduler, overlapped with inner bursts through Control FIFOs,
  plus spatial unrolling of spare PEs.

When ``agile`` is on, the model consults the real
:class:`~repro.compiler.schedule.MarionetteScheduler` output for the
initiation intervals and unroll factors of each block — Fig. 14/15 numbers
are produced by the actual mapping algorithm, not by a closed-form guess.
The scheduler memoises per kernel structure, so every model instance that
prices one kernel on one array reads one schedule.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import ArchParams
from repro.baselines.base import ArchModel, KernelInstance, ModelConfig
from repro.compiler.schedule import MarionetteScheduler
from repro.ir.cdfg import LoopNest
from repro.ir.cfg import BlockRole


class MarionetteModel(ArchModel):
    """Marionette with feature toggles (defaults: everything on)."""

    def __init__(self, params: ArchParams, *,
                 control_network: bool = True, agile: bool = True,
                 name: Optional[str] = None) -> None:
        label = name or self._label(control_network, agile)
        super().__init__(params, ModelConfig(
            name=label,
            arms_share_pes=True,          # steering merges branch arms
            static_whole_kernel=False,    # autonomous reconfiguration
            per_token_config=0,           # control decoupled from tokens
            ctrl_latency=(
                # The selected topology sets the dedicated network's
                # effective transfer cost (cs_benes is the calibrated
                # 1-cycle baseline; see ArchParams.control_transfer_latency).
                params.control_transfer_latency if control_network
                else params.data_net_latency
            ),
            uses_ccu=False,
            config_visible=False,         # proactive PE configuration
            outer_pipelined=agile,
            loop_fifo=agile,
            unroll_spare=agile,
        ))
        self.agile = agile
        self._scheduler = MarionetteScheduler(params, enable_agile=agile)

    @staticmethod
    def _label(network: bool, agile: bool) -> str:
        if network and agile:
            return "Marionette"
        parts = ["Marionette PE"]
        if network:
            parts.append("+Control Network")
        if agile:
            parts.append("+Agile PE Assignment")
        return " ".join(parts)

    # ------------------------------------------------------------------
    def body_ii(self, kernel: KernelInstance, nest: LoopNest) -> int:
        """II from the real placements of the nest's own blocks."""
        schedule = self._scheduler.schedule(kernel.cdfg)
        iis = []
        for bid in nest.own:
            placement = schedule.placement_of(bid)
            if placement is not None and placement.op_count > 0:
                iis.append(placement.ii)
        if not iis:
            return super().body_ii(kernel, nest)
        return max(max(iis), self.recurrence_ii(kernel, nest))

    def unroll_of(self, kernel: KernelInstance, nest: LoopNest,
                  ii: int) -> int:
        if not self.agile:
            return 1
        if kernel.recurrence_of(nest) > 0:
            # Serially dependent iterations cannot be replicated spatially,
            # whatever the scheduler managed to fit.
            return 1
        schedule = self._scheduler.schedule(kernel.cdfg)
        unrolls = []
        for bid in nest.own:
            if kernel.cdfg.block(bid).role is BlockRole.LOOP_HEADER:
                continue  # the loop operator replicates with its body
            placement = schedule.placement_of(bid)
            if placement is not None and placement.op_count > 0:
                unrolls.append(placement.unroll)
        if not unrolls:
            return 1
        # The pipeline initiates as many iterations as its narrowest stage.
        return max(1, min(unrolls))

"""REVEL-like hybrid systolic-dataflow model (Weng et al., HPCA'20).

REVEL splits the fabric: a systolic array pipelines the inductive inner
loops (spatial unrolling, clean IIs), while a small set of tagged-dataflow
PEs execute the outer, irregular work.  Outer BBs do pipeline — REVEL is
the closest baseline to Agile PE Assignment (paper: geomean gap only
1.55×) — but they are *restricted to the few dataflow PEs* (the paper's
comparison uses 15 systolic + 1 tagged-dataflow PE), so outer initiation
intervals inflate once the outer DFG exceeds those resources.
"""

from __future__ import annotations

from repro.arch.params import ArchParams
from repro.baselines.base import ArchModel, KernelInstance, ModelConfig
from repro.ir.cdfg import LoopNest


class RevelModel(ArchModel):
    """Hybrid systolic/dataflow with resource-limited outer pipelines."""

    #: tagged-dataflow PEs available to outer-loop BBs (paper Section 6.1)
    OUTER_PES = 1

    def __init__(self, params: ArchParams) -> None:
        super().__init__(params, ModelConfig(
            name="REVEL",
            arms_share_pes=True,
            static_whole_kernel=False,
            per_token_config=0,
            ctrl_latency=params.data_net_latency,
            uses_ccu=False,
            config_visible=False,
            outer_pipelined=True,          # outer BBs pipeline, but...
            outer_pe_limit=self.OUTER_PES,
            unroll_spare=True,
        ))

    def body_ii(self, kernel: KernelInstance, nest: LoopNest) -> int:
        ii = super().body_ii(kernel, nest)
        if nest.children:
            # Outer BBs share the single tagged-dataflow PE: the outer
            # pipeline II is the op count serialised on it, plus the tag
            # stage.
            ops = kernel.ops_of_blocks(nest.own, merge_arms=True)
            ii = max(ii, ops * self.params.t_execute // max(1, self.OUTER_PES))
            ii += self.params.t_config
        return ii

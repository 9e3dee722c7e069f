"""The shared execution-model engine.

Cost model.  A kernel's dynamic behaviour is reduced
to per-loop statistics (entries, iterations) plus flat-block execution
counts; the engine walks the loop-nest tree bottom-up.  An innermost loop
is priced as a pipeline (:func:`pipeline_cycles`):

``entries * (startup + drain) + max(0, ceil(iterations/unroll) - entries) * II``

so one entry costs ``startup + (initiations - 1) * II + drain``.  With
``loop_fifo`` the startups and drains are paid once per parent burst
instead of once per entry.  A non-innermost loop adds the per-iteration
cost of its outer basic blocks — either serialised between the inner-loop
bursts (conventional architectures) or pipelined and overlapped with them
(Agile PE Assignment; the two concurrent streams cost ``max`` instead of
``sum``) wherever that is no dearer than the serial schedule.

The knobs in :class:`ModelConfig` are the paper's mechanisms:

=====================  =====================================================
knob                   paper mechanism
=====================  =====================================================
arms_share_pes         steering/tags let branch arms share PEs; otherwise
                       Predication maps both arms spatially (Fig. 3(c))
static_whole_kernel    a von Neumann PE array must keep every BB resident
                       (no cheap dynamic reconfiguration), so the whole
                       kernel competes for PEs
per_token_config       dataflow PEs re-configure per token (Fig. 2(b));
                       adds cycles to every II
ctrl_latency           peer control transfer: data path (~6) vs the
                       dedicated control network (1)
uses_ccu               control handed to a Centralized Control Unit: loop
                       generators with data-dependent bounds and capacity
                       overflows pay a CCU round trip (Fig. 3(c)/(d))
config_visible         configuration not overlapped with computation
                       (no Proactive PE Configuration): each pipeline
                       startup exposes t_config
outer_pipelined        Agile PE Assignment pipelines outer BBs and overlaps
                       them with inner bursts via Control FIFOs (Fig. 8)
=====================  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.arch.params import ArchParams
from repro.compiler.place import place_block
from repro.ir.analysis import LoopDynamics, loop_dynamics
from repro.ir.cdfg import CDFG, LoopNest
from repro.ir.cfg import BlockId, Branch
from repro.ir.ops import Opcode
from repro.ir.trace import DynamicTrace


# ----------------------------------------------------------------------
# Kernel instance: CDFG + trace + derived statistics
# ----------------------------------------------------------------------
class KernelInstance:
    """A kernel bound to one dynamic execution, with cached analyses."""

    def __init__(self, cdfg: CDFG, trace: DynamicTrace) -> None:
        self.cdfg = cdfg
        self.trace = trace
        self.dynamics: Dict[BlockId, LoopDynamics] = loop_dynamics(cdfg, trace)
        self.nests = cdfg.loop_nests()
        self._recurrence: Dict[BlockId, int] = {}
        self._threaded: Dict[BlockId, int] = {}
        self._serial_sibling: Dict[BlockId, bool] = {}

    def recurrence_of(self, nest: LoopNest) -> int:
        """Latency of the longest loop-carried control/address dependence
        over the nest's own blocks (cached).

        A variable assigned in the loop and read *earlier in iteration
        order* (or by the header condition) carries a value between
        iterations.  If that value feeds a branch condition or a memory
        address, the next iteration cannot issue until the chain resolves —
        the paper's "data-dependent pipeline II" (Section 7.3: FFT and
        Viterbi are limited to II = 2; CRC/ADPCM/Merge Sort are "only
        partially pipelined").  Pure arithmetic accumulators (GEMM's
        ``acc``) do not constrain the II: they reduce in place on one PE.

        Returns the chain latency in cycles (0 when no such recurrence).
        """
        if nest.header not in self._recurrence:
            self._recurrence[nest.header] = self._recurrence_over(nest.own)
        return self._recurrence[nest.header]

    def threaded_recurrence(self, nest: LoopNest) -> int:
        """Recurrence chain of the *full* loop body (own + nested blocks).

        When a value carried across this loop's iterations flows through a
        nested loop (CRC's running remainder through the bit loop), the
        child bursts of consecutive iterations serialise: no outer/inner
        overlap, no armed-pipeline reuse, whatever the scheduler does.
        """
        if nest.header not in self._threaded:
            self._threaded[nest.header] = self._recurrence_over(nest.blocks)
        return self._threaded[nest.header]

    def _recurrence_over(self, blocks: Set[BlockId]) -> int:
        """Carried control/address chain over an explicit block set.

        Two passes over one iteration (block-id order = program order):

        1. find *carried reads* — reads of a non-generator variable that no
           earlier write in the same iteration dominates (they observe the
           previous iteration's value);
        2. propagate a latency-annotated taint forward from those reads,
           across blocks via variable bindings, until it reaches a control
           or address sink (branch condition / memory operation).

        The longest taint at a sink is the recurrence chain.
        """
        own = sorted(blocks)
        counter_vars: Set[str] = set()
        for bid in own:
            block = self.cdfg.block(bid)
            if block.loop_var is not None:
                counter_vars.add(block.loop_var)
        all_writes: Dict[str, List[Tuple[int, BlockId, int]]] = {}
        for pos, bid in enumerate(own):
            for var, node_id in self.cdfg.block(bid).outputs.items():
                if var.startswith(".") or var in counter_vars:
                    continue
                all_writes.setdefault(var, []).append((pos, bid, node_id))
        for var, writes_of_var in all_writes.items():
            if self._is_generator_var(writes_of_var):
                counter_vars.add(var)
        earliest_write: Dict[str, Tuple[int, int]] = {
            var: (w[0][0], w[0][2])
            for var, w in (
                (v, sorted(ws)) for v, ws in all_writes.items()
            )
            if var not in counter_vars
        }

        under_branch = self.cdfg.under_branch_blocks()
        taint: Dict[str, int] = {}   # variable -> taint depth (cycles)
        chain = 0
        for pos, bid in enumerate(own):
            block = self.cdfg.block(bid)
            dfg = block.dfg
            depth: Dict[int, Optional[int]] = {}
            for node in dfg.nodes:
                if node.opcode is Opcode.INPUT:
                    seed: Optional[int] = None
                    var = node.var
                    if var in taint:
                        seed = taint[var]
                    if var in earliest_write:
                        wpos, wnode = earliest_write[var]
                        if (pos, node.node_id) <= (wpos, wnode):
                            seed = max(seed or 0, 0)  # carried read
                    depth[node.node_id] = seed
                    continue
                reach = [
                    depth[o] for o in node.operands
                    if depth.get(o) is not None
                ]
                if reach:
                    depth[node.node_id] = max(reach) + node.info.latency
                else:
                    depth[node.node_id] = None
            # Sinks within this block.
            term = block.terminator
            if isinstance(term, Branch) and depth.get(term.cond) is not None:
                chain = max(chain, depth[term.cond])
            for node in dfg.nodes:
                if node.info.is_memory and depth.get(node.node_id) is not None:
                    chain = max(chain, depth[node.node_id])
            # Variable bindings update the taint map (conditional writes
            # merge, unconditional ones replace).
            for var, node_id in block.outputs.items():
                new_taint = depth.get(node_id)
                if bid in under_branch:
                    if new_taint is not None:
                        taint[var] = max(taint.get(var, 0), new_taint)
                else:
                    if new_taint is None:
                        taint.pop(var, None)
                    else:
                        taint[var] = new_taint
        return chain

    _AFFINE_OPS = frozenset({
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
        Opcode.SHL, Opcode.SHR,
    })

    def _is_generator_var(
        self, writes_of_var: List[Tuple[int, BlockId, int]]
    ) -> bool:
        """Whether a variable is an affine control counter.

        Such variables (FFT's ``m *= 2``, SC Decode's ``len /= 2``,
        ``base += m``) are produced by hardware loop generators: every
        update is unconditional and built only from constants and variable
        reads through affine ops — no loads, compares, or selections.  They
        do not constrain the pipeline II.
        """
        under_branch = self.cdfg.under_branch_blocks()
        for _pos, bid, node_id in writes_of_var:
            if bid in under_branch:
                return False
            block = self.cdfg.block(bid)
            stack = [node_id]
            while stack:
                node = block.dfg.node(stack.pop())
                if node.opcode in (Opcode.CONST, Opcode.INPUT):
                    continue
                if node.opcode in self._AFFINE_OPS:
                    stack.extend(node.operands)
                    continue
                return False
        return True

    def serial_sibling(self, nest: LoopNest) -> bool:
        """Whether this loop exchanges scalars with a sibling loop inside
        the same parent iteration (LDPC's min pass feeding its update pass,
        Merge Sort's cursor hand-off between merge and tail loops).  Such
        siblings re-synchronise every parent iteration, so Control FIFOs
        cannot keep their pipelines armed across entries — the paper's
        "limitations of data dependencies between loops (LDPC)"."""
        if nest.parent is None:
            return False
        if nest.header not in self._serial_sibling:
            parent = self.nests[nest.parent]
            self._serial_sibling[nest.header] = self._computes_serial(
                nest, parent
            )
        return self._serial_sibling[nest.header]

    def _computes_serial(self, nest: LoopNest, parent: LoopNest) -> bool:
        def vars_written(blocks: Set[BlockId]) -> Set[str]:
            out: Set[str] = set()
            for bid in blocks:
                out.update(
                    v for v in self.cdfg.block(bid).outputs
                    if not v.startswith(".")
                )
            return out

        def vars_read(blocks: Set[BlockId]) -> Set[str]:
            out: Set[str] = set()
            for bid in blocks:
                for node in self.cdfg.block(bid).dfg:
                    if node.opcode is Opcode.INPUT and node.var and (
                            not node.var.startswith(".")):
                        out.add(node.var)
            return out

        mine_w = vars_written(nest.blocks)
        mine_r = vars_read(nest.blocks)
        for sibling_header in parent.children:
            if sibling_header == nest.header:
                continue
            sib = self.nests[sibling_header]
            if mine_w & vars_read(sib.blocks):
                return True
            if vars_written(sib.blocks) & mine_r:
                return True
        return False

    @property
    def name(self) -> str:
        return self.cdfg.name

    # -- static structure ------------------------------------------------
    def ops_of_blocks(self, blocks: Set[BlockId], *,
                      merge_arms: bool) -> int:
        """Static FU ops over ``blocks``; merged arms count once (max)."""
        total = 0
        in_arms: Set[BlockId] = set()
        if merge_arms:
            for t, f in self.cdfg.arm_pairs().values():
                if t in blocks and f in blocks:
                    total += max(self.cdfg.block(t).op_count,
                                 self.cdfg.block(f).op_count)
                    in_arms |= {t, f}
        for bid in blocks:
            if bid not in in_arms:
                total += self.cdfg.block(bid).op_count
        return total

    def iteration_depth(self, blocks: Set[BlockId],
                        transfer: int) -> int:
        """Critical path of one iteration through ``blocks``: chained block
        critical paths plus inter-block transfers."""
        active = [b for b in blocks if self.cdfg.block(b).op_count > 0]
        if not active:
            return 0
        depth = sum(
            self.cdfg.block(b).dfg.critical_path_length() for b in active
        )
        return depth + transfer * max(0, len(active) - 1)

    def dynamic_bounds(self, nest: LoopNest) -> bool:
        """Whether the loop's trip count is produced by other blocks at run
        time (the SPMV pattern of Fig. 3: BB3 configures BB5's generator)."""
        header = self.cdfg.block(nest.header)
        term = header.terminator
        if not isinstance(term, Branch):
            return False
        cond = header.dfg.node(term.cond)
        for operand_id in cond.operands:
            node = header.dfg.node(operand_id)
            if node.opcode is Opcode.CONST:
                continue
            if node.opcode is Opcode.INPUT:
                if node.var == header.loop_var:
                    continue
                if node.var in self.cdfg.params:
                    continue
                return True
            return True  # computed in the header itself
        return False


# ----------------------------------------------------------------------
# Model configuration and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelConfig:
    """Mechanism toggles for one architecture."""

    name: str
    arms_share_pes: bool = True
    static_whole_kernel: bool = False
    per_token_config: int = 0
    ctrl_latency: int = 6          # via data path by default
    uses_ccu: bool = False
    config_visible: bool = False
    outer_pipelined: bool = False
    #: scaling of serial outer-BB execution (dataflow tag overhead > 1)
    outer_serial_factor: float = 1.0
    #: PEs usable for outer-BB work when serialised (REVEL's few dataflow
    #: PEs); None = whole array
    outer_pe_limit: Optional[int] = None
    #: spatial unrolling of innermost pipelines across spare PEs
    unroll_spare: bool = False
    #: extra fixed cycles per pipeline startup (host-driven dispatch)
    startup_extra: int = 0
    #: every pipeline entry is configured by the CCU/host, not only
    #: data-dependent ones (Softbrain's "processor fetches instruction")
    ccu_every_entry: bool = False
    #: Control FIFOs keep inner loop operators armed across entries
    #: ("Remain Loop Config"): startup/drain paid once per outer burst
    loop_fifo: bool = False


@dataclass
class LoopBreakdown:
    """Engine accounting for one loop (consumed by Fig. 15/16 analyses)."""

    header: BlockId
    depth: int
    innermost: bool
    entries: int
    iterations: int
    ii: int
    unroll: int
    startup: int
    drain: int
    own_cycles: int          # cycles attributed to this loop's own blocks
    child_cycles: int        # cycles of nested loops
    overlapped: bool         # outer stream overlapped with inner bursts

    @property
    def total_cycles(self) -> int:
        return self.own_cycles + self.child_cycles

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe image (the engine's on-disk result cache)."""
        return {
            "header": self.header, "depth": self.depth,
            "innermost": self.innermost, "entries": self.entries,
            "iterations": self.iterations, "ii": self.ii,
            "unroll": self.unroll, "startup": self.startup,
            "drain": self.drain, "own_cycles": self.own_cycles,
            "child_cycles": self.child_cycles,
            "overlapped": self.overlapped,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "LoopBreakdown":
        return cls(
            header=int(payload["header"]), depth=int(payload["depth"]),
            innermost=bool(payload["innermost"]),
            entries=int(payload["entries"]),
            iterations=int(payload["iterations"]), ii=int(payload["ii"]),
            unroll=int(payload["unroll"]), startup=int(payload["startup"]),
            drain=int(payload["drain"]),
            own_cycles=int(payload["own_cycles"]),
            child_cycles=int(payload["child_cycles"]),
            overlapped=bool(payload["overlapped"]),
        )


@dataclass
class CycleResult:
    """Outcome of one execution-model run."""

    arch: str
    kernel: str
    cycles: int
    busy_pe_cycles: int
    n_pes: int
    breakdowns: List[LoopBreakdown] = field(default_factory=list)
    flat_cycles: int = 0

    @property
    def utilization(self) -> float:
        if self.cycles == 0:
            return 0.0
        return min(1.0, self.busy_pe_cycles / (self.cycles * self.n_pes))

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe image (the engine's on-disk result cache)."""
        return {
            "arch": self.arch, "kernel": self.kernel,
            "cycles": self.cycles, "busy_pe_cycles": self.busy_pe_cycles,
            "n_pes": self.n_pes, "flat_cycles": self.flat_cycles,
            "breakdowns": [b.to_payload() for b in self.breakdowns],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "CycleResult":
        return cls(
            arch=str(payload["arch"]), kernel=str(payload["kernel"]),
            cycles=int(payload["cycles"]),
            busy_pe_cycles=int(payload["busy_pe_cycles"]),
            n_pes=int(payload["n_pes"]),
            flat_cycles=int(payload["flat_cycles"]),
            breakdowns=[
                LoopBreakdown.from_payload(b) for b in payload["breakdowns"]
            ],
        )


def pipeline_cycles(entries: int, iterations: int, ii: int, startup: int,
                    drain: int, unroll: int = 1) -> int:
    """Cycles of a pipelined loop entered ``entries`` times for
    ``iterations`` iterations in all: each entry pays ``startup + drain``
    once, and every initiation after an entry's first issues ``ii`` cycles
    after the one before; an initiation starts ``unroll`` iterations."""
    initiations = math.ceil(iterations / unroll)
    return entries * (startup + drain) + max(0, initiations - entries) * ii


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ArchModel:
    """Trace-driven execution model parameterised by :class:`ModelConfig`."""

    def __init__(self, params: ArchParams, config: ModelConfig) -> None:
        self.params = params
        self.config = config

    # -- hooks subclasses may refine -------------------------------------
    def body_ii(self, kernel: KernelInstance, nest: LoopNest) -> int:
        """Initiation interval of one iteration of ``nest``'s own blocks:
        resource sharing over the resident op set, plus mapping congestion
        (one memoised placement per block, shared across models so that
        mapping quality does not skew the comparison), plus any
        token-coupled configuration."""
        cfg = self.config
        if cfg.static_whole_kernel:
            resident = kernel.cdfg.total_op_count
        else:
            resident = kernel.ops_of_blocks(
                nest.own, merge_arms=cfg.arms_share_pes
            )
        ii = max(1, math.ceil(resident / self.params.n_pes))
        for bid in nest.own:
            block = kernel.cdfg.block(bid)
            if block.op_count > 1:
                ii = max(ii, place_block(block, self.params).ii)
        ii = max(ii, self.recurrence_ii(kernel, nest))
        return ii + cfg.per_token_config

    def recurrence_ii(self, kernel: KernelInstance, nest: LoopNest) -> int:
        """II floor imposed by loop-carried control/address dependences.

        The carried value crosses PEs once per iteration: over the control
        network when present, otherwise by neighbour forwarding in the data
        plane (predication's select path) — whichever is faster.
        """
        chain = kernel.recurrence_of(nest)
        if chain == 0:
            return 1
        if chain <= self.params.t_execute:
            # A single-op recurrence (e.g. Viterbi's running-min compare)
            # colocates on one PE: no inter-PE transfer on the cycle.  This
            # is the paper's "data-dependent pipeline II" of 2.
            return chain
        forward = min(self.config.ctrl_latency,
                      2 * self.params.mesh_hop_latency + 1)
        return chain + forward

    def unroll_of(self, kernel: KernelInstance, nest: LoopNest,
                  ii: int) -> int:
        """Spatial unroll factor for an innermost pipeline."""
        if not self.config.unroll_spare:
            return 1
        if kernel.recurrence_of(nest) > 0:
            # Iterations are serially dependent: replicating the DFG cannot
            # start several of them together.
            return 1
        if self.config.static_whole_kernel:
            # The whole kernel competes for PEs; spare room is what is left
            # after every block is resident.
            ops = kernel.cdfg.total_op_count
        else:
            ops = kernel.ops_of_blocks(
                nest.own, merge_arms=self.config.arms_share_pes
            )
        if ops == 0:
            return 1
        return max(1, self.params.n_pes // max(1, ops))

    def startup_of(self, kernel: KernelInstance, nest: LoopNest) -> int:
        """Cycles before the first iteration of a burst can issue."""
        cfg = self.config
        startup = cfg.ctrl_latency + cfg.startup_extra
        if cfg.config_visible:
            startup += self.params.t_config
        if cfg.ccu_every_entry or (cfg.uses_ccu and (
            kernel.dynamic_bounds(nest) or self._overflows(kernel)
        )):
            startup += self.params.ccu_round_trip
        return startup

    # -- internals --------------------------------------------------------
    def _overflows(self, kernel: KernelInstance) -> bool:
        return (
            self.config.static_whole_kernel
            and kernel.cdfg.total_op_count > self.params.n_pes
        )

    def _drain_of(self, kernel: KernelInstance, nest: LoopNest) -> int:
        return kernel.iteration_depth(
            nest.own, self.params.data_net_latency
        )

    def _outer_iter_cost(self, kernel: KernelInstance,
                         nest: LoopNest) -> int:
        """Serial per-iteration cost of a non-innermost loop's own work."""
        cfg = self.config
        ops = kernel.ops_of_blocks(nest.own, merge_arms=cfg.arms_share_pes)
        depth = kernel.iteration_depth(nest.own,
                                       self.params.data_net_latency)
        if cfg.outer_pe_limit is not None and ops > cfg.outer_pe_limit:
            # Too few PEs for the outer DFG: ops serialise on them.
            depth = max(
                depth,
                math.ceil(ops / cfg.outer_pe_limit) * self.params.t_execute,
            )
        cost = math.ceil(depth * cfg.outer_serial_factor)
        cost += cfg.ctrl_latency  # hand control down to the inner loop
        if cfg.config_visible:
            cost += self.params.t_config
        if cfg.uses_ccu and any(
            kernel.dynamic_bounds(kernel.nests[c]) for c in nest.children
        ):
            cost += self.params.ccu_round_trip
        return cost

    # -- main recursion ----------------------------------------------------
    def simulate(self, kernel: KernelInstance) -> CycleResult:
        """Price the whole kernel execution."""
        breakdowns: List[LoopBreakdown] = []
        total = 0
        for nest in kernel.nests.values():
            if nest.parent is None:
                breakdown = self._loop_cycles(
                    kernel, nest, breakdowns, parent_entries=None
                )
                total += breakdown.total_cycles

        flat = 0
        cfg = self.config
        for bid in kernel.cdfg.flat_blocks():
            block = kernel.cdfg.block(bid)
            execs = kernel.trace.execs_of(bid)
            per_exec = (
                block.dfg.critical_path_length() + cfg.ctrl_latency
                + (self.params.t_config if cfg.config_visible else 0)
            )
            if cfg.uses_ccu and self._overflows(kernel):
                per_exec += self.params.ccu_round_trip
            flat += execs * per_exec
        total += flat

        busy = kernel.trace.dynamic_op_count(kernel.cdfg) * self.params.t_execute
        return CycleResult(
            arch=cfg.name, kernel=kernel.name, cycles=max(1, total),
            busy_pe_cycles=busy, n_pes=self.params.n_pes,
            breakdowns=breakdowns, flat_cycles=flat,
        )

    def _loop_cycles(self, kernel: KernelInstance, nest: LoopNest,
                     breakdowns: List[LoopBreakdown],
                     parent_entries: Optional[int]) -> LoopBreakdown:
        cfg = self.config
        dyn = kernel.dynamics.get(nest.header)
        entries = dyn.entries if dyn else 0
        iters = dyn.total_iterations if dyn else 0

        # With Agile PE Assignment (and REVEL-style outer pipelines), the
        # Control FIFOs keep the inner loop operator configured across
        # entries ("Remain Loop Config"): startup/drain are paid once per
        # *parent* burst, not once per entry.
        if (cfg.loop_fifo and parent_entries is not None
                and not kernel.serial_sibling(nest)):
            overhead_entries = min(entries, parent_entries)
        else:
            overhead_entries = entries

        # A recurrence threading through nested loops (CRC's remainder)
        # serialises consecutive child bursts: no overlap, no armed reuse.
        threaded = (
            bool(nest.children) and kernel.threaded_recurrence(nest) > 0
        )

        child_cycles = 0
        for child in nest.children:
            child_breakdown = self._loop_cycles(
                kernel, kernel.nests[child], breakdowns,
                parent_entries=None if threaded else overhead_entries,
            )
            child_cycles += child_breakdown.total_cycles

        ii = self.body_ii(kernel, nest)
        startup = self.startup_of(kernel, nest)
        drain = self._drain_of(kernel, nest)
        innermost = not nest.children

        if entries == 0:
            breakdown = LoopBreakdown(
                header=nest.header, depth=nest.depth, innermost=innermost,
                entries=0, iterations=0, ii=ii, unroll=1, startup=startup,
                drain=drain, own_cycles=0, child_cycles=child_cycles,
                overlapped=False,
            )
            breakdowns.append(breakdown)
            return breakdown

        if innermost:
            unroll = self.unroll_of(kernel, nest, ii)
            own = pipeline_cycles(
                overhead_entries, iters, ii, startup, drain, unroll
            )
            overlapped = False
        else:
            unroll = 1
            per_iter = self._outer_iter_cost(kernel, nest)
            own = entries * startup + iters * per_iter
            overlapped = False
            if cfg.outer_pipelined and not threaded:
                # The outer-BB pipeline runs concurrently with the inner
                # bursts; Control FIFOs decouple them, so the two streams
                # cost max(), not sum() — plus startups and drains.  The
                # compiler keeps the serial schedule where it is cheaper:
                # a loop entered for few or no iterations pays the drain
                # for little or nothing.
                pipelined = (
                    overhead_entries * (startup + drain)
                    + max(0, iters * ii - child_cycles)
                )
                if pipelined <= own:
                    own, overlapped = pipelined, True

        breakdown = LoopBreakdown(
            header=nest.header, depth=nest.depth, innermost=innermost,
            entries=entries, iterations=iters, ii=ii, unroll=unroll,
            startup=startup, drain=drain, own_cycles=own,
            child_cycles=child_cycles, overlapped=overlapped,
        )
        breakdowns.append(breakdown)
        return breakdown



"""Tests for CDFG analyses: profiles, loop dynamics, branch metrics."""

import numpy as np

from repro.ir import analysis
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BlockRole, Branch, CFG, Halt, Jump
from repro.ir.interp import Interpreter
from repro.ir.ops import Opcode
from repro.workloads import ALL_WORKLOADS

#: workload -> (imperfect, divergent branches, under-branch blocks, loop
#: depth) of its ``tiny`` CDFG; Table 1's loop forms show in the first and
#: last columns (ADPCM has a single loop, MS and GEMM imperfect nests)
STRUCTURE = {
    "MS": (True, 1, 2, 3),
    "FFT": (True, 0, 0, 3),
    "VI": (True, 1, 2, 3),
    "NW": (True, 3, 6, 2),
    "HT": (True, 1, 5, 3),
    "CRC": (True, 1, 2, 2),
    "ADPCM": (False, 9, 18, 1),
    "SCD": (True, 6, 12, 2),
    "LDPC": (True, 6, 13, 3),
    "GEMM": (True, 0, 0, 3),
    "CO": (False, 0, 0, 1),
    "SI": (False, 0, 0, 1),
    "GP": (False, 0, 0, 1),
}


def _run(cdfg, memory, params):
    return Interpreter(cdfg).run(memory, params)


class TestLoopNest:
    def test_imperfect_detection(self, imperfect_kernel, saxpy_kernel):
        assert imperfect_kernel.is_imperfect()
        assert not saxpy_kernel.is_imperfect()

    def test_nest_depths(self, imperfect_kernel):
        assert imperfect_kernel.max_loop_depth() == 2
        inner = [nest for nest in imperfect_kernel.loop_nests().values()
                 if not nest.children]
        assert len(inner) == 1
        assert inner[0].depth == 2


class TestBranchStructure:
    def test_branch_blocks(self, branchy_kernel, saxpy_kernel):
        assert len(branchy_kernel.branch_blocks()) == 1
        assert saxpy_kernel.branch_blocks() == []

    def test_under_branch_blocks_are_the_arms(self, branchy_kernel):
        under = branchy_kernel.under_branch_blocks()
        names = {branchy_kernel.block(b).name for b in under}
        assert any("then" in n for n in names)
        assert any("else" in n for n in names)

    def test_structure_facts_of_every_workload(self):
        facts = {}
        for workload in ALL_WORKLOADS:
            cdfg = workload.instance("tiny").cdfg
            facts[workload.short] = (
                cdfg.is_imperfect(), len(cdfg.branch_blocks()),
                len(cdfg.under_branch_blocks()), cdfg.max_loop_depth(),
            )
        assert facts == STRUCTURE


class TestLoopDynamics:
    def test_entries_and_iterations(self, imperfect_kernel, spmv_inputs):
        memory, params, _ = spmv_inputs
        result = _run(imperfect_kernel, memory, params)
        dynamics = analysis.loop_dynamics(imperfect_kernel, result.trace)
        by_depth = {d.depth: d for d in dynamics.values()}
        outer = by_depth[1]
        inner = by_depth[2]
        assert outer.entries == 1
        assert outer.total_iterations == 4       # four rows
        assert inner.entries == 4                # entered once per row
        assert inner.total_iterations == 9       # nnz

    def test_zero_entry_loop(self):
        from repro.ir.builder import KernelBuilder

        k = KernelBuilder("dead_loop")
        n = k.param("n")
        k.array("o")
        with k.branch(k.const(0).eq(1)):
            with k.loop("i", 0, n) as i:
                k.store("o", i, i)
        cdfg = k.build()
        result = _run(cdfg, {"o": np.zeros(4)}, {"n": 4})
        dynamics = analysis.loop_dynamics(cdfg, result.trace)
        assert all(d.entries == 0 for d in dynamics.values())
        assert all(d.total_iterations == 0 for d in dynamics.values())

    def test_single_block_loop_counts_its_self_edges(self):
        # entry -> spin (re-executes itself while i < n) -> done; the
        # builder never emits this shape, so the graph is built by hand.
        cfg = CFG()
        entry = cfg.new_block("entry")
        spin = cfg.new_block("spin", BlockRole.LOOP_HEADER)
        done = cfg.new_block("done", BlockRole.EXIT)
        entry.outputs["i"] = entry.dfg.const(0)
        entry.terminator = Jump(spin.block_id)
        step = spin.dfg.add(
            Opcode.ADD, (spin.dfg.input("i"), spin.dfg.const(1))
        )
        spin.outputs["i"] = step
        more = spin.dfg.add(Opcode.LT, (step, spin.dfg.input("n")))
        spin.terminator = Branch(more, spin.block_id, done.block_id,
                                 is_loop_branch=True)
        done.terminator = Halt()
        cdfg = CDFG("spin", cfg, params=("n",))
        result = _run(cdfg, {}, {"n": 5})
        assert result.trace.execs_of(spin.block_id) == 5
        loop = analysis.loop_dynamics(cdfg, result.trace)[spin.block_id]
        assert loop.entries == 1
        assert loop.total_iterations == 4        # four back edges


class TestProfile:
    def test_ops_under_branch_fraction(self, branchy_kernel):
        result = _run(
            branchy_kernel,
            {"a": np.arange(8), "b": np.arange(8)[::-1].copy(),
             "o": np.zeros(8)},
            {"n": 8},
        )
        fraction = analysis.ops_under_branch_fraction(
            branchy_kernel, result.trace
        )
        assert 0.0 < fraction < 1.0

    def test_profile_fields(self, imperfect_kernel, spmv_inputs):
        memory, params, _ = spmv_inputs
        result = _run(imperfect_kernel, memory, params)
        profile = analysis.profile(imperfect_kernel, result.trace)
        assert profile.kernel == "spmv"
        assert profile.max_loop_depth == 2
        assert profile.dynamic_ops == result.trace.dynamic_op_count(
            imperfect_kernel
        )

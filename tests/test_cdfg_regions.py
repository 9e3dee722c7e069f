"""CDFG structural analyses: branch regions (the blocks before a
branch's immediate post-dominator) on builder kernels, on the hand-built
shapes and against networkx, under-branch sets, imperfect-loop detection
on crafted graph shapes, and the laws that tie the cached structure
facts together on generated kernels."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.builder import KernelBuilder
from repro.ir.cfg import BlockRole, Halt

from kernel_fuzz import (_loop_exit_kernel, _two_entry_kernel,
                         graph_kernels, kernels)


def names_of(cdfg, ids):
    return {cdfg.block(b).name for b in ids}


class TestUnderBranch:
    def test_nested_branch_regions_union(self):
        k = KernelBuilder("nested")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.branch(i < 4) as outer:
                with k.branch(i < 2) as inner:
                    k.set("v", 1)
                with inner.orelse():
                    k.set("v", 2)
            with outer.orelse():
                k.set("v", 3)
            k.store("o", i, k.get("v"))
        cdfg = k.build()
        under = names_of(cdfg, cdfg.under_branch_blocks())
        # Both levels of arms are under a branch.
        assert any("br1_then" in name for name in under)
        assert any("br2_then" in name for name in under)
        # The loop header is not.
        assert not any("head" in name for name in under)

    def test_loop_inside_branch_is_under_it(self):
        k = KernelBuilder("loop_in_branch")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.branch(i < 3):
                with k.loop("t", 0, 4) as t:
                    k.store("o", t, t)
        cdfg = k.build()
        under = names_of(cdfg, cdfg.under_branch_blocks())
        assert any("loop_t" in name for name in under)

    def test_merge_point_not_under_branch(self, branchy_kernel):
        under = names_of(branchy_kernel,
                         branchy_kernel.under_branch_blocks())
        assert not any("merge" in name for name in under)


def regions_by_name(cdfg):
    return {cdfg.block(branch).name: names_of(cdfg, region)
            for branch, region in cdfg.branch_regions().items()}


class TestHandBuiltShapes:
    """The hand-built shapes of ``kernel_fuzz``, whose drawn statements
    and tests never change the graph."""

    @settings(max_examples=5, deadline=None)
    @given(st.composite(_loop_exit_kernel)(False))
    def test_continue(self, cdfg):
        # Both arms of body re-join at head, its post-dominator.
        assert regions_by_name(cdfg) == {"body": {"rest"}}

    @settings(max_examples=5, deadline=None)
    @given(st.composite(_loop_exit_kernel)(True))
    def test_break(self, cdfg):
        # done post-dominates body; whether head runs again depends on
        # the branch.
        assert regions_by_name(cdfg) == {"body": {"head", "rest"}}

    @settings(max_examples=5, deadline=None)
    @given(st.composite(_two_entry_kernel)())
    def test_two_entry(self, cdfg):
        # Every path from fork, a and b re-joins only at done.
        assert regions_by_name(cdfg) == {
            "fork": {"a", "b"}, "a": {"b"}, "b": {"a"}}


class TestAgainstNetworkx:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graph_kernels(), kernels()))
    def test_regions_match_networkx(self, case):
        # Post-dominators are dominators of the reversed graph, rooted at
        # a virtual exit that follows every Halt.  A region is each arm
        # that is no stop, plus all it reaches once the branch and its
        # post-dominator are removed.
        cdfg = case[0]
        graph = nx.DiGraph()
        graph.add_nodes_from(b.block_id for b in cdfg.blocks)
        graph.add_edges_from(cdfg.cfg.edges())
        reverse = graph.reverse()
        reverse.add_edges_from(("exit", b.block_id) for b in cdfg.blocks
                               if isinstance(b.terminator, Halt))
        ipdom = nx.immediate_dominators(reverse, "exit")
        expected = {}
        for block in cdfg.branch_blocks():
            stops = {block.block_id, ipdom.get(block.block_id)}
            rest = graph.subgraph(set(graph) - stops)
            expected[block.block_id] = set().union(*(
                {arm} | nx.descendants(rest, arm)
                for arm in block.successors() if arm not in stops))
        assert cdfg.branch_regions() == expected


class TestStructureLaws:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graph_kernels(), kernels()))
    def test_cached_facts_agree_with_the_graph(self, case):
        cdfg = case[0]
        nests = cdfg.loop_nests()
        for nest in nests.values():
            inner = set()
            for child in nest.children:
                inner |= nests[child].blocks
            assert nest.own == nest.blocks - inner
        regions = cdfg.branch_regions()
        assert set(regions) == {b.block_id for b in cdfg.branch_blocks()}
        for branch, region in regions.items():
            assert branch not in region
        assert cdfg.under_branch_blocks() == frozenset().union(
            *regions.values())
        in_loops = set()
        for nest in nests.values():
            in_loops |= nest.blocks
        assert cdfg.flat_blocks() == tuple(
            b.block_id for b in cdfg.blocks
            if b.block_id not in in_loops and b.op_count > 0
        )
        pairs = cdfg.arm_pairs()
        assert set(pairs) <= set(regions)
        for branch, pair in pairs.items():
            term = cdfg.block(branch).terminator
            assert pair == (term.if_true, term.if_false)
            assert all(cdfg.block(arm).role is BlockRole.BRANCH_ARM
                       for arm in pair)


class TestImperfectDetection:
    def test_perfect_nest_not_imperfect(self):
        k = KernelBuilder("perfect")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.loop("j", 0, n) as j:
                k.store("o", i * n + j, i + j)
        cdfg = k.build()
        # The outer level carries only the `i * n` style address math, but
        # that lives in the inner body here; nothing but control at level 1.
        assert cdfg.max_loop_depth() == 2

    def test_computation_in_outer_body_is_imperfect(self):
        k = KernelBuilder("imperfect")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            k.set("row", i * n + 1)
            with k.loop("j", 0, n) as j:
                k.store("o", j, k.get("row"))
        cdfg = k.build()
        assert cdfg.is_imperfect()

    def test_single_loop_never_imperfect(self, saxpy_kernel):
        assert not saxpy_kernel.is_imperfect()


class TestSummaries:
    def test_summary_string(self, imperfect_kernel):
        text = imperfect_kernel.summary()
        assert "spmv" in text
        assert "2 loops" in text
        assert "imperfect=True" in text

    def test_total_op_count(self, saxpy_kernel):
        assert saxpy_kernel.total_op_count == sum(
            b.op_count for b in saxpy_kernel.blocks
        )

    def test_validate_catches_undeclared_array(self):
        from repro.errors import IRError
        from repro.ir.cdfg import CDFG

        k = KernelBuilder("bad")
        k.array("a")
        k.store("a", 0, 1)
        good = k.build()
        # Rebuild a CDFG claiming no arrays: validation must fail.
        bad = CDFG("bad2", good.cfg, params=(), arrays=())
        with pytest.raises(IRError):
            bad.validate()

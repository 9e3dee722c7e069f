"""Unit tests for the per-block data flow graph."""

import pytest
from hypothesis import given, settings, strategies as st

from kernel_fuzz import kernels, loop_kernels
from repro.errors import IRError
from repro.ir.dfg import DFG
from repro.ir.ops import Opcode, op_info
from repro.workloads import ALL_WORKLOADS


def build_chain(length: int) -> DFG:
    dfg = DFG()
    node = dfg.const(1)
    prev = dfg.input("x")
    for _ in range(length):
        prev = dfg.add(Opcode.ADD, (prev, node))
    return dfg


class TestConstruction:
    def test_add_returns_dense_ids(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.const(2)
        c = dfg.add(Opcode.ADD, (a, b))
        assert [a, b, c] == [0, 1, 2]

    def test_const_deduplicated(self):
        dfg = DFG()
        assert dfg.const(7) == dfg.const(7)
        assert dfg.const(7) != dfg.const(8)

    def test_const_keyed_by_type_and_zero_sign(self):
        dfg = DFG()
        nodes = [dfg.const(v) for v in (2, 2.0, True, 1, 0.0, -0.0)]
        assert len(set(nodes)) == len(nodes)
        assert dfg.const(-0.0) == nodes[-1]

    def test_input_deduplicated(self):
        dfg = DFG()
        assert dfg.input("v") == dfg.input("v")
        assert dfg.input("v") != dfg.input("w")

    def test_arity_mismatch_raises(self):
        dfg = DFG()
        a = dfg.const(1)
        with pytest.raises(IRError):
            dfg.add(Opcode.ADD, (a,))

    def test_dangling_operand_raises(self):
        dfg = DFG()
        with pytest.raises(IRError):
            dfg.add(Opcode.NEG, (5,))

    def test_memory_requires_array(self):
        dfg = DFG()
        a = dfg.const(0)
        with pytest.raises(IRError):
            dfg.add(Opcode.LOAD, (a,))

    def test_store_has_no_result_consumers(self):
        dfg = DFG()
        a = dfg.const(0)
        v = dfg.const(42)
        s = dfg.add(Opcode.STORE, (a, v), array="mem")
        assert dfg.consumers()[s] == []


class TestQueries:
    def test_fu_nodes_exclude_meta(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.input("x")
        dfg.add(Opcode.ADD, (a, b))
        assert dfg.op_count == 1
        assert len(dfg) == 3

    def test_critical_path_of_chain(self):
        dfg = build_chain(5)
        assert dfg.critical_path_length() == 10  # 5 ADDs x 2 cycles

    def test_critical_path_empty(self):
        assert DFG().critical_path_length() == 0

    def test_consumers(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.input("x")
        c = dfg.add(Opcode.ADD, (a, b))
        d = dfg.add(Opcode.MUL, (c, c))
        assert dfg.consumers()[c] == [d, d]

    def test_validate_passes_on_well_formed(self):
        build_chain(3).validate()


class TestProperties:
    @given(st.integers(1, 40))
    def test_chain_critical_path_scales(self, length):
        assert build_chain(length).critical_path_length() == 2 * length

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    def test_const_cache_is_injective(self, values):
        dfg = DFG()
        ids = {}
        for value in values:
            node = dfg.const(value)
            if value in ids:
                assert ids[value] == node
            ids[value] = node
        assert len({dfg.node(i).value for i in ids.values()}) == len(ids)


def rebuilt(dfg: DFG) -> DFG:
    """A fresh copy of ``dfg``, node by node, that has cached nothing."""
    copy = DFG()
    for node in dfg.nodes:
        copy.add(node.opcode, node.operands, array=node.array,
                 value=node.value, var=node.var)
    return copy


def scratch_facts(dfg: DFG):
    """``(fu_nodes, op_count, critical path)`` recomputed from the node
    list, plus the fingerprint of a copy that has cached nothing."""
    fu_nodes = tuple(n for n in dfg.nodes if op_info(n.opcode).needs_fu)
    depth = {}
    for node in dfg.nodes:
        depth[node.node_id] = op_info(node.opcode).latency + max(
            (depth[o] for o in node.operands), default=0)
    return (fu_nodes, len(fu_nodes), max(depth.values(), default=0),
            rebuilt(dfg).fingerprint())


def cached_facts(dfg: DFG):
    return (dfg.fu_nodes, dfg.op_count, dfg.critical_path_length(),
            dfg.fingerprint())


def structure(dfg: DFG):
    return tuple((node.opcode, node.operands) for node in dfg.nodes)


class TestCachedFacts:
    """The facts a DFG caches equal a from-scratch computation, and
    :meth:`DFG.add` refreshes every one of them."""

    def test_every_workload_block(self):
        pairs = set()
        for workload in ALL_WORKLOADS:
            for block in workload.build(workload.sizes("tiny")).blocks:
                cached_facts(block.dfg)  # fill the caches first
                assert cached_facts(block.dfg) == scratch_facts(block.dfg)
                pairs.add((block.dfg.fingerprint(), structure(block.dfg)))
        # One fingerprint per (opcode, operands) sequence, and back.
        prints, shapes = zip(*pairs)
        assert len(set(prints)) == len(set(shapes)) == len(pairs)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(loop_kernels(), kernels()))
    def test_generated_kernel_blocks(self, case):
        cdfg, _memory, _params = case
        for block in cdfg.blocks:
            cached_facts(block.dfg)
            assert cached_facts(block.dfg) == scratch_facts(block.dfg)

    def test_a_node_added_after_a_read_shows_in_every_fact(self):
        dfg = build_chain(3)
        before = cached_facts(dfg)
        tail = dfg.add(Opcode.MUL, (len(dfg) - 1, 0))
        after = cached_facts(dfg)
        assert after == scratch_facts(dfg)
        assert after[0] == before[0] + (dfg.node(tail),)
        assert after[1] == before[1] + 1
        assert after[2] > before[2]
        assert after[3] != before[3]

    def test_the_fingerprint_ignores_values_and_names(self):
        ones, twos = DFG(), DFG()
        for dfg, value, var in ((ones, 1, "x"), (twos, 2, "y")):
            dfg.add(Opcode.ADD, (dfg.const(value), dfg.input(var)))
        assert ones.fingerprint() == twos.fingerprint()
        assert ones.fingerprint() != build_chain(1).fingerprint()

"""Unit tests for the per-block data flow graph."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import IRError
from repro.ir.dfg import DFG
from repro.ir.ops import Opcode


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

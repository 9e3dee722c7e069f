"""Unit tests for CFG structure: dominators, back edges, natural loops.

Immediate dominators and post-dominators are cross-checked against
networkx's independent implementation on randomly generated graphs.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IRError
from repro.ir.cfg import BlockRole, Branch, CFG, Halt, Jump
from repro.ir.ops import Opcode


def diamond() -> CFG:
    """entry -> (then|else) -> merge -> exit."""
    cfg = CFG()
    entry = cfg.new_block("entry")
    then_b = cfg.new_block("then", BlockRole.BRANCH_ARM)
    else_b = cfg.new_block("else", BlockRole.BRANCH_ARM)
    merge = cfg.new_block("merge", BlockRole.MERGE)
    lt = entry.dfg.add(
        Opcode.LT, (entry.dfg.const(0), entry.dfg.const(1))
    )
    entry.terminator = Branch(lt, then_b.block_id, else_b.block_id)
    then_b.terminator = Jump(merge.block_id)
    else_b.terminator = Jump(merge.block_id)
    merge.terminator = Halt()
    return cfg


def simple_loop() -> CFG:
    """entry -> head <-> body, head -> exit."""
    cfg = CFG()
    entry = cfg.new_block("entry")
    head = cfg.new_block("head", BlockRole.LOOP_HEADER)
    body = cfg.new_block("body", BlockRole.LOOP_BODY)
    exit_b = cfg.new_block("exit")
    cond = head.dfg.add(
        Opcode.LT, (head.dfg.input("i"), head.dfg.const(10))
    )
    entry.terminator = Jump(head.block_id)
    head.terminator = Branch(cond, body.block_id, exit_b.block_id,
                             is_loop_branch=True)
    body.terminator = Jump(head.block_id)
    exit_b.terminator = Halt()
    return cfg


class TestStructure:
    def test_successors_and_predecessors(self):
        cfg = diamond()
        assert cfg.successors(0) == (1, 2)
        preds = cfg.predecessors()
        assert sorted(preds[3]) == [1, 2]

    def test_edges(self):
        assert len(diamond().edges()) == 4

    def test_reachable(self):
        # Dominators cover exactly the blocks reachable from the entry.
        cfg = diamond()
        dead = cfg.new_block("dead")
        dead.terminator = Halt()
        assert set(cfg.dominators()) == {0, 1, 2, 3}


class TestDominators:
    def test_diamond_dominators(self):
        dom = diamond().dominators()
        assert dom[3] == {0, 3}
        assert dom[1] == {0, 1}

    def test_loop_dominators(self):
        dom = simple_loop().dominators()
        assert dom[2] == {0, 1, 2}

    def test_immediate_post_dominators(self):
        assert diamond().immediate_post_dominators() == {
            0: 3, 1: 3, 2: 3, 3: None}
        # The header post-dominates the body; the exit post-dominates both.
        assert simple_loop().immediate_post_dominators() == {
            0: 1, 1: 3, 2: 1, 3: None}

    def test_immediate_dominators(self):
        idom = diamond().immediate_dominators()
        assert idom[0] is None
        assert idom[1] == 0
        assert idom[3] == 0

    def test_back_edges_and_loops(self):
        cfg = simple_loop()
        assert cfg.back_edges() == [(2, 1)]
        loops = cfg.natural_loops()
        assert loops == {1: {1, 2}}

    def test_diamond_has_no_loops(self):
        assert diamond().natural_loops() == {}


class TestValidation:
    def test_missing_terminator(self):
        cfg = CFG()
        cfg.new_block("entry")
        with pytest.raises(IRError):
            cfg.validate()

    def test_dangling_target(self):
        cfg = CFG()
        block = cfg.new_block("entry")
        block.terminator = Jump(99)
        with pytest.raises(IRError):
            cfg.validate()

    def test_no_halt(self):
        cfg = CFG()
        a = cfg.new_block("a")
        b = cfg.new_block("b")
        a.terminator = Jump(b.block_id)
        b.terminator = Jump(a.block_id)
        with pytest.raises(IRError):
            cfg.validate()

    def test_branch_condition_must_exist(self):
        cfg = CFG()
        a = cfg.new_block("a")
        b = cfg.new_block("b")
        a.terminator = Branch(42, b.block_id, b.block_id)
        b.terminator = Halt()
        with pytest.raises(IRError):
            cfg.validate()


@st.composite
def random_cfg(draw):
    """A random CFG with one Halt, arbitrary jumps/branches."""
    n = draw(st.integers(2, 12))
    cfg = CFG()
    blocks = [cfg.new_block(f"b{i}") for i in range(n)]
    for i, block in enumerate(blocks):
        kind = draw(st.sampled_from(["jump", "branch", "halt"]))
        if i == n - 1 or kind == "halt":
            block.terminator = Halt()
        elif kind == "jump":
            block.terminator = Jump(draw(st.integers(0, n - 1)))
        else:
            cond = block.dfg.add(
                Opcode.LT, (block.dfg.const(0), block.dfg.const(1))
            )
            block.terminator = Branch(
                cond, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            )
    return cfg


class TestAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(random_cfg())
    def test_immediate_dominators_match_networkx(self, cfg):
        graph = nx.DiGraph()
        graph.add_nodes_from(b.block_id for b in cfg.blocks)
        graph.add_edges_from(cfg.edges())
        ours = cfg.immediate_dominators()
        theirs = nx.immediate_dominators(graph, cfg.entry)
        # Older networkx releases map the root to itself.
        theirs.pop(cfg.entry, None)
        assert ours.pop(cfg.entry) is None
        # Both cover exactly the blocks reachable from the entry.
        assert ours == theirs

    @settings(max_examples=60, deadline=None)
    @given(random_cfg())
    def test_immediate_post_dominators_match_networkx(self, cfg):
        # Post-dominators are dominators of the reversed graph, rooted at
        # a virtual exit that follows every Halt.
        graph = nx.DiGraph()
        graph.add_edges_from((dst, src) for src, dst in cfg.edges())
        graph.add_edges_from(("exit", b.block_id) for b in cfg.blocks
                             if isinstance(b.terminator, Halt))
        theirs = nx.immediate_dominators(graph, "exit")
        ours = cfg.immediate_post_dominators()
        assert set(ours) == set(theirs) - {"exit"}
        for bid, ipdom in ours.items():
            assert ipdom == (None if theirs[bid] == "exit" else theirs[bid])

    @settings(max_examples=60, deadline=None)
    @given(random_cfg())
    def test_back_edge_targets_dominate_sources(self, cfg):
        dom = cfg.dominators()
        for src, dst in cfg.back_edges():
            assert dst in dom[src]

"""Unit + property tests for the DynamicTrace edge table."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.trace import DynamicTrace
from repro.workloads import ALL_WORKLOADS


def trace_of(sequence):
    """The trace of executing ``sequence`` (its consecutive pairs)."""
    return DynamicTrace("t", sequence[0],
                        Counter(zip(sequence, sequence[1:])))


def run_heads(sequence):
    """The block of each maximal stretch of one block, in order."""
    return [b for i, b in enumerate(sequence)
            if i == 0 or sequence[i - 1] != b]


class TestRecording:
    def test_exec_counts(self):
        trace = DynamicTrace("t", 0, {(0, 1): 2, (1, 0): 1, (1, 1): 1})
        assert trace.exec_counts == {0: 2, 1: 3}
        assert trace.total_block_execs == 5
        assert trace.execs_of(1) == 3
        assert trace.execs_of(9) == 0

    def test_edge_counts(self):
        trace = trace_of([0, 1, 2, 1, 2, 2])
        assert trace.edge_counts == {(0, 1): 1, (1, 2): 2, (2, 1): 1,
                                     (2, 2): 1}

    def test_finish_idempotent_on_empty(self):
        # A kernel that halts in its entry block takes no transfer.
        trace = DynamicTrace("t", 3, {})
        assert trace.edge_counts == {}
        assert trace.exec_counts == {3: 1}
        assert trace.total_block_execs == 1
        assert DynamicTrace.from_payload(trace.to_payload()).exec_counts \
            == {3: 1}

    def test_validate_consistency(self):
        trace = trace_of([3, 3, 4, 3, 4, 3])
        columns = Counter()
        for (_src, dst), n in trace.edge_counts.items():
            columns[dst] += n
        columns[trace.entry] += 1
        assert trace.exec_counts == dict(columns)
        assert trace.total_block_execs == \
            1 + sum(trace.edge_counts.values())


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_runs_always_reconstruct_sequence(self, sequence):
        trace = trace_of(sequence)
        assert trace.exec_counts == dict(Counter(sequence))
        assert trace.total_block_execs == len(sequence)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_no_adjacent_runs_share_block(self, sequence):
        # Bursts of a block are its executions minus its self-edges.
        trace = trace_of(sequence)
        runs = Counter(run_heads(sequence))
        for block in set(sequence):
            assert runs[block] == trace.execs_of(block) - \
                trace.edge_counts.get((block, block), 0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=100))
    def test_edges_equal_run_boundaries(self, sequence):
        trace = trace_of(sequence)
        between = sum(n for (src, dst), n in trace.edge_counts.items()
                      if src != dst)
        assert between == len(run_heads(sequence)) - 1
        assert sum(trace.edge_counts.values()) == len(sequence) - 1


class TestPayload:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    def test_round_trip_keeps_entry_and_table(self, sequence):
        trace = trace_of(sequence)
        payload = json.loads(json.dumps(trace.to_payload()))
        back = DynamicTrace.from_payload(payload)
        assert back.kernel == trace.kernel
        assert back.entry == trace.entry
        assert back.edge_counts == trace.edge_counts
        assert back.exec_counts == trace.exec_counts

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=lambda w: w.short)
    def test_small_payload_is_under_one_kib(self, workload):
        payload = workload.instance("small").run().trace.to_payload()
        assert len(json.dumps(payload)) < 1024

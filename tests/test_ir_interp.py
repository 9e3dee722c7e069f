"""Unit + property tests for the functional interpreter.

The compiled (per-block template JIT) and walking (op-by-op) engines are
cross-checked on randomly generated kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InterpreterError
from repro.ir.builder import KernelBuilder
from repro.ir.interp import Interpreter


class TestBasics:
    def test_missing_param_raises(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="missing parameters"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros(4), "y": np.zeros(4)}
            )

    def test_missing_array_raises(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="missing array"):
            Interpreter(saxpy_kernel).run({"x": np.zeros(4)}, {"n": 4})

    def test_non_1d_array_rejected(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="1-D"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros((2, 2)), "y": np.zeros(4)}, {"n": 4}
            )

    def test_memory_is_copied(self, saxpy_kernel):
        x = np.ones(4, dtype=np.int64)
        y = np.ones(4, dtype=np.int64)
        Interpreter(saxpy_kernel).run({"x": x, "y": y}, {"n": 4})
        assert list(y) == [1, 1, 1, 1]  # caller's array untouched

    def test_out_of_bounds_load(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros(2), "y": np.zeros(2)}, {"n": 5}
            )

    def test_max_steps_guard(self):
        k = KernelBuilder("spin")
        k.set("x", 1)
        with k.while_(lambda: k.get("x") > 0):
            k.set("x", k.get("x") + 1)
        with pytest.raises(InterpreterError, match="exceeded"):
            Interpreter(k.build()).run({}, max_steps=100)

    def test_unknown_engine(self, saxpy_kernel):
        with pytest.raises(InterpreterError):
            Interpreter(saxpy_kernel, engine="quantum")

    def test_result_exposes_env_and_steps(self, saxpy_kernel):
        result = Interpreter(saxpy_kernel).run(
            {"x": np.arange(3), "y": np.zeros(3)}, {"n": 3}
        )
        assert result.env["i"] == 3
        assert result.steps == result.trace.total_block_execs


class TestTrace:
    def test_trace_counts_match(self, imperfect_kernel, spmv_inputs):
        memory, params, expected = spmv_inputs
        result = Interpreter(imperfect_kernel).run(memory, params)
        assert np.array_equal(result.array("out"), expected)
        # Outer loop body executes once per row.
        bodies = [
            b.block_id for b in imperfect_kernel.blocks
            if b.name == "loop_i1_body"
        ]
        assert result.trace.execs_of(bodies[0]) == 4

    def test_edge_counts_sum_to_transitions(self, branchy_kernel):
        result = Interpreter(branchy_kernel).run(
            {"a": np.arange(8), "b": np.arange(8)[::-1].copy(),
             "o": np.zeros(8)}, {"n": 8},
        )
        trace = result.trace
        assert trace.entry == branchy_kernel.entry
        assert result.steps == trace.total_block_execs \
            == 1 + sum(trace.edge_counts.values())


@st.composite
def random_kernel_and_memory(draw):
    """A random straight-line + loop + branch kernel over small arrays."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    k = KernelBuilder("fuzz")
    size = k.param("n")
    k.array("a")
    k.array("o")
    ops = draw(st.lists(
        st.sampled_from(["add", "mul", "sub", "min", "branch"]),
        min_size=1, max_size=5,
    ))
    with k.loop("i", 0, size) as i:
        value = k.load("a", i)
        for op in ops:
            if op == "add":
                value = value + 3
            elif op == "mul":
                value = value * 2
            elif op == "sub":
                value = value - 1
            elif op == "min":
                value = k.minimum(value, 100)
            else:
                with k.branch(value > 10) as br:
                    k.set("t", value - 10)
                with br.orelse():
                    k.set("t", value)
                value = k.get("t")
        k.store("o", i, value)
    cdfg = k.build()
    rng = np.random.default_rng(seed)
    memory = {
        "a": rng.integers(-50, 50, n),
        "o": np.zeros(n, dtype=np.int64),
    }
    return cdfg, memory, {"n": n}


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(random_kernel_and_memory())
    def test_compiled_matches_walking(self, case):
        cdfg, memory, params = case
        compiled = Interpreter(cdfg, engine="compiled").run(memory, params)
        walking = Interpreter(cdfg, engine="walking").run(memory, params)
        assert np.array_equal(compiled.array("o"), walking.array("o"))
        assert compiled.trace.edge_counts == walking.trace.edge_counts
        assert compiled.trace.exec_counts == walking.trace.exec_counts
        assert compiled.steps == walking.steps
        assert compiled.env == walking.env

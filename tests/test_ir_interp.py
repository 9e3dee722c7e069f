"""Unit + property tests for the functional interpreter.

The compiled engine (one generated Python function per kernel, over
list-backed int64/float64 memory, with innermost loops as Python
``while`` loops) is cross-checked against the walking engine (op by op
over numpy memory) on kernels drawn by the shared :mod:`kernel_fuzz`
strategy, errors included, and on named cases for the store, bounds,
read-before-assignment and step-budget semantics that list-backed
memory and structured control flow must keep, and for the values that
must not count as proven Python ints: bools and parameters passed as
anything but an ``int``.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from kernel_fuzz import graph_kernels, kernels
from repro.errors import InterpreterError, IRError
from repro.ir.builder import KernelBuilder
from repro.ir.interp import (Interpreter, _LIST_KINDS, _Layout, _compiled,
                             _proven_ints)
from repro.ir.ops import Opcode
from repro.workloads import get_workload
from repro.workloads.suite import ALL_WORKLOADS


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

    def test_compiled_kernel_cache_frees_a_discarded_kernel(self):
        k = KernelBuilder("ephemeral")
        k.array("o")
        k.store("o", 0, 1)
        cdfg = k.build()
        Interpreter(cdfg).run({"o": np.zeros(1, dtype=np.int64)})
        alive = weakref.ref(cdfg)
        del cdfg
        gc.collect()
        assert alive() is None

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


def _outcome(cdfg, memory, params, engine, max_steps=50_000_000):
    """Everything a run shows: the result, or the error's type and text."""
    try:
        result = Interpreter(cdfg, engine=engine).run(memory, params,
                                                      max_steps=max_steps)
    except Exception as error:  # the law compares failures too
        return type(error), str(error)
    return (
        result.steps,
        result.trace.edge_counts,
        {name: (type(v), repr(v)) for name, v in result.env.items()},
        {name: (a.dtype, a.tobytes()) for name, a in result.memory.items()},
    )


def _assert_engines_agree(cdfg, memory, params, max_steps=50_000_000):
    compiled = _outcome(cdfg, memory, params, "compiled", max_steps)
    assert compiled == _outcome(cdfg, memory, params, "walking", max_steps)
    return compiled


class TestEngineEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(kernels())
    def test_compiled_matches_walking(self, case):
        _assert_engines_agree(*case)

    @settings(max_examples=150, deadline=None)
    @given(graph_kernels())
    def test_compiled_matches_walking_on_any_graph(self, case):
        # Irreducible, multi-exit and never-halting graphs place many
        # blocks outside the structured rules; the budget ends a spin.
        _assert_engines_agree(*case, max_steps=300)

    def test_non_finite_constants(self):
        # inf, -inf and nan have no literal spelling in Python source.
        k = KernelBuilder("nonfinite")
        k.array("x")
        k.array("o")
        with k.loop("i", 0, 2) as i:
            x = k.load("x", i)
            k.store("o", i, k.minimum(x, float("inf")))
            k.store("o", i + 2, k.maximum(x, float("-inf")))
            k.store("o", i + 4, x + float("nan"))
        cdfg = k.build()
        memory = {"x": np.array([1.5, -2.0]), "o": np.zeros(6)}
        _assert_engines_agree(cdfg, memory, {})
        result = Interpreter(cdfg).run(memory)
        assert list(result.array("o")[:4]) == [1.5, -2.0, 1.5, -2.0]
        assert np.isnan(result.array("o")[4:]).all()

    @pytest.mark.parametrize("engine", ["compiled", "walking"])
    def test_int_and_float_constants_stay_apart(self, engine):
        # 2 == 2.0, but an int divisor divides C-style and a float does not.
        k = KernelBuilder("halves")
        x = k.param("x")
        k.set("a", x / 2)
        k.set("b", x / 2.0)
        env = Interpreter(k.build(), engine=engine).run({}, {"x": 7}).env
        assert (repr(env["a"]), repr(env["b"])) == ("3", "3.5")

    @pytest.mark.parametrize("engine", ["compiled", "walking"])
    def test_signed_zero_constants_stay_apart(self, engine):
        # 0.0 == -0.0, but they multiply to zeros of different signs.
        k = KernelBuilder("zeros")
        x = k.param("x")
        k.set("p", x * 0.0)
        k.set("q", x * -0.0)
        env = Interpreter(k.build(), engine=engine).run({}, {"x": 7.0}).env
        assert (repr(env["p"]), repr(env["q"])) == ("0.0", "-0.0")

    def test_forty_deep_loop_nest(self):
        # One Python while loop at most: CPython refuses more than 20
        # statically nested loops, and the builder nests 40.
        k = KernelBuilder("deep")
        k.array("o")
        k.set("s", 0)
        with contextlib.ExitStack() as nest:
            for depth in range(40):
                nest.enter_context(
                    k.loop(f"i{depth}", 0, 2 if depth >= 37 else 1))
                k.set("s", k.get("s") + depth)
        k.store("o", 0, k.get("s"))
        cdfg = k.build()
        assert len(_Layout(cdfg).heads) == 40  # the entry + 39 outer heads
        memory = {"o": np.zeros(1, dtype=np.int64)}
        _assert_engines_agree(cdfg, memory, {})
        # Level d adds d once per trip of its loop: 2 ** (d - 36) trips
        # from level 37 down.
        assert Interpreter(cdfg).run(memory).array("o")[0] == sum(
            d * 2 ** max(0, d - 36) for d in range(40))

    def test_deep_branch_nest(self):
        # Structured code nests an if per branch, and Python refuses
        # more than 100 indentation levels: the deepest ones dispatch.
        k = KernelBuilder("nested_ifs")
        k.array("o")
        k.set("s", 0)
        with contextlib.ExitStack() as nest:
            for _ in range(120):
                nest.enter_context(k.branch(k.get("s") >= 0))
                k.set("s", k.get("s") + 1)
        k.store("o", 0, k.get("s"))
        memory = {"o": np.zeros(1, dtype=np.int64)}
        outcome = _assert_engines_agree(k.build(), memory, {})
        assert outcome[-1]["o"][1] == np.array([120]).tobytes()


def _store_kernel(dtype=np.int64):
    """``o[i] = v; x = o[i]`` for runtime parameters ``i`` and ``v``."""
    k = KernelBuilder("poke")
    k.array("o")
    i = k.param("i")
    k.store("o", i, k.param("v"))
    k.set("x", k.load("o", i))
    return k.build(), {"o": np.zeros(2, dtype=dtype)}


def _load_kernel():
    """``x = o[i]`` for a runtime parameter ``i``."""
    k = KernelBuilder("peek")
    k.array("o")
    k.set("x", k.load("o", k.param("i")))
    return k.build(), {"o": np.zeros(2, dtype=np.int64)}


def _loop_load_kernel():
    """``x += o[i + j]`` in the body of a loop over ``j``."""
    k = KernelBuilder("sweep")
    k.array("o")
    k.set("x", 0)
    with k.loop("j", 0, 2) as j:
        k.set("x", k.get("x") + k.load("o", k.param("i") + j))
    return k.build(), {"o": np.zeros(2, dtype=np.int64)}


class TestListBackedSemantics:
    """int64/float64 arrays run as lists; numpy's store rules still hold."""

    @pytest.mark.parametrize("value, error", [
        (2**63, OverflowError),
        (-2**63 - 1, OverflowError),
        (1e30, OverflowError),
        (float("nan"), ValueError),
        (float("inf"), OverflowError),
        (float("-inf"), OverflowError),
    ])
    def test_int64_store_out_of_range_raises(self, value, error):
        # The store itself raises, though a later store overwrites it.
        k = KernelBuilder("poke_twice")
        k.array("o")
        i = k.param("i")
        k.store("o", i, k.param("v"))
        k.store("o", i, 0)
        memory = {"o": np.zeros(2, dtype=np.int64)}
        outcome = _assert_engines_agree(k.build(), memory,
                                        {"i": 0, "v": value})
        assert outcome[0] is error

    @pytest.mark.parametrize("value, stored", [
        (3.7, 3), (-3.7, -3), (True, 1), (2**63 - 1, 2**63 - 1),
        (-2**63, -2**63), (np.float64(2.5), 2),
    ])
    def test_int64_store_converts_like_numpy(self, value, stored):
        cdfg, memory = _store_kernel()
        _assert_engines_agree(cdfg, memory, {"i": 1, "v": value})
        result = Interpreter(cdfg).run(memory, {"i": 1, "v": value})
        out = result.array("o")
        assert out.dtype == np.int64 and out[1] == stored
        assert type(result.env["x"]) is int and result.env["x"] == stored

    @pytest.mark.parametrize("value", [3, True, 2**70, float("nan"),
                                       float("-inf")])
    def test_float64_store_converts_like_numpy(self, value):
        cdfg, memory = _store_kernel(np.float64)
        _assert_engines_agree(cdfg, memory, {"i": 0, "v": value})
        result = Interpreter(cdfg).run(memory, {"i": 0, "v": value})
        out = result.array("o")
        assert out.dtype == np.float64
        assert out.tobytes() == np.array([float(value), 0.0]).tobytes()
        assert type(result.env["x"]) is float

    def test_int32_store_out_of_range_raises(self):
        cdfg, memory = _store_kernel(np.int32)
        with pytest.raises(OverflowError):
            Interpreter(cdfg).run(memory, {"i": 0, "v": 2**31})
        _assert_engines_agree(cdfg, memory, {"i": 0, "v": 2**31})

    def test_float32_store_rounds(self):
        cdfg, memory = _store_kernel(np.float32)
        out = Interpreter(cdfg).run(memory, {"i": 0, "v": 3.7}).array("o")
        assert out.dtype == np.float32 and out[0] == np.float32(3.7)
        _assert_engines_agree(cdfg, memory, {"i": 0, "v": 3.7})

    @pytest.mark.parametrize("dtype, kind", [(np.int32, int),
                                             (np.float32, float)])
    def test_narrow_dtype_load_yields_a_python_scalar(self, dtype, kind):
        # Fuzzer counterexample: a load from numpy storage once skipped
        # .item() and leaked a numpy scalar into the environment.
        k = KernelBuilder("narrow")
        k.array("o")
        k.set("x", k.load("o", 1))
        cdfg = k.build()
        memory = {"o": np.array([1, 7], dtype=dtype)}
        env = Interpreter(cdfg).run(memory).env
        assert type(env["x"]) is kind and env["x"] == 7
        _assert_engines_agree(cdfg, memory, {})

    @pytest.mark.parametrize("a, b", [
        (float("nan"), 1.0), (1.0, float("nan")), (1, 1.0), (1.0, 1),
        (-0.0, 0.0), (0.0, -0.0),
    ])
    def test_min_max_keep_python_semantics(self, a, b):
        k = KernelBuilder("minmax")
        x, y = k.param("a"), k.param("b")
        k.set("lo", k.minimum(x, y))
        k.set("hi", k.maximum(x, y))
        cdfg = k.build()
        env = Interpreter(cdfg).run({}, {"a": a, "b": b}).env
        for got, want in ((env["lo"], min(a, b)), (env["hi"], max(a, b))):
            assert (type(got), repr(got)) == (type(want), repr(want))
        _assert_engines_agree(cdfg, {}, {"a": a, "b": b})

    @pytest.mark.parametrize("index", [-1, 2])
    @pytest.mark.parametrize("kernel", [_store_kernel, _load_kernel,
                                        _loop_load_kernel])
    def test_out_of_bounds_names_kernel_block_and_array(self, kernel,
                                                         index):
        cdfg, memory = kernel()
        params = {"i": index, "v": 1}
        with pytest.raises(InterpreterError) as excinfo:
            Interpreter(cdfg).run(memory, params)
        block = "loop_j1_body" if kernel is _loop_load_kernel else "entry"
        assert str(excinfo.value) == (
            f"{cdfg.name}/{block}: out-of-bounds access o[{index}]"
        )
        _assert_engines_agree(cdfg, memory, params)

    def test_read_before_assignment_names_the_variable(self):
        k = KernelBuilder("unset")
        with k.branch(k.param("c")):
            k.set("x", 1)
        k.set("y", k.get("x") + 1)
        cdfg = k.build()
        assert Interpreter(cdfg).run({}, {"c": 1}).env["y"] == 2
        with pytest.raises(InterpreterError) as excinfo:
            Interpreter(cdfg).run({}, {"c": 0})
        assert str(excinfo.value) == (
            "unset/br1_merge: variable 'x' read before assignment"
        )
        _assert_engines_agree(cdfg, {}, {"c": 0})
        # Inside a loop body, which the compiled engine runs as a while
        # loop within the entry's region.
        k = KernelBuilder("unset_in_loop")
        with k.loop("i", 0, 2):
            k.set("y", k.get("x") + 1)
            k.set("x", 1)
        cdfg = k.build()
        with pytest.raises(InterpreterError) as excinfo:
            Interpreter(cdfg).run({})
        assert str(excinfo.value) == (
            "unset_in_loop/loop_i1_body: variable 'x' read before "
            "assignment"
        )
        _assert_engines_agree(cdfg, {}, {})

    def test_max_steps_boundary_is_exact(self, saxpy_kernel):
        vi = get_workload("vi").instance("tiny")
        cases = [
            (saxpy_kernel, {"x": np.arange(3),
                            "y": np.zeros(3, dtype=np.int64)}, {"n": 3}),
            # most of VI's steps run inside compiled while loops
            (vi.cdfg, vi.memory, vi.params),
        ]
        for cdfg, memory, params in cases:
            steps = Interpreter(cdfg).run(memory, params).steps
            for engine in ("compiled", "walking"):
                run = Interpreter(cdfg, engine=engine).run
                assert run(memory, params, max_steps=steps).steps == steps
                with pytest.raises(InterpreterError, match="exceeded"):
                    run(memory, params, max_steps=steps - 1)


class TestProvenInts:
    """``int()`` is skipped only on values proven to be exact ints."""

    def test_bool_literal_index_reads_as_one(self):
        # list[True] is list[1], but the error must name x[1].
        k = KernelBuilder("flag_index")
        k.array("x")
        k.set("v", k.load("x", True))
        cdfg = k.build()
        memory = {"x": np.zeros(1, dtype=np.int64)}
        for engine in ("compiled", "walking"):
            with pytest.raises(InterpreterError) as excinfo:
                Interpreter(cdfg, engine=engine).run(memory)
            assert str(excinfo.value) == (
                "flag_index/entry: out-of-bounds access x[1]")

    @pytest.mark.parametrize("index, outcome", [
        (1.9, 20), (-0.5, 10), (2.5, "out-of-bounds access o[2]"),
    ])
    def test_float_parameter_index_truncates(self, index, outcome):
        cdfg, _ = _load_kernel()
        memory = {"o": np.array([10, 20], dtype=np.int64)}
        got = _assert_engines_agree(cdfg, memory, {"i": index})
        if isinstance(outcome, str):
            assert got[0] is InterpreterError and got[1].endswith(outcome)
        else:
            assert got[2]["x"] == (int, repr(outcome))

    def test_int_then_float_parameter(self):
        # The compiled function proves n an int only for a call that
        # passes one; n = 3.0 must not reuse that function.
        k = KernelBuilder("last")
        k.array("o")
        n = k.param("n")
        k.store("o", n - 1, n)
        k.set("x", k.load("o", n - 1))
        cdfg = k.build()
        memory = {"o": np.zeros(3, dtype=np.int64)}
        for size in (3, 3.0):
            outcome = _assert_engines_agree(cdfg, memory, {"n": size})
            assert outcome[2]["x"] == (int, "3")

    @pytest.mark.parametrize("divisor", [3, 1, -3, 0])
    def test_division_by_a_literal_truncates(self, divisor):
        # An int divided by an int literal above zero divides inline;
        # any other divisor keeps the helper and its zero-divisor error.
        k = KernelBuilder("divide")
        for name in ("a", "q", "r"):
            k.array(name)
        with k.loop("i", 0, 4) as i:
            a = k.load("a", i)
            k.store("q", i, a / divisor)
            k.store("r", i, a % divisor)
        dividends = [-7, 7, -6, 0]
        memory = {name: np.array(dividends if name == "a" else [0] * 4,
                                 dtype=np.int64) for name in ("a", "q", "r")}
        outcome = _assert_engines_agree(k.build(), memory, {})
        if divisor == 0:
            assert outcome == (IRError, "division by zero in DFG evaluation")
            return
        quotients = [int(a / divisor) for a in dividends]  # toward zero
        remainders = [a - q * divisor for a, q in zip(dividends, quotients)]
        assert outcome[-1]["q"][1] == np.array(quotients).tobytes()
        assert outcome[-1]["r"][1] == np.array(remainders).tobytes()

    def test_workload_memory_traffic_is_proven_int(self):
        # Every built-in kernel indexes memory and fills its int64
        # arrays with values the type pass proves int.
        unproven = []
        for workload in ALL_WORKLOADS:
            inst = workload.instance("tiny")
            cdfg = inst.cdfg
            kind_of = {name: _LIST_KINDS.get(inst.memory[name].dtype,
                                             "numpy")
                       for name in cdfg.arrays}
            loose = frozenset(name for name, value in inst.params.items()
                              if type(value) is not int)
            ints = _proven_ints(cdfg, kind_of, loose)
            for block in cdfg.blocks:
                for node in block.dfg.nodes:
                    checked = []
                    if node.opcode in (Opcode.LOAD, Opcode.STORE):
                        checked.append(("index", node.operands[0]))
                    if node.opcode is Opcode.STORE and \
                            kind_of[node.array] == "int":
                        checked.append(("value", node.operands[1]))
                    unproven.extend(
                        f"{workload.short} {block.name} n{node.node_id} "
                        f"{node.opcode.name} {node.array} {what}"
                        for what, operand in checked
                        if operand not in ints[block.block_id])
        assert not unproven, "not proven int: " + "; ".join(unproven)

    def test_hough_divides_inline(self):
        inst = get_workload("ht").instance("tiny")
        cdfg = inst.cdfg
        kinds = tuple(_LIST_KINDS[inst.memory[name].dtype]
                      for name in cdfg.arrays)
        ints = _proven_ints(cdfg, dict(zip(cdfg.arrays, kinds)), frozenset())
        divisions = [(block, node) for block in cdfg.blocks
                     for node in block.dfg.nodes if node.opcode is Opcode.DIV]
        assert [block.dfg.nodes[node.operands[1]].value
                for block, node in divisions] == [256]
        (block, node), = divisions
        assert node.operands[0] in ints[block.block_id]
        kernel = _compiled(cdfg, kinds, frozenset())
        assert "_DIV" not in kernel.__code__.co_names

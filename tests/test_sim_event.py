"""Differential tests: event-driven stepping vs the naive reference.

``ArraySimulator(strategy="event")`` must be *indistinguishable* from
``strategy="naive"`` — identical cycle counts, identical
:class:`ArrayStats` (every per-PE counter included), and identical
scratchpad images and access counters — on every workload shape the
configuration generator can map, under truncated runs, and under
randomized timing parameters.  The naive stepper polls every PE every
cycle, so any event the fast path's scheduler misses shows up here as a
divergence.

The batch classes extend the same law to many members of one compiled
program: at sizes 1, 2 and 8, with per-member data, every member's
event run must equal its own naive run while all of the members'
simulators share the program's PE tables.

Generated single-loop kernels (``kernel_fuzz.loop_kernels``) hold the
configuration generator to its class: a drawn kernel is either refused
with a ``CompilationError``, or its event run finishes within a small
cycle budget, equals the naive run, and matches the interpreter.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings

from dataclasses import replace

from repro.arch.params import ArchParams
from repro.compiler.config_gen import generate_program
from repro.errors import CompilationError, SimulationError
from repro.ir.builder import KernelBuilder
from repro.ir.interp import Interpreter
from repro.ir.ops import Opcode
from repro.isa.control import ControlDirective
from repro.isa.data import DataInstruction
from repro.isa.operands import Dest, Operand
from repro.isa.program import ArrayProgram, TriggerEntry
from repro.sim.array import ArraySimulator

from kernel_fuzz import loop_kernels
from test_sim_array import branch_program, vec_mul_program

BATCH_SIZES = (1, 2, 8)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _loaded(params, program, arrays, strategy):
    sim = ArraySimulator(params, program, strategy=strategy)
    for name, values in (arrays or {}).items():
        sim.load_array(name, values)
    return sim


def run_both(params, program, arrays=None, *, halt_messages=999,
             max_cycles=200_000):
    """One naive and one event simulation of the same program."""
    results = {}
    for strategy in ("naive", "event"):
        sim = _loaded(params, program, arrays, strategy)
        results[strategy] = sim.run(
            halt_messages=halt_messages, max_cycles=max_cycles
        )
    return results["naive"], results["event"]


def assert_batch_matches_naive(params, program, member_arrays, *,
                               halt_messages=999, max_cycles=200_000):
    """Build a naive and an event simulator for every member over the one
    shared program before any of them runs, then run them all: each
    member's event run must equal its naive run, so no state leaks
    between live simulators through the program's PE tables."""
    members = [
        (_loaded(params, program, arrays, "naive"),
         _loaded(params, program, arrays, "event"))
        for arrays in member_arrays
    ]
    assert len(members) == len(member_arrays)
    for naive_sim, event_sim in members:
        naive = naive_sim.run(halt_messages=halt_messages,
                              max_cycles=max_cycles)
        event = event_sim.run(halt_messages=halt_messages,
                              max_cycles=max_cycles)
        assert_identical(naive, event)


def assert_identical(naive, event):
    """Cycle counts, stats, and memory must match bit-for-bit."""
    assert event.cycles == naive.cycles
    assert event.halted == naive.halted
    assert event.stats == naive.stats  # pe_stats + network counters
    assert event.scratchpad.data == naive.scratchpad.data
    assert event.scratchpad.reads == naive.scratchpad.reads
    assert event.scratchpad.writes == naive.scratchpad.writes
    assert event.scratchpad.bank_conflicts == naive.scratchpad.bank_conflicts


# ----------------------------------------------------------------------
# The workload suite, as single-loop kernels the config generator maps.
# Each entry is the innermost-loop body shape of one suite benchmark
# (richer control flow is priced by the trace-driven models; the array
# simulator validates the class config_gen supports end to end).
# ----------------------------------------------------------------------
def _ints(rng, n, lo=1, hi=50):
    return rng.integers(lo, hi, n)


def _gemm(n, rng):
    """Dot-product MAC with a register accumulator (GEMM inner loop)."""
    k = KernelBuilder("gemm_mac")
    size = k.param("n")
    k.array("a")
    k.array("b")
    k.array("o")
    k.set("acc", 0)
    with k.loop("i", 0, size) as i:
        k.set("acc", k.get("acc") + k.load("a", i) * k.load("b", i))
        k.store("o", i, k.get("acc"))
    return k.build(), {"a": _ints(rng, n), "b": _ints(rng, n)}


def _fft(n, rng):
    """Radix-2 butterfly: sum and difference combine (FFT inner loop)."""
    k = KernelBuilder("fft_butterfly")
    size = k.param("n")
    k.array("re")
    k.array("im")
    k.array("o")
    with k.loop("i", 0, size) as i:
        a = k.load("re", i)
        b = k.load("im", i)
        k.store("o", i, (a + b) * (a - b))
    return k.build(), {"re": _ints(rng, n), "im": _ints(rng, n)}


def _viterbi(n, rng):
    """Add-compare-select over two path metrics (Viterbi ACS)."""
    k = KernelBuilder("viterbi_acs")
    size = k.param("n")
    k.array("p0")
    k.array("p1")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.minimum(k.load("p0", i) + 3,
                                  k.load("p1", i) + 5))
    return k.build(), {"p0": _ints(rng, n), "p1": _ints(rng, n)}


def _ldpc(n, rng):
    """Min-magnitude check-node update (LDPC min-sum)."""
    k = KernelBuilder("ldpc_minsum")
    size = k.param("n")
    k.array("a")
    k.array("b")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.minimum(k.absolute(k.load("a", i)),
                                  k.absolute(k.load("b", i))))
    return k.build(), {"a": _ints(rng, n, -20, 20), "b": _ints(rng, n, -20, 20)}


def _conv1d(n, rng):
    """Two-tap multiply-accumulate (1-D convolution body)."""
    k = KernelBuilder("conv1d_tap")
    size = k.param("n")
    k.array("x")
    k.array("h")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.load("x", i) * 2 + k.load("h", i) * 3)
    return k.build(), {"x": _ints(rng, n), "h": _ints(rng, n)}


def _crc(n, rng):
    """XOR-and-shift step (CRC bit loop)."""
    k = KernelBuilder("crc_step")
    size = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, (k.load("x", i) ^ 0x5A) >> 1)
    return k.build(), {"x": _ints(rng, n, 0, 255)}


def _gray(n, rng):
    """Binary-to-Gray conversion: x ^ (x >> 1)."""
    k = KernelBuilder("gray_code")
    size = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, size) as i:
        value = k.load("x", i)
        k.store("o", i, value ^ (value >> 1))
    return k.build(), {"x": _ints(rng, n, 0, 255)}


def _sigmoid(n, rng):
    """Nonlinear activation through the fitting PE op."""
    k = KernelBuilder("sigmoid_map")
    size = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.sigmoid(k.load("x", i)))
    return k.build(), {"x": rng.normal(0, 1, n)}


def _adpcm(n, rng):
    """Step-size clamp (ADPCM quantizer body)."""
    k = KernelBuilder("adpcm_clamp")
    size = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.maximum(k.minimum(k.load("x", i), 80), -80))
    return k.build(), {"x": _ints(rng, n, -120, 120)}


def _nw(n, rng):
    """Three-way minimum (Needleman-Wunsch cell update)."""
    k = KernelBuilder("nw_cell")
    size = k.param("n")
    k.array("d")
    k.array("v")
    k.array("o")
    with k.loop("i", 0, size) as i:
        diag = k.load("d", i)
        vert = k.load("v", i)
        k.store("o", i, k.minimum(k.minimum(diag + 1, vert + 1),
                                  diag + vert))
    return k.build(), {"d": _ints(rng, n), "v": _ints(rng, n)}


def _merge_sort(n, rng):
    """Compare-select of two sorted streams (merge step)."""
    k = KernelBuilder("ms_merge")
    size = k.param("n")
    k.array("a")
    k.array("b")
    k.array("o")
    with k.loop("i", 0, size) as i:
        x = k.load("a", i)
        y = k.load("b", i)
        k.store("o", i, k.select(x < y, x, y))
    return k.build(), {"a": _ints(rng, n), "b": _ints(rng, n)}


def _hough(n, rng):
    """Rho-bin distance vote (Hough transform body)."""
    k = KernelBuilder("hough_vote")
    size = k.param("n")
    k.array("cs")
    k.array("sn")
    k.array("o")
    with k.loop("i", 0, size) as i:
        k.store("o", i, k.absolute(k.load("cs", i) - k.load("sn", i)) + 7)
    return k.build(), {"cs": _ints(rng, n), "sn": _ints(rng, n)}


def _sc_decode(n, rng):
    """f-node magnitude combine (successive-cancellation decode)."""
    k = KernelBuilder("sc_fnode")
    size = k.param("n")
    k.array("l0")
    k.array("l1")
    k.array("o")
    with k.loop("i", 0, size) as i:
        a = k.load("l0", i)
        b = k.load("l1", i)
        k.store("o", i, k.minimum(k.absolute(a), k.absolute(b)))
    return k.build(), {"l0": _ints(rng, n, -30, 30), "l1": _ints(rng, n, -30, 30)}


WORKLOAD_KERNELS = {
    "gemm": _gemm,
    "fft": _fft,
    "viterbi": _viterbi,
    "ldpc": _ldpc,
    "conv1d": _conv1d,
    "crc": _crc,
    "gray": _gray,
    "sigmoid": _sigmoid,
    "adpcm": _adpcm,
    "nw": _nw,
    "ms": _merge_sort,
    "hough": _hough,
    "sc": _sc_decode,
}


def _compiled(name, n, rng, params):
    maker = WORKLOAD_KERNELS[name]
    cdfg, inputs = maker(n, rng)
    lengths = {array: n for array in cdfg.arrays}
    program = generate_program(
        cdfg, params, param_values={"n": n}, array_lengths=lengths
    )
    return cdfg, inputs, program


def _member_inputs(name, n, rng, count):
    """``count`` independently drawn input sets for one workload kernel
    (the program is data-independent, so one compile serves them all)."""
    maker = WORKLOAD_KERNELS[name]
    return [maker(n, rng)[1] for _ in range(count)]


def data_branch_program(params, n):
    """loop -> load A[i] -> LT-branch on A[i] steering PE3 -> store.

    The branch outcome depends on the *data*, so different ``A`` images
    take different control schedules through the steered PE."""
    program = ArrayProgram(params.n_pes)
    program.declare_array(0, "A", 0, n)
    program.declare_array(1, "OUT", n, n)
    program.program_for(0).add(TriggerEntry(1, DataInstruction.loop(
        Operand.imm(0), Operand.imm(n), Operand.imm(1),
        (Dest.pe_port(1, 0), Dest.pe_port(4, 1)),
    ), ControlDirective.loop(exit_addr=9, exit_targets=(params.n_pes,))))
    program.program_for(1).add(TriggerEntry(1, DataInstruction.load(
        0, Operand.port(0), (Dest.pe_port(2, 0), Dest.pe_port(3, 0)),
    )))
    program.program_for(2).add(TriggerEntry(1, DataInstruction.compute(
        Opcode.LT, (Operand.port(0), Operand.imm(25)), (Dest.control(),),
    ), ControlDirective.branch(true_addr=2, false_addr=3, targets=(3,))))
    pe3 = program.program_for(3)
    pe3.add(TriggerEntry(2, DataInstruction.compute(
        Opcode.MUL, (Operand.port(0), Operand.imm(2)),
        (Dest.pe_port(4, 0),),
    )))
    pe3.add(TriggerEntry(3, DataInstruction.compute(
        Opcode.ADD, (Operand.port(0), Operand.imm(10)),
        (Dest.pe_port(4, 0),),
    )))
    program.program_for(4).add(TriggerEntry(1, DataInstruction.store(
        1, Operand.port(1), Operand.port(0),
    )))
    for pe, addr in ((0, 1), (1, 1), (2, 1), (3, 2), (4, 1)):
        program.set_initial(pe, addr)
    return program


# ----------------------------------------------------------------------
# The differential suite
# ----------------------------------------------------------------------
class TestWorkloadSuiteEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_KERNELS))
    def test_event_matches_naive(self, params, name):
        n = 17
        rng = np.random.default_rng(11)
        cdfg, inputs, program = _compiled(name, n, rng, params)
        naive, event = run_both(params, program, inputs)
        assert_identical(naive, event)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_KERNELS))
    def test_event_matches_interpreter(self, params, name):
        """The fast path is also functionally right, not just self-
        consistent: outputs match the CDFG interpreter."""
        n = 9
        rng = np.random.default_rng(5)
        cdfg, inputs, program = _compiled(name, n, rng, params)
        memory = dict(inputs)
        for array in cdfg.arrays:
            memory.setdefault(array, np.zeros(n))
        reference = Interpreter(cdfg).run(memory, {"n": n})

        sim = ArraySimulator(params, program, strategy="event")
        for name_, values in inputs.items():
            sim.load_array(name_, values)
        result = sim.run(halt_messages=999)
        for array in cdfg.arrays:
            if array in inputs:
                continue
            assert np.allclose(
                result.array_out(program, array),
                reference.array(array), atol=1e-9,
            ), array


class TestHandwrittenProgramEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    def test_loop_pipeline(self, params, n):
        program = vec_mul_program(params, n)
        arrays = {"A": np.arange(1, n + 1), "B": np.arange(2, n + 2)}
        naive, event = run_both(params, program, arrays)
        assert_identical(naive, event)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_branch_steering(self, params, n):
        naive, event = run_both(params, branch_program(params, n))
        assert_identical(naive, event)

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_data_divergent_branches(self, params, seed):
        """Data-dependent branch outcomes: each element steers PE3 down
        either arm, so the control schedule follows the data."""
        n = 24
        values = np.random.default_rng(seed).integers(0, 50, n)
        naive, event = run_both(params, data_branch_program(params, n),
                                {"A": values})
        assert_identical(naive, event)
        out = naive.scratchpad.dump_array(n, n)
        expected = np.where(values < 25, values * 2, values + 10)
        assert list(out) == list(expected)

    def test_halt_on_first_message(self, params):
        program = vec_mul_program(params, 6)
        arrays = {"A": np.ones(6), "B": np.ones(6)}
        naive, event = run_both(params, program, arrays, halt_messages=1)
        assert naive.halted and event.halted
        assert_identical(naive, event)

    @pytest.mark.parametrize("max_cycles", [1, 2, 13, 37, 64])
    def test_truncated_runs(self, params, max_cycles):
        """Cutting the run mid-flight must truncate both strategies at
        exactly the same state (the skip logic may never jump past
        ``max_cycles``)."""
        program = vec_mul_program(params, 12)
        arrays = {"A": np.ones(12), "B": np.ones(12)}
        naive, event = run_both(params, program, arrays,
                                max_cycles=max_cycles)
        assert naive.cycles == max_cycles
        assert_identical(naive, event)

    def test_zero_trip_loop(self, params):
        cdfg, inputs, program = _compiled(
            "conv1d", 0, np.random.default_rng(0), params
        )
        naive, event = run_both(params, program)
        assert_identical(naive, event)

    def test_fifo_pressure(self, params):
        """Depth-1 control FIFOs force network retries — the retry path
        must stay cycle-identical."""
        tight = replace(params, control_fifo_depth=1)
        rng = np.random.default_rng(3)
        _cdfg, inputs, program = _compiled("gemm", 10, rng, tight)
        naive, event = run_both(tight, program, inputs)
        assert_identical(naive, event)

    def test_quiescence_without_halt(self, params):
        """With no route to the controller the run ends on the idle
        streak — the skip must credit the quiescence window exactly."""
        program = branch_program(params, 5)
        naive, event = run_both(params, program,
                                halt_messages=999)
        assert not naive.halted
        assert_identical(naive, event)


class TestBatchLockstepEquivalence:
    """event == naive on every member of a batch that shares one compiled
    program (per-member data, sizes 1, 2 and 8)."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(WORKLOAD_KERNELS))
    def test_workload_matrix(self, params, name, batch_size):
        n = 9 if batch_size == 8 else 17
        rng = np.random.default_rng(11)
        _cdfg, _inputs, program = _compiled(name, n, rng, params)
        members = _member_inputs(name, n, rng, batch_size)
        assert_batch_matches_naive(params, program, members)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("max_cycles", [1, 2, 13, 37, 64])
    def test_truncated_runs(self, params, max_cycles, batch_size):
        """max-cycles truncation must stop every member's two steppers
        at exactly the same state."""
        n = 12
        program = vec_mul_program(params, n)
        members = [
            {"A": np.arange(1, n + 1) + member,
             "B": np.arange(2, n + 2)}
            for member in range(batch_size)
        ]
        assert_batch_matches_naive(
            params, program, members, max_cycles=max_cycles
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_zero_trip_loop(self, params, batch_size):
        _cdfg, _inputs, program = _compiled(
            "conv1d", 0, np.random.default_rng(0), params
        )
        assert_batch_matches_naive(
            params, program, [{} for _ in range(batch_size)]
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_halt_on_first_message(self, params, batch_size):
        n = 6
        program = vec_mul_program(params, n)
        members = [
            {"A": np.ones(n) * (member + 1), "B": np.ones(n)}
            for member in range(batch_size)
        ]
        assert_batch_matches_naive(
            params, program, members, halt_messages=1
        )

    def test_fifo_pressure(self, params):
        tight = replace(params, control_fifo_depth=1)
        rng = np.random.default_rng(3)
        _cdfg, _inputs, program = _compiled("gemm", 10, rng, tight)
        members = _member_inputs("gemm", 10, rng, 4)
        assert_batch_matches_naive(tight, program, members)


class TestRandomizedParameterEquivalence:
    def test_latency_sweep_never_diverges(self, params):
        """Property test: random timing parameters, program shapes, and
        truncation points — the two strategies must agree bit-for-bit
        on all of them."""
        rng = random.Random(0xA5)
        data_rng = np.random.default_rng(7)
        for _trial in range(25):
            trial_params = ArchParams(
                t_config=rng.randint(1, 4),
                t_execute=rng.randint(1, 5),
                data_net_latency=rng.randint(1, 12),
                ctrl_net_latency=rng.randint(1, 3),
                control_fifo_depth=rng.randint(1, 8),
            )
            n = rng.randint(1, 18)
            halt = rng.choice([1, 999])
            max_cycles = rng.choice([29, 61, 200_000])
            kind = rng.choice(["vec_mul", "branch", "gemm", "ms"])
            if kind == "vec_mul":
                program = vec_mul_program(trial_params, n)
                arrays = {"A": np.arange(1, n + 1),
                          "B": np.arange(2, n + 2)}
            elif kind == "branch":
                program = branch_program(trial_params, n)
                arrays = {}
            else:
                _cdfg, arrays, program = _compiled(
                    kind, n, data_rng, trial_params
                )
            naive, event = run_both(
                trial_params, program, arrays,
                halt_messages=halt, max_cycles=max_cycles,
            )
            assert_identical(naive, event)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_batch_latency_sweep_never_diverges(self, batch_size):
        """The same 25-trial property over batches that share one
        program: random timing parameters, program shapes, truncation
        points, and per-member data — every member's event run must
        match its naive run."""
        rng = random.Random(0xB7 + batch_size)
        data_rng = np.random.default_rng(13)
        for _trial in range(25):
            trial_params = ArchParams(
                t_config=rng.randint(1, 4),
                t_execute=rng.randint(1, 5),
                data_net_latency=rng.randint(1, 12),
                ctrl_net_latency=rng.randint(1, 3),
                control_fifo_depth=rng.randint(1, 8),
            )
            n = rng.randint(1, 12)
            halt = rng.choice([1, 999])
            max_cycles = rng.choice([29, 61, 200_000])
            kind = rng.choice(["vec_mul", "branch", "gemm", "ms"])
            if kind == "vec_mul":
                program = vec_mul_program(trial_params, n)
                members = [
                    {"A": np.arange(1, n + 1) + member,
                     "B": np.arange(2, n + 2)}
                    for member in range(batch_size)
                ]
            elif kind == "branch":
                program = branch_program(trial_params, n)
                members = [{} for _ in range(batch_size)]
            else:
                _cdfg, _arrays, program = _compiled(
                    kind, n, data_rng, trial_params
                )
                members = _member_inputs(kind, n, data_rng, batch_size)
            assert_batch_matches_naive(
                trial_params, program, members,
                halt_messages=halt, max_cycles=max_cycles,
            )


class TestGeneratedLoopKernels:
    #: a drawn kernel runs at most 8 iterations: ~150 cycles
    BUDGET = 4000

    @settings(max_examples=150, deadline=None)
    @given(loop_kernels())
    def test_compiles_to_a_finishing_run_or_is_refused(self, case):
        cdfg, memory, kernel_params = case
        params = ArchParams()
        n = kernel_params["n"]
        try:
            program = generate_program(
                cdfg, params, param_values=kernel_params,
                array_lengths={array: n for array in cdfg.arrays},
            )
        except CompilationError:
            return  # outside the class the array simulator runs
        event = _loaded(params, program, memory, "event").run(
            halt_messages=999, max_cycles=self.BUDGET)
        assert event.cycles < self.BUDGET, "the run never went quiet"
        naive = _loaded(params, program, memory, "naive").run(
            halt_messages=999, max_cycles=self.BUDGET)
        assert_identical(naive, event)
        reference = Interpreter(cdfg).run(memory, kernel_params)
        for array in cdfg.arrays:
            assert np.array_equal(event.array_out(program, array),
                                  reference.array(array)), array


class TestEventStrategySurface:
    def test_event_is_the_default(self, params):
        sim = ArraySimulator(params, vec_mul_program(params, 4))
        assert sim.strategy == "event"

    def test_unknown_strategy_rejected(self, params):
        for strategy in ("turbo", "batch"):
            with pytest.raises(SimulationError, match="strategy"):
                ArraySimulator(params, vec_mul_program(params, 4),
                               strategy=strategy)

    def test_utilization_counters_account_every_cycle(self, params):
        """Lazily billed idle cycles must still sum to the run length
        for every PE (the naive invariant, preserved under skipping)."""
        program = vec_mul_program(params, 8)
        sim = ArraySimulator(params, program, strategy="event")
        sim.load_array("A", np.ones(8))
        sim.load_array("B", np.ones(8))
        result = sim.run(halt_messages=999)
        for stats in result.stats.pe_stats.values():
            assert stats.total_cycles == result.cycles

"""Execution-model tests: mechanisms, invariants, and paper-shape checks.

The per-mechanism tests pin the behaviours the architecture comparison is
built from; the invariant tests sweep every model over every workload,
and five of them also over generated kernels; the scaling tests price
models on square and rectangular arrays of other sizes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import DEFAULT_PARAMS, ArchParams
from repro.baselines import (
    DataflowModel,
    IdealModel,
    MarionetteModel,
    RevelModel,
    RipTideModel,
    SoftbrainModel,
    TIAModel,
    VonNeumannModel,
)
from repro.baselines.base import ArchModel, KernelInstance, ModelConfig
from repro.compiler.place import place_block
from repro.ir.builder import KernelBuilder
from repro.ir.interp import Interpreter
from repro.ir.ops import OpClass
from repro.workloads import ALL_WORKLOADS, INTENSIVE_WORKLOADS, get_workload

from kernel_fuzz import (graph_kernels, kernels as drawn_kernels,
                         loop_kernels, priced)

#: Draws from every generator: the simulator's loop class, builder nests
#: with the hand-built shapes, and arbitrary graphs.
GENERATED = st.one_of(loop_kernels(), drawn_kernels(), graph_kernels())


@pytest.fixture(scope="module")
def kernels():
    out = {}
    for workload in ALL_WORKLOADS:
        instance = workload.instance("tiny")
        result = instance.run()
        out[workload.short] = KernelInstance(instance.cdfg, result.trace)
    return out


@pytest.fixture(scope="module")
def all_models():
    params = ArchParams()
    return {
        "vN": VonNeumannModel(params),
        "df": DataflowModel(params),
        "mPE": MarionetteModel(params, control_network=False, agile=False),
        "full": MarionetteModel(params),
        "SB": SoftbrainModel(params),
        "TIA": TIAModel(params),
        "REV": RevelModel(params),
        "RIP": RipTideModel(params),
        "ideal": IdealModel(params),
    }


@pytest.fixture(scope="module")
def feature_ladder():
    """Marionette with neither feature, with the control network, and
    with both."""
    params = ArchParams()
    return {
        "base": MarionetteModel(params, control_network=False, agile=False),
        "cn": MarionetteModel(params, control_network=True, agile=False),
        "full": MarionetteModel(params),
    }


class TestMechanisms:
    def test_recurrence_detected_for_crc_like(self, kernels):
        crc = kernels["CRC"]
        inner = [n for n in crc.nests.values() if not n.children][0]
        assert crc.recurrence_of(inner) > 0

    def test_crc_byte_loop_threads_through_bit_loop(self, kernels):
        crc = kernels["CRC"]
        outer = [n for n in crc.nests.values() if n.children][0]
        assert crc.threaded_recurrence(outer) > 0

    def test_gemm_accumulator_is_free(self, kernels):
        gemm = kernels["GEMM"]
        inner = [n for n in gemm.nests.values() if not n.children][0]
        assert gemm.recurrence_of(inner) == 0
        for nest in gemm.nests.values():
            if nest.children:
                assert gemm.threaded_recurrence(nest) == 0

    def test_fft_stage_counters_are_generators(self, kernels):
        fft = kernels["FFT"]
        for nest in fft.nests.values():
            if nest.children:
                assert fft.threaded_recurrence(nest) == 0

    def test_viterbi_min_recurrence_colocates(self, kernels):
        vi = kernels["VI"]
        params = ArchParams()
        model = MarionetteModel(params)
        inner = [
            n for n in vi.nests.values()
            if not n.children and vi.recurrence_of(n) > 0
        ]
        assert inner, "viterbi should have a carried min"
        # chain == t_execute -> colocated: II equals the chain, untaxed.
        assert model.recurrence_ii(vi, inner[0]) == params.t_execute

    def test_ldpc_sibling_loops_are_serial(self, kernels):
        ldpc = kernels["LDPC"]
        siblings = [
            n for n in ldpc.nests.values()
            if n.parent is not None and ldpc.serial_sibling(n)
        ]
        assert siblings, "LDPC's min pass feeds its update pass"

    def test_dynamic_bounds_detected(self, kernels):
        gemm = kernels["GEMM"]
        assert all(
            not gemm.dynamic_bounds(nest) for nest in gemm.nests.values()
        )
        ms = kernels["MS"]
        assert any(ms.dynamic_bounds(nest) for nest in ms.nests.values())

    def test_dataflow_ii_exceeds_marionette(self, kernels):
        params = ArchParams()
        dataflow = DataflowModel(params)
        marionette = MarionetteModel(params)
        gemm = kernels["GEMM"]
        inner = [n for n in gemm.nests.values() if not n.children][0]
        assert dataflow.body_ii(gemm, inner) > marionette.body_ii(gemm, inner)

    def test_von_neumann_counts_whole_kernel(self, kernels):
        params = ArchParams()
        von_neumann = VonNeumannModel(params)
        ms = kernels["MS"]
        inner = [n for n in ms.nests.values() if not n.children][0]
        resident_ii = math.ceil(ms.cdfg.total_op_count / params.n_pes)
        assert von_neumann.body_ii(ms, inner) >= resident_ii

    def test_ops_merged_vs_full(self, kernels):
        branchy = kernels["MS"]
        inner = [
            n for n in branchy.nests.values()
            if not n.children and any(
                branchy.cdfg.block(b).role.value == "branch_arm"
                for b in n.own
            )
        ]
        assert inner
        blocks = inner[0].own
        merged = branchy.ops_of_blocks(blocks, merge_arms=True)
        full = branchy.ops_of_blocks(blocks, merge_arms=False)
        assert merged < full

    def test_placement_memo_keys_on_the_nonlinear_pool(self):
        """``body_ii`` reads the ``place_block`` memo, which also reads
        ``nonlinear_pes``: four nonlinear ops in one body place at a
        different II on four nonlinear PEs than on one, and one kernel
        instance priced both ways must answer both ways."""
        k = KernelBuilder("nonlinear_body")
        k.array("x")
        k.array("o")
        with k.loop("i", 0, 8) as i:
            k.store("o", i, k.exp(k.sigmoid(k.log(k.exp(k.load("x", i))))))
        cdfg = k.build()
        trace = Interpreter(cdfg).run(
            {"x": np.ones(8), "o": np.zeros(8)}
        ).trace
        kernel = KernelInstance(cdfg, trace)
        body = next(
            block for block in cdfg.blocks
            if any(node.info.op_class is OpClass.NONLINEAR
                   for node in block.dfg.fu_nodes)
        )
        (nest,) = kernel.nests.values()
        expected = {}
        for pes in (4, 1, 4, 1):
            params = replace(ArchParams(), nonlinear_pes=pes)
            expected[pes] = place_block(body, params).ii
            model = ArchModel(params, ModelConfig(name="plain"))
            assert model.body_ii(kernel, nest) == expected[pes]
        assert expected[1] > expected[4]

    def test_shared_model_keeps_same_named_kernels_apart(self):
        """One Marionette model pricing two different kernels that share
        a name gives each the cycles a fresh model gives it: the cached
        schedule belongs to the kernel object, not to its name."""
        def same_name(steps):
            k = KernelBuilder("same_name")
            n = k.param("n")
            k.array("x")
            k.array("o")
            with k.loop("i", 0, n) as i:
                v = k.load("x", i)
                for _ in range(steps):
                    v = v * 3 + 1
                k.store("o", i, v * 2)
            cdfg = k.build()
            memory = {"x": np.arange(64), "o": np.zeros(64, dtype=np.int64)}
            trace = Interpreter(cdfg).run(memory, {"n": 64}).trace
            return KernelInstance(cdfg, trace)

        params = ArchParams()
        short, chained = same_name(0), same_name(6)
        shared = MarionetteModel(params)
        fresh = [MarionetteModel(params).simulate(k).cycles
                 for k in (short, chained)]
        assert [shared.simulate(k).cycles for k in (short, chained)] == fresh
        assert fresh[0] < fresh[1]

    def test_zero_trip_outer_loop_keeps_the_serial_schedule(self,
                                                           feature_ladder):
        """An outer loop entered once for no iteration would pay a whole
        pipeline drain if Agile PE Assignment pipelined it; the serial
        schedule pays only the startup, so the model keeps that one."""
        k = KernelBuilder("zero_trip_nest")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.loop("j", 0, n) as j:
                k.store("o", i, j)
        cdfg = k.build()
        trace = Interpreter(cdfg).run({"o": np.zeros(1)}, {"n": 0}).trace
        kernel = KernelInstance(cdfg, trace)
        results = {name: model.simulate(kernel)
                   for name, model in feature_ladder.items()}
        outer = [b for b in results["full"].breakdowns if not b.innermost]
        assert [(b.entries, b.iterations, b.overlapped)
                for b in outer] == [(1, 0, False)]
        assert outer[0].own_cycles == outer[0].startup
        assert results["full"].cycles <= results["cn"].cycles
        assert results["cn"].cycles <= results["base"].cycles


class TestInvariants:
    def test_ideal_is_a_lower_bound(self, kernels, all_models):
        ideal = all_models["ideal"]
        others = {k: v for k, v in all_models.items() if k != "ideal"}
        for short, kernel in kernels.items():
            bound = ideal.simulate(kernel).cycles
            for name, model in others.items():
                cycles = model.simulate(kernel).cycles
                assert bound <= cycles * 1.02 + 2, (short, name)

    def test_every_feature_helps_or_is_neutral(self, kernels,
                                              feature_ladder):
        for short, kernel in kernels.items():
            cycles = {name: model.simulate(kernel).cycles
                      for name, model in feature_ladder.items()}
            assert cycles["cn"] <= cycles["base"], short
            assert cycles["full"] <= cycles["base"], short

    def test_utilization_bounded(self, kernels, all_models):
        for kernel in kernels.values():
            for model in all_models.values():
                result = model.simulate(kernel)
                assert 0.0 <= result.utilization <= 1.0

    def test_cycles_positive_and_breakdowns_cover_loops(
        self, kernels, all_models
    ):
        for short, kernel in kernels.items():
            expected_loops = len(kernel.nests)
            for model in all_models.values():
                result = model.simulate(kernel)
                assert result.cycles >= 1
                assert len(result.breakdowns) == expected_loops

    def test_busy_cycles_equal_dynamic_work(self, kernels, all_models):
        params = ArchParams()
        for kernel in kernels.values():
            expected = (
                kernel.trace.dynamic_op_count(kernel.cdfg)
                * params.t_execute
            )
            for model in all_models.values():
                assert model.simulate(kernel).busy_pe_cycles == expected

    def test_deterministic(self, kernels, all_models):
        kernel = kernels["GEMM"]
        for model in all_models.values():
            assert (
                model.simulate(kernel).cycles
                == model.simulate(kernel).cycles
            )


class TestLawsOnGeneratedKernels:
    """Five of the invariants above on generated kernels, whose
    hand-built and arbitrary graphs reach shapes no workload has: a
    branch that leaves or restarts its loop, several exits, irreducible
    cycles.  Ideal's lower bound stays on the built-ins: generated draws
    still break it."""

    @settings(max_examples=40, deadline=None)
    @given(GENERATED)
    def test_every_feature_helps_or_is_neutral(self, feature_ladder, case):
        cycles = {name: result.cycles for name, result
                  in priced(case, feature_ladder)[1].items()}
        assert cycles["cn"] <= cycles["base"]
        assert cycles["full"] <= cycles["base"]

    @settings(max_examples=40, deadline=None)
    @given(GENERATED)
    def test_utilization_bounded(self, all_models, case):
        for name, result in priced(case, all_models)[1].items():
            assert 0.0 <= result.utilization <= 1.0, name

    @settings(max_examples=40, deadline=None)
    @given(GENERATED)
    def test_cycles_positive_and_breakdowns_cover_loops(self, all_models,
                                                        case):
        kernel, results = priced(case, all_models)
        for name, result in results.items():
            assert result.cycles >= 1, name
            assert len(result.breakdowns) == len(kernel.nests), name

    @settings(max_examples=40, deadline=None)
    @given(GENERATED)
    def test_busy_cycles_equal_dynamic_work(self, all_models, case):
        kernel, results = priced(case, all_models)
        expected = (kernel.trace.dynamic_op_count(kernel.cdfg)
                    * ArchParams().t_execute)
        for name, result in results.items():
            assert result.busy_pe_cycles == expected, name

    @settings(max_examples=40, deadline=None)
    @given(GENERATED)
    def test_deterministic(self, all_models, case):
        # The second interpretation builds a new kernel, so no model
        # reuses what it cached per kernel for the first.
        assert priced(case, all_models)[1] == priced(case, all_models)[1]


def check_pipeline_arithmetic(models, kernel):
    """Check every innermost loop of ``kernel`` that a model without loop
    FIFOs prices (so every entry pays its startup and drain) against
    ``entries * (startup + drain) + max(0, ceil(iterations / unroll) -
    entries) * II``, and 0 for a loop never entered; returns the entry
    counts checked."""
    checked = []
    for name, model in models.items():
        if model.config.loop_fifo:
            continue
        for loop in model.simulate(kernel).breakdowns:
            if not loop.innermost:
                continue
            initiations = math.ceil(loop.iterations / loop.unroll)
            expected = 0 if loop.entries == 0 else (
                loop.entries * (loop.startup + loop.drain)
                + max(0, initiations - loop.entries) * loop.ii)
            assert loop.own_cycles == expected, (kernel.name, name, loop)
            checked.append(loop.entries)
    return checked


class TestPipelineArithmetic:
    """The pipeline formula, checked on the loop pricing the figures use:
    one entry costs ``startup + (initiations - 1) * II + drain``."""

    def test_builtin_workloads(self, kernels, all_models):
        entries = [count for kernel in kernels.values()
                   for count in check_pipeline_arithmetic(all_models, kernel)]
        assert 1 in entries and max(entries) > 1

    @settings(max_examples=40, deadline=None)
    @given(loop_kernels())
    def test_generated_loops(self, all_models, case):
        cdfg, memory, kernel_params = case
        trace = Interpreter(cdfg).run(memory, kernel_params).trace
        assert check_pipeline_arithmetic(all_models,
                                         KernelInstance(cdfg, trace))


class TestPaperShapes:
    """Coarse ordering claims that must hold at any scale."""

    def test_marionette_beats_von_neumann_and_dataflow_geomean(self, kernels):
        params = ArchParams()
        marionette = MarionetteModel(
            params, control_network=False, agile=False
        )
        von_neumann = VonNeumannModel(params)
        dataflow = DataflowModel(params)
        ratios_vn, ratios_df = [], []
        for workload in INTENSIVE_WORKLOADS:
            kernel = kernels[workload.short]
            m = marionette.simulate(kernel).cycles
            ratios_vn.append(von_neumann.simulate(kernel).cycles / m)
            ratios_df.append(dataflow.simulate(kernel).cycles / m)
        geo = lambda xs: math.exp(sum(map(math.log, xs)) / len(xs))
        assert geo(ratios_vn) > 1.05
        assert geo(ratios_df) > 1.1

    def test_full_marionette_beats_rivals_geomean(self, kernels, all_models):
        full = all_models["full"]
        geo = lambda xs: math.exp(sum(map(math.log, xs)) / len(xs))
        for rival in ("SB", "TIA", "REV", "RIP"):
            ratios = [
                all_models[rival].simulate(kernels[w.short]).cycles
                / full.simulate(kernels[w.short]).cycles
                for w in INTENSIVE_WORKLOADS
            ]
            assert geo(ratios) > 1.1, rival

    def test_revel_is_the_closest_rival(self, kernels, all_models):
        full = all_models["full"]
        geo = lambda xs: math.exp(sum(map(math.log, xs)) / len(xs))
        gaps = {}
        for rival in ("SB", "TIA", "REV", "RIP"):
            gaps[rival] = geo([
                all_models[rival].simulate(kernels[w.short]).cycles
                / full.simulate(kernels[w.short]).cycles
                for w in INTENSIVE_WORKLOADS
            ])
        assert gaps["REV"] == min(gaps.values())

    def test_non_intensive_parity(self, kernels, all_models):
        full = all_models["full"]
        for short in ("CO", "SI", "GP"):
            kernel = kernels[short]
            m = full.simulate(kernel).cycles
            for rival in ("SB", "REV", "RIP", "vN"):
                r = all_models[rival].simulate(kernel).cycles
                assert 0.6 <= r / m <= 2.5, (short, rival)

    def test_tia_slowest_on_streaming(self, kernels, all_models):
        for short in ("CO", "SI", "GP"):
            kernel = kernels[short]
            tia = all_models["TIA"].simulate(kernel).cycles
            others = [
                all_models[r].simulate(kernel).cycles
                for r in ("SB", "REV", "RIP", "full")
            ]
            assert tia > max(others)


class TestScaling:
    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_models_work_at_any_array_size(self, size):
        params = DEFAULT_PARAMS.scaled(size, size)
        instance = get_workload("gemm").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        von_neumann = VonNeumannModel(params).simulate(kernel)
        marionette = MarionetteModel(params).simulate(kernel)
        assert von_neumann.cycles >= marionette.cycles
        assert marionette.n_pes == size * size

    def test_more_pes_never_slower_for_marionette(self):
        instance = get_workload("gemm").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        cycles = []
        for size in (2, 4, 8):
            params = DEFAULT_PARAMS.scaled(size, size)
            cycles.append(MarionetteModel(params).simulate(kernel).cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_rectangular_array(self):
        params = DEFAULT_PARAMS.scaled(2, 8)
        instance = get_workload("si").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        result = MarionetteModel(params).simulate(kernel)
        assert result.cycles > 0

"""Workload suite tests: functional correctness against references,
structural control flow forms (Table 1), sizes (Table 5), determinism."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ir import analysis
from repro.ir.ops import OpClass
from repro.workloads import (
    ALL_WORKLOADS,
    INTENSIVE_WORKLOADS,
    NON_INTENSIVE_WORKLOADS,
    get_workload,
)

SHORTS = [w.short for w in ALL_WORKLOADS]


class TestRegistry:
    def test_thirteen_workloads(self):
        assert len(ALL_WORKLOADS) == 13
        assert len(INTENSIVE_WORKLOADS) == 10
        assert len(NON_INTENSIVE_WORKLOADS) == 3

    def test_lookup_by_name_and_short(self):
        assert get_workload("gemm") is get_workload("GEMM")
        assert get_workload("merge_sort") is get_workload("ms")

    def test_unknown_raises(self):
        with pytest.raises(ReproError):
            get_workload("quantum_sort")

    def test_paper_sizes_documented(self):
        for workload in ALL_WORKLOADS:
            assert workload.paper_size, workload.name

    def test_unknown_scale(self):
        with pytest.raises(ReproError):
            get_workload("gemm").instance("enormous")


@pytest.mark.parametrize("short", SHORTS)
class TestFunctionalCorrectness:
    def test_tiny_matches_reference(self, short):
        get_workload(short).instance("tiny").check()

    def test_deterministic_per_seed(self, short):
        a = get_workload(short).instance("tiny", seed=7)
        b = get_workload(short).instance("tiny", seed=7)
        for name in a.memory:
            assert np.array_equal(a.memory[name], b.memory[name])

    def test_different_seeds_differ_somewhere(self, short):
        workload = get_workload(short)
        a = workload.instance("tiny", seed=1)
        b = workload.instance("tiny", seed=2)
        assert any(
            not np.array_equal(a.memory[name], b.memory[name])
            for name in a.memory
        )


@pytest.mark.parametrize("short", [w.short for w in INTENSIVE_WORKLOADS])
def test_small_scale_matches_reference(short):
    get_workload(short).instance("small").check()


def _hough_votes_one_pixel_at_a_time(sizes, memory):
    """The Hough reference as a scalar loop: the oracle for the
    vectorized one."""
    from repro.workloads.hough import FP, THRESHOLD

    h, w, thetas = sizes["h"], sizes["w"], sizes["thetas"]
    rho_bins = 2 * (h + w) + 1
    cos_t, sin_t = memory["cos_t"], memory["sin_t"]
    acc = np.zeros(thetas * rho_bins, dtype=np.int64)
    ys, xs = np.nonzero(memory["image"].reshape(h, w) > THRESHOLD)
    for y, x in zip(ys, xs):
        for t in range(thetas):
            num = int(x) * int(cos_t[t]) + int(y) * int(sin_t[t])
            q = abs(num) // FP
            rho = (q if num >= 0 else -q) + h + w
            acc[t * rho_bins + rho] += 1
    return acc


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
def test_hough_reference_matches_the_scalar_loop(scale, seed):
    workload = get_workload("HT")
    sizes = workload.sizes(scale)
    memory, params = workload.inputs(sizes, np.random.default_rng(seed))
    acc = workload.reference(sizes, memory, params)["acc"]
    oracle = _hough_votes_one_pixel_at_a_time(sizes, memory)
    assert acc.dtype == oracle.dtype == np.int64
    assert np.array_equal(acc, oracle)


class TestControlFlowForms:
    """Table 1: each kernel exhibits its documented control flow form."""

    def test_imperfect_nests(self):
        for short in ("MS", "FFT", "VI", "NW", "HT", "CRC", "LDPC", "GEMM",
                      "SCD"):
            cdfg = get_workload(short).instance("tiny").cdfg
            assert cdfg.max_loop_depth() >= 2, short
            assert cdfg.is_imperfect(), short

    def test_flat_kernels(self):
        for short in ("ADPCM", "CO", "SI", "GP"):
            cdfg = get_workload(short).instance("tiny").cdfg
            assert cdfg.max_loop_depth() == 1, short

    def test_branch_intensity(self):
        branchy = ("MS", "VI", "NW", "HT", "CRC", "ADPCM", "SCD", "LDPC")
        for short in branchy:
            cdfg = get_workload(short).instance("tiny").cdfg
            assert len(cdfg.branch_blocks()) >= 1, short
        for short in ("GEMM", "CO", "SI", "GP"):
            cdfg = get_workload(short).instance("tiny").cdfg
            assert len(cdfg.branch_blocks()) == 0, short

    def test_adpcm_serial_branches(self):
        cdfg = get_workload("adpcm").instance("tiny").cdfg
        assert len(cdfg.branch_blocks()) >= 5

    def test_merge_sort_has_highest_ops_under_branch(self):
        fractions = {}
        for short in ("MS", "GEMM", "FFT", "VI"):
            instance = get_workload(short).instance("tiny")
            result = instance.run()
            fractions[short] = analysis.ops_under_branch_fraction(
                instance.cdfg, result.trace
            )
        assert fractions["MS"] == max(fractions.values())
        assert fractions["GEMM"] == 0.0

    def test_nonlinear_kernel_uses_nonlinear_ops(self):
        cdfg = get_workload("si").instance("tiny").cdfg
        total = sum(
            node.info.op_class is OpClass.NONLINEAR
            for block in cdfg.blocks for node in block.dfg.fu_nodes
        )
        assert total >= 1


class TestPaperScaleParameters:
    """Table 5 sizes are wired in (construction only; not executed here)."""

    @pytest.mark.parametrize("short,key,value", [
        ("MS", "n", 1024),
        ("FFT", "n", 1024),
        ("VI", "states", 64),
        ("VI", "steps", 140),
        ("NW", "n", 128),
        ("HT", "h", 120),
        ("HT", "w", 180),
        ("CRC", "n", 64),
        ("ADPCM", "n", 2000),
        ("SCD", "n", 2048),
        ("LDPC", "n", 128),
        ("LDPC", "iters", 20),
        ("GEMM", "n", 64),
        ("CO", "n", 16384),
        ("SI", "n", 2048),
        ("GP", "n", 16384),
    ])
    def test_paper_sizes(self, short, key, value):
        assert get_workload(short).sizes("paper")[key] == value

    def test_paper_scale_kernels_build(self):
        # Building the CDFG at paper scale is cheap (size-independent
        # structure except bounds); execution is exercised by benchmarks.
        for workload in ALL_WORKLOADS:
            cdfg = workload.build(workload.sizes("paper"))
            cdfg.validate()

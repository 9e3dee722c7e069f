"""Tests for speedup helpers and utilization analyses."""

import pytest

from repro.errors import ReproError
from repro.arch.params import ArchParams
from repro.baselines import MarionetteModel
from repro.baselines.base import KernelInstance
from repro.perf.speedup import geomean
from repro.perf.utilization import outer_bb_utilization, pipeline_utilization
from repro.workloads import get_workload


class TestSpeedupHelpers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_geomean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ReproError):
            geomean([])
        with pytest.raises(ReproError):
            geomean([1.0, 0.0])


class TestUtilization:
    @pytest.fixture(scope="class")
    def gemm_setup(self):
        params = ArchParams()
        instance = get_workload("gemm").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        base = MarionetteModel(
            params, control_network=False, agile=False
        ).simulate(kernel)
        agile = MarionetteModel(
            params, control_network=False, agile=True
        ).simulate(kernel)
        return params, kernel, base, agile

    def test_outer_bb_utilization_bounded(self, gemm_setup):
        params, kernel, base, agile = gemm_setup
        orig = outer_bb_utilization(kernel, base, params, agile=False)
        new = outer_bb_utilization(kernel, agile, params, agile=True)
        assert 0.0 <= orig <= 1.0
        assert 0.0 <= new <= 1.0

    def test_agile_improves_outer_utilization(self, gemm_setup):
        params, kernel, base, agile = gemm_setup
        orig = outer_bb_utilization(kernel, base, params, agile=False)
        new = outer_bb_utilization(kernel, agile, params, agile=True)
        assert new > orig

    def test_pipeline_utilization_bounded_and_improved(self, gemm_setup):
        _, _, base, agile = gemm_setup
        orig = pipeline_utilization(base)
        new = pipeline_utilization(agile)
        assert 0.0 <= orig <= 1.0
        assert 0.0 <= new <= 1.0
        assert new >= orig

    def test_flat_kernel_rejected(self):
        params = ArchParams()
        instance = get_workload("si").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        result = MarionetteModel(params).simulate(kernel)
        with pytest.raises(ReproError):
            outer_bb_utilization(kernel, result, params, agile=False)

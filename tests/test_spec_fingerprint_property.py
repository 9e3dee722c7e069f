"""Property-style tests for RunSpec fingerprint stability.

The fingerprint is the cache address *and* the sharding coordinate, so
two properties are load-bearing: it must be invariant under incidental
representation differences (dict key ordering, keyword order), and it
must change whenever any semantic input — workload, scale, seed, model
(key, options, label), any architecture parameter pricing reads, or the
engine version — changes.  An architecture parameter pricing does not
read leaves it unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import (
    CONTROL_TOPOLOGIES, ArchParams, DEFAULT_PARAMS, PricingInputs,
)
from repro.arch.spec import load_arch_sweep
from repro.baselines.base import KernelInstance
from repro.engine import Engine, ModelSpec, RunSpec, fingerprint
from repro.engine import cache as engine_cache
from repro.engine.spec import MODEL_REGISTRY
from repro.experiments.common import (
    MARIONETTE_AGILE, MARIONETTE_CN, MARIONETTE_PE,
)
from repro.ir.builder import KernelBuilder
from repro.ir.interp import Interpreter
from repro.kernels import load_kernel_suite, register
from repro.workloads import ALL_WORKLOADS

from kernel_fuzz import loop_kernels

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

BASE = RunSpec("gemm", "small", 0, MARIONETTE_PE, DEFAULT_PARAMS)


#: The ``ArchParams`` fields the cache key holds, and all the others.
PRICING_FIELDS = [f.name for f in dataclasses.fields(PricingInputs)]
OTHER_FIELDS = [f.name for f in dataclasses.fields(ArchParams)
                if f.name not in PRICING_FIELDS]


def _perturb(field_name):
    """A valid value for ``field_name`` that differs from the default."""
    value = getattr(DEFAULT_PARAMS, field_name)
    if isinstance(value, str):
        return "mesh" if value != "mesh" else "cs_benes"
    return value + 1


class TestFingerprintStability:
    def test_stable_across_key_dict_ordering(self):
        key = BASE.cache_key()
        for permutation in itertools.islice(
                itertools.permutations(key.items()), 24):
            assert fingerprint(dict(permutation)) == BASE.fingerprint()

    def test_stable_across_params_dict_ordering(self):
        key = BASE.cache_key()
        params = key["params"]
        reordered = dict(key)
        reordered["params"] = dict(reversed(list(params.items())))
        assert list(reordered["params"]) != list(params)
        assert fingerprint(reordered) == fingerprint(key)

    def test_stable_across_model_option_keyword_order(self):
        forward = ModelSpec.make("marionette", label="Marionette PE",
                                 control_network=False, agile=False)
        backward = ModelSpec.make("marionette", agile=False,
                                  control_network=False,
                                  label="Marionette PE")
        a = RunSpec("gemm", "small", 0, forward, DEFAULT_PARAMS)
        b = RunSpec("gemm", "small", 0, backward, DEFAULT_PARAMS)
        assert a.fingerprint() == b.fingerprint()

    def test_independently_built_equal_specs_agree(self):
        twin = RunSpec(
            "gemm", "small", 0,
            ModelSpec.make("marionette", label="Marionette PE",
                           control_network=False, agile=False),
            ArchParams(),
        )
        assert DEFAULT_PARAMS == ArchParams()
        assert twin.fingerprint() == BASE.fingerprint()

    def test_deterministic_across_calls(self):
        assert BASE.fingerprint() == BASE.fingerprint()


class TestFingerprintSensitivity:
    def test_workload_changes_fingerprint(self):
        assert replace(BASE, workload="crc").fingerprint() \
            != BASE.fingerprint()

    def test_scale_changes_fingerprint(self):
        assert replace(BASE, scale="tiny").fingerprint() \
            != BASE.fingerprint()

    def test_seed_changes_fingerprint(self):
        assert replace(BASE, seed=1).fingerprint() != BASE.fingerprint()

    def test_model_key_changes_fingerprint(self):
        assert replace(BASE, model=ModelSpec.make("von_neumann")) \
            .fingerprint() != BASE.fingerprint()

    def test_model_option_changes_fingerprint(self):
        toggled = ModelSpec.make("marionette", label="Marionette PE",
                                 control_network=True, agile=False)
        assert replace(BASE, model=toggled).fingerprint() \
            != BASE.fingerprint()

    def test_model_label_changes_fingerprint(self):
        relabeled = ModelSpec.make("marionette", label="other",
                                   control_network=False, agile=False)
        assert replace(BASE, model=relabeled).fingerprint() \
            != BASE.fingerprint()

    @pytest.mark.parametrize("field_name", PRICING_FIELDS)
    def test_every_pricing_input_changes_fingerprint(self, field_name):
        perturbed = replace(
            DEFAULT_PARAMS, **{field_name: _perturb(field_name)})
        assert replace(BASE, params=perturbed).fingerprint() \
            != BASE.fingerprint()

    @pytest.mark.parametrize("field_name", OTHER_FIELDS)
    def test_other_arch_params_leave_fingerprint_unchanged(self,
                                                           field_name):
        perturbed = replace(
            DEFAULT_PARAMS, **{field_name: _perturb(field_name)})
        moved = replace(BASE, params=perturbed)
        assert moved != BASE
        assert moved.fingerprint() == BASE.fingerprint()

    def test_cache_key_params_are_the_pricing_inputs(self):
        # A pricing input missing from the key would alias cache records
        # across variants that price differently; any other field would
        # split records that price alike.
        token = BASE.cache_key()["params"]
        assert set(token) == set(PRICING_FIELDS)
        assert token == dataclasses.asdict(DEFAULT_PARAMS.pricing_inputs)

    def test_engine_version_changes_fingerprint(self, monkeypatch):
        before = BASE.fingerprint()
        monkeypatch.setattr(engine_cache, "ENGINE_VERSION",
                            engine_cache.ENGINE_VERSION + 1)
        assert BASE.fingerprint() != before

    def test_no_collisions_across_a_sweep(self):
        specs = [
            RunSpec(workload, scale, seed, model, params)
            for workload in ("gemm", "crc", "fft")
            for scale in ("tiny", "small")
            for seed in (0, 1)
            for model in (ModelSpec.make("von_neumann"), MARIONETTE_PE)
            for params in (DEFAULT_PARAMS,
                           replace(DEFAULT_PARAMS, data_net_latency=9))
        ]
        prints = {spec.fingerprint() for spec in specs}
        assert len(prints) == len(specs)


#: Every model the report prices: each registry key with its defaults,
#: and the three Marionette feature presets.
PRICING_MODELS = [ModelSpec.make(key) for key in MODEL_REGISTRY] + [
    MARIONETTE_PE, MARIONETTE_CN, MARIONETTE_AGILE]
#: Drawn key values stay small (placement is quadratic in the grid) and
#: valid (every sampled grid holds four nonlinear PEs).
KEY_VALUES = st.fixed_dictionaries({
    name: (st.sampled_from(CONTROL_TOPOLOGIES) if name == "control_topology"
           else st.integers(1, 4) if name == "nonlinear_pes"
           else st.integers(2, 5) if name in ("rows", "cols")
           else st.integers(1, 8))
    for name in PRICING_FIELDS
})
OTHER_VALUES = st.fixed_dictionaries({
    name: st.integers(1, 64) for name in OTHER_FIELDS
})
#: One perturbation of the default per key field that moves a price.
KEY_PERTURBATIONS = {
    "rows": 5, "cols": 5, "nonlinear_pes": 1, "t_config": 2,
    "t_execute": 3, "data_net_latency": 9, "ctrl_net_latency": 2,
    "mesh_hop_latency": 3, "control_topology": "cs",
}


def _nonlinear_loop() -> KernelInstance:
    """A loop body of four nonlinear ops: its II rests on the size of the
    nonlinear PE pool, which no shipped kernel's does on the 4x4 array."""
    k = KernelBuilder("nonlinear_body")
    n = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, n) as i:
        k.store("o", i, k.exp(k.sigmoid(k.log(k.exp(k.load("x", i))))))
    cdfg = k.build()
    memory = {"x": np.linspace(0.0, 1.0, 8), "o": np.zeros(8)}
    return KernelInstance(
        cdfg, Interpreter(cdfg).run(memory, {"n": 8}).trace)


@pytest.fixture(scope="module")
def pricing_kernels():
    """The 13 built-in workloads at ``tiny`` and the shipped kernel
    packages, as the engine builds them for pricing, and
    :func:`_nonlinear_loop`."""
    engine = Engine()
    kernels = {workload.short.lower(): engine.kernel(
        workload.short.lower(), "tiny", 0) for workload in ALL_WORKLOADS}
    for _path, package in load_kernel_suite(EXAMPLES / "kernels"):
        kernels[package.name] = engine.kernel(
            register(package), package.scale_hint, 0)
    kernels["nonlinear_body"] = _nonlinear_loop()
    return kernels


def _prices(params, kernels):
    models = [model.build(params) for model in PRICING_MODELS]
    return [model.simulate(kernel).to_payload()
            for model in models for kernel in kernels]


class TestPricingInputs:
    """A cycle record's key holds ``ArchParams.pricing_inputs``: the
    projection is exactly what pricing reads, so the key changes if and
    only if a price may."""

    def test_key_fields_are_arch_fields(self):
        assert set(PRICING_FIELDS) < {
            f.name for f in dataclasses.fields(ArchParams)}
        assert set(KEY_PERTURBATIONS) == set(PRICING_FIELDS)

    def test_pricing_reads_exactly_the_key_fields(self, pricing_kernels,
                                                  monkeypatch):
        variants = [desc.params
                    for _path, desc in load_arch_sweep(EXAMPLES / "arch")]
        fields = set(PRICING_FIELDS) | set(OTHER_FIELDS)
        read = set()
        plain = ArchParams.__getattribute__

        def recording(self, name):
            if name in fields:
                read.add(name)
            return plain(self, name)

        monkeypatch.setattr(ArchParams, "__getattribute__", recording)
        for params in variants:
            _prices(params, pricing_kernels.values())
        monkeypatch.undo()
        assert read == set(PRICING_FIELDS)

    @settings(max_examples=40, deadline=None)
    @given(case=st.one_of(st.sampled_from(sorted(
               w.short.lower() for w in ALL_WORKLOADS)), loop_kernels()),
           key=KEY_VALUES, first=OTHER_VALUES, second=OTHER_VALUES)
    def test_fields_outside_the_key_never_change_a_price(
            self, pricing_kernels, case, key, first, second):
        if isinstance(case, str):
            kernel = pricing_kernels[case]
        else:
            cdfg, memory, kernel_params = case
            kernel = KernelInstance(
                cdfg, Interpreter(cdfg).run(memory, kernel_params).trace)
        arch = ArchParams(**key, **first)
        twin = ArchParams(**key, **second)
        assert twin.pricing_inputs == arch.pricing_inputs
        assert _prices(twin, [kernel]) == _prices(arch, [kernel])

    @pytest.mark.parametrize("field", PRICING_FIELDS)
    def test_every_key_field_changes_a_price(self, pricing_kernels, field):
        moved = replace(DEFAULT_PARAMS, **{field: KEY_PERTURBATIONS[field]})
        kernels = pricing_kernels.values()
        assert _prices(moved, kernels) != _prices(DEFAULT_PARAMS, kernels), (
            f"{field} never changes a price: a dead key field"
        )

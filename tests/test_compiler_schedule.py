"""Agile PE Assignment scheduler (and its memo) + configuration generation
tests."""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import CompilationError
from repro.arch.params import ArchParams
from repro.arch.spec import load_arch
from repro.compiler import place, schedule as schedule_memo
from repro.compiler.config_gen import generate_program
from repro.compiler.mapping import Schedule
from repro.compiler.place import place_block
from repro.compiler.schedule import MarionetteScheduler
from repro.ir.builder import KernelBuilder
from repro.ir.cfg import BlockRole
from repro.workloads import ALL_WORKLOADS, get_workload
from test_compiler_place import (ARCH_DIR, KEY_FIELDS, KEY_PERTURBATIONS,
                                 KEY_VALUES, OTHER_VALUES)


class TestScheduler:
    def test_all_op_blocks_placed(self, params):
        scheduler = MarionetteScheduler(params)
        for workload in ALL_WORKLOADS:
            instance = workload.instance("tiny")
            schedule = scheduler.schedule(instance.cdfg)
            for block in instance.cdfg.blocks:
                if block.op_count == 0:
                    continue
                placement = schedule.placement_of(block.block_id)
                assert placement is not None, (
                    f"{workload.name}: block {block.name} unplaced"
                )
                assert placement.ii >= 1

    def test_levels_ordered_innermost_first(self, params, imperfect_kernel):
        schedule = MarionetteScheduler(params).schedule(imperfect_kernel)
        depths = [lvl.depth for lvl in schedule.levels]
        assert depths == sorted(depths, reverse=True)

    def test_deepest_level_wins_resolution(self, params, imperfect_kernel):
        schedule = MarionetteScheduler(params).schedule(imperfect_kernel)
        inner, = (nest for nest in imperfect_kernel.loop_nests().values()
                  if not nest.children)
        for bid in inner.own:
            block = imperfect_kernel.block(bid)
            if block.op_count == 0:
                continue
            placement = schedule.placement_of(bid)
            deepest = schedule.levels[0].placements.get(bid)
            assert placement is deepest

    def test_agile_fills_spare_pes(self, params, saxpy_kernel):
        agile = MarionetteScheduler(params).schedule(saxpy_kernel)
        plain = MarionetteScheduler(
            params, enable_agile=False
        ).schedule(saxpy_kernel)

        def unrolls(schedule):
            tables = [level.placements for level in schedule.levels]
            tables.append(schedule.flat)
            return [p.unroll for table in tables for p in table.values()]

        assert max(unrolls(agile)) >= max(unrolls(plain))

    def test_same_level_block_never_folded_over_itself(self, params):
        """Regression: a level's own block must keep its spatial mapping
        (the Gray Processing II=3 anomaly)."""
        gp = get_workload("gp").instance("tiny")
        schedule = MarionetteScheduler(params).schedule(gp.cdfg)
        for block in gp.cdfg.blocks:
            if block.op_count == 0:
                continue
            placement = schedule.placement_of(block.block_id)
            assert not placement.time_extended

    def test_branch_arms_share_lane(self, params, branchy_kernel):
        schedule = MarionetteScheduler(params).schedule(branchy_kernel)
        arms = [
            b.block_id for b in branchy_kernel.blocks
            if "then" in b.name or "else" in b.name
        ]
        placements = [schedule.placement_of(a) for a in arms]
        placements = [p for p in placements if p and p.op_count]
        if len(placements) == 2:
            lanes = [set(p.pes) for p in placements]
            assert lanes[1] <= lanes[0] or lanes[0] <= lanes[1]


@contextmanager
def _empty_memos():
    """Run with empty schedule and placement memos; both are restored
    afterwards."""
    saved = [(memo, memo.copy())
             for memo in (schedule_memo._MEMO, place._MEMO)]
    for memo, _entries in saved:
        memo.clear()
    try:
        yield
    finally:
        for memo, entries in saved:
            memo.clear()
            memo.update(entries)


def uncached(cdfg, params: ArchParams, enable_agile: bool = True) -> Schedule:
    """``MarionetteScheduler.schedule`` computed from scratch, bypassing
    both memos."""
    with _empty_memos():
        return MarionetteScheduler(
            params, enable_agile=enable_agile).schedule(cdfg)


@pytest.fixture(scope="module")
def tiny_kernels():
    """The 13 workloads' CDFGs at ``tiny``, built afresh."""
    return [workload.build(workload.sizes("tiny"))
            for workload in ALL_WORKLOADS]


def _one_loop(name: str, steps: int, factor: int = 3):
    k = KernelBuilder(name)
    n = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, n) as i:
        v = k.load("x", i)
        for _ in range(steps):
            v = v * factor + 1
        k.store("o", i, v * 2)
    return k.build()


def _branchy(edit: str = ""):
    """A loop whose body branches.  ``edit`` swaps the branch's targets
    (``"swap"``), marks it a loop branch (``"loop"``) or makes its first
    arm a plain block (``"role"``); every block's DFG stays as it was."""
    k = KernelBuilder("branchy")
    n = k.param("n")
    k.array("a")
    k.array("o")
    with k.loop("i", 0, n) as i:
        x = k.load("a", i)
        with k.branch(x < 0) as br:
            k.set("d", 0 - x)
        with br.orelse():
            k.set("d", x * 2 + 1)
        k.store("o", i, k.get("d"))
    cdfg = k.build()
    term = cdfg.branch_blocks()[0].terminator
    if edit == "swap":
        term.if_true, term.if_false = term.if_false, term.if_true
    elif edit == "loop":
        term.is_loop_branch = True
    elif edit == "role":
        cdfg.block(term.if_true).role = BlockRole.PLAIN
    return cdfg


class TestScheduleMemo:
    """``MarionetteScheduler.schedule`` memoises on the CDFG's structural
    fingerprint, the ``PlacementInputs`` projection and ``enable_agile``:
    the key changes if and only if the schedule may."""

    @settings(max_examples=20, deadline=None)
    @given(key=KEY_VALUES, first=OTHER_VALUES, second=OTHER_VALUES)
    def test_fields_outside_the_key_never_change_a_schedule(
            self, tiny_kernels, key, first, second):
        arch = ArchParams(**key, **first)
        twin = ArchParams(**key, **second)
        assert twin.placement_inputs == arch.placement_inputs
        for cdfg in tiny_kernels:
            cached = MarionetteScheduler(arch).schedule(cdfg)
            assert MarionetteScheduler(twin).schedule(cdfg) is cached
            assert uncached(cdfg, twin) == cached

    @pytest.mark.parametrize("field", KEY_FIELDS + ("enable_agile",))
    def test_every_key_field_changes_a_schedule(self, tiny_kernels, field):
        base = ArchParams()
        if field == "enable_agile":
            moved, agile = base, False
        else:
            moved = dataclasses.replace(
                base, **{field: KEY_PERTURBATIONS[field]})
            agile = True
        before = [MarionetteScheduler(base).schedule(c)
                  for c in tiny_kernels]
        after = [MarionetteScheduler(moved, enable_agile=agile).schedule(c)
                 for c in tiny_kernels]
        assert after == [uncached(c, moved, agile) for c in tiny_kernels]
        assert after != before, (
            f"{field} never changes a schedule: a dead key field"
        )

    def test_same_named_kernels_of_other_structure_never_share(self, params):
        # One pair differs in a block's DFG, the others only in where a
        # branch goes, in whether it is a loop branch, or in a role.
        for pair in ((_one_loop("twin", 0), _one_loop("twin", 6)),
                     *((_branchy(), _branchy(edit))
                       for edit in ("swap", "loop", "role"))):
            schedules = [MarionetteScheduler(params).schedule(k)
                         for k in pair]
            assert schedules[0] is not schedules[1]
            assert schedules == [uncached(k, params) for k in pair]

    def test_same_structure_under_other_names_never_shares(self, params):
        first, second = _one_loop("first", 2), _one_loop("second", 2)
        a, b = (MarionetteScheduler(params).schedule(k)
                for k in (first, second))
        assert a is not b
        assert (a.kernel, b.kernel) == ("first", "second")
        assert (a.levels, a.flat) == (b.levels, b.flat)

    def test_mesh_latency_variants_share_every_mapping(self):
        # latency-skewed differs from marionette-default in timing alone,
        # which placement and scheduling never read.
        default, skewed = (
            load_arch(ARCH_DIR / name).params
            for name in ("marionette_default.json", "latency_skewed.json")
        )
        assert skewed.mesh_hop_latency != default.mesh_hop_latency
        for workload in ALL_WORKLOADS:
            cdfg = workload.build(workload.sizes("small"))
            for agile in (True, False):
                assert MarionetteScheduler(
                    skewed, enable_agile=agile).schedule(cdfg) \
                    is MarionetteScheduler(
                        default, enable_agile=agile).schedule(cdfg)
            for block in cdfg.blocks:
                assert place_block(block, skewed) == \
                    place_block(block, default)

    def test_constant_values_are_outside_the_key(self, params):
        # Scheduling reads opcodes and operands, never a constant's value.
        times3, times5 = _one_loop("k", 2, 3), _one_loop("k", 2, 5)
        shared = MarionetteScheduler(params).schedule(times3)
        assert MarionetteScheduler(params).schedule(times5) is shared
        assert uncached(times5, params) == shared


class TestConfigGen:
    def test_param_bound_into_immediates(self, params, saxpy_kernel):
        program = generate_program(
            saxpy_kernel, params, param_values={"n": 16},
            array_lengths={"x": 16, "y": 16},
        )
        entries = sum(len(pe) for pe in program.pe_programs.values())
        assert entries >= saxpy_kernel.total_op_count

    def test_missing_array_length(self, params, saxpy_kernel):
        with pytest.raises(CompilationError, match="missing length"):
            generate_program(saxpy_kernel, params, param_values={"n": 4})

    def test_multi_loop_kernel_rejected(self, params, imperfect_kernel):
        with pytest.raises(CompilationError, match="exactly one loop"):
            generate_program(
                imperfect_kernel, params, param_values={"n": 4},
                array_lengths={"rd": 8, "val": 8, "out": 8},
            )

    def test_branchy_kernel_rejected(self, params, branchy_kernel):
        with pytest.raises(CompilationError):
            generate_program(
                branchy_kernel, params, param_values={"n": 4},
                array_lengths={"a": 4, "b": 4, "o": 4},
            )

    def test_too_many_ops_rejected(self, params):
        k = KernelBuilder("wide")
        n = k.param("n")
        k.array("x")
        k.array("o")
        with k.loop("i", 0, n) as i:
            value = k.load("x", i)
            for _ in range(20):
                value = value * 3 + 1
            k.store("o", i, value)
        with pytest.raises(CompilationError, match="exceed"):
            generate_program(
                k.build(), params, param_values={"n": 4},
                array_lengths={"x": 4, "o": 4},
            )

    # A body instruction with no port source would fire every cycle on
    # the array instead of once per iteration (a runaway run).
    def test_untokened_accumulator_rejected(self, params):
        k = KernelBuilder("counter")
        n = k.param("n")
        k.array("out")
        k.set("acc", 0)
        with k.loop("i", 0, n) as i:
            k.set("acc", k.get("acc") + 3)
            k.store("out", i, k.get("acc"))
        with pytest.raises(CompilationError,
                           match=r"counter: node n\d+ \(add\) has no token"):
            generate_program(
                k.build(), params, param_values={"n": 16},
                array_lengths={"out": 16},
            )

    def test_constant_index_load_rejected(self, params):
        k = KernelBuilder("bias")
        n = k.param("n")
        k.array("x")
        k.array("y")
        with k.loop("i", 0, n) as i:
            k.store("y", i, k.load("x", i) + k.load("x", 0))
        with pytest.raises(CompilationError,
                           match=r"bias: node n\d+ \(load\) has no token"):
            generate_program(
                k.build(), params, param_values={"n": 16},
                array_lengths={"x": 16, "y": 16},
            )

    def test_program_validates(self, params, saxpy_kernel):
        program = generate_program(
            saxpy_kernel, params, param_values={"n": 8},
            array_lengths={"x": 8, "y": 8},
        )
        program.validate()
        assert 0 in program.initial_addrs  # the loop operator PE

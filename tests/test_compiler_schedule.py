"""Agile PE Assignment scheduler + configuration generation tests."""

import numpy as np
import pytest

from repro.errors import CompilationError
from repro.arch.params import ArchParams
from repro.compiler.config_gen import generate_program
from repro.compiler.schedule import MarionetteScheduler
from repro.ir.builder import KernelBuilder
from repro.workloads import ALL_WORKLOADS, get_workload


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

    def test_waste_non_negative_metadata(self, params, imperfect_kernel):
        schedule = MarionetteScheduler(params).schedule(imperfect_kernel)
        for level in schedule.levels:
            assert isinstance(level.waste, int)


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

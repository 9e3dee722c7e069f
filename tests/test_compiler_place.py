"""Placement (memo, routing, goldens), reshape, and pipeline-arithmetic
tests."""

import dataclasses
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompilationError, ConfigurationError, PlacementError
from repro.arch.network.mesh import DataMesh
from repro.arch.params import CONTROL_TOPOLOGIES, ArchParams, PlacementInputs
from repro.arch.spec import load_arch_sweep
from repro.arch.topology import Coord, Grid
from repro.baselines.base import pipeline_cycles
from repro.compiler import place
from repro.compiler.mapping import BBPlacement
from repro.compiler.place import place_block
from repro.compiler.reshape import pe_waste, reshape_placement, unroll_placement
from repro.compiler.schedule import MarionetteScheduler
from repro.ir.builder import KernelBuilder
from repro.workloads import ALL_WORKLOADS, get_workload

GOLDEN_PLACEMENTS = Path(__file__).parent / "golden" / "placements.json"
ARCH_DIR = Path(__file__).resolve().parents[1] / "examples" / "arch"


def body_block(cdfg, name_fragment="body"):
    for block in cdfg.blocks:
        if name_fragment in block.name and block.op_count > 0:
            return block
    raise AssertionError(f"no block matching {name_fragment}")


@pytest.fixture
def mac_block(saxpy_kernel):
    return body_block(saxpy_kernel)


class TestPlaceBlock:
    def test_every_op_mapped_once(self, mac_block, params):
        placement = place_block(mac_block, params)
        op_ids = [n.node_id for n in mac_block.dfg.fu_nodes]
        placement.validate(op_ids)

    def test_ii_at_least_one(self, mac_block, params):
        assert place_block(mac_block, params).ii >= 1

    def test_empty_block(self, params):
        k = KernelBuilder("empty")
        cdfg = k.build()
        placement = place_block(cdfg.blocks[0], params)
        assert placement.op_count == 0 and placement.ii == 1

    def test_empty_region_rejected(self, mac_block, params):
        with pytest.raises(PlacementError):
            place_block(mac_block, params, region=[])

    def test_region_outside_the_array_rejected(self, mac_block, params):
        with pytest.raises(ConfigurationError):
            place_block(mac_block, params, [Coord(0, 0), Coord(0, 4)])

    def test_small_region_folds(self, mac_block, params):
        region = [Coord(0, 0), Coord(0, 1)]
        placement = place_block(mac_block, params, region)
        assert placement.n_pes <= 2
        assert placement.ii >= mac_block.op_count // 2

    def test_nonlinear_ops_on_nonlinear_pes(self, params):
        k = KernelBuilder("nl")
        n = k.param("n")
        k.array("x")
        k.array("y")
        with k.loop("i", 0, n) as i:
            k.store("y", i, k.exp(k.load("x", i)))
        block = body_block(k.build())
        placement = place_block(block, params)
        grid = Grid(params.rows, params.cols)
        nonlinear_pool = list(grid)[-params.nonlinear_pes:]
        from repro.ir.ops import OpClass

        for node in block.dfg.fu_nodes:
            if node.info.op_class is OpClass.NONLINEAR:
                assert placement.assignment[node.node_id] in nonlinear_pool

    def test_nonlinear_without_pool_raises(self, params):
        k = KernelBuilder("nl2")
        k.array("x")
        k.array("y")
        with k.loop("i", 0, 4) as i:
            k.store("y", i, k.log(k.load("x", i)))
        block = body_block(k.build())
        region = [Coord(0, 0), Coord(0, 1)]  # no nonlinear PEs
        with pytest.raises(PlacementError):
            place_block(block, params, region)


@contextmanager
def _empty_memo():
    """Run with an empty placement memo; the memo is restored afterwards."""
    saved = place._MEMO.copy()
    place._MEMO.clear()
    try:
        yield
    finally:
        place._MEMO.clear()
        place._MEMO.update(saved)


def uncached(block, params: ArchParams) -> BBPlacement:
    """``place_block`` computed from scratch, bypassing the memo."""
    with _empty_memo():
        return place_block(block, params)


def _one_loop_body(name: str, body):
    k = KernelBuilder(name)
    k.array("x")
    k.array("o")
    with k.loop("i", 0, 8) as i:
        k.store("o", i, body(k, k.load("x", i)))
    return body_block(k.build())


def _largest_block(name: str):
    workload = get_workload(name)
    cdfg = workload.build(workload.sizes("tiny"))
    return max(cdfg.blocks, key=lambda block: block.op_count)


@pytest.fixture(scope="module")
def block_sample():
    """Blocks with nonlinear ops, fan-in, and multi-PE routing."""
    return [
        # Four nonlinear ops in one body: its II depends on the pool size.
        _one_loop_body(
            "nonlinear_body",
            lambda k, x: k.exp(k.sigmoid(k.log(k.exp(x)))),
        ),
        _one_loop_body("mac", lambda k, x: x * 3 + x * x),
        _largest_block("fft"),
        _largest_block("hough"),
    ]


#: The ``ArchParams`` fields placement reads, and all the others.
KEY_FIELDS = tuple(f.name for f in dataclasses.fields(PlacementInputs))
OTHER_FIELDS = tuple(
    f.name for f in dataclasses.fields(ArchParams) if f.name not in KEY_FIELDS
)
#: Drawn key values stay small (placement is quadratic in the grid) and
#: valid (every sampled grid holds four nonlinear PEs).
KEY_RANGES = {"rows": (2, 6), "cols": (2, 6), "nonlinear_pes": (1, 4)}
KEY_VALUES = st.fixed_dictionaries({
    name: st.integers(low, high) for name, (low, high) in KEY_RANGES.items()
})
OTHER_VALUES = st.fixed_dictionaries({
    name: (st.sampled_from(CONTROL_TOPOLOGIES)
           if name == "control_topology" else st.integers(1, 64))
    for name in OTHER_FIELDS
})
#: One perturbation of the default per key field that moves a placement.
KEY_PERTURBATIONS = {"rows": 5, "cols": 5, "nonlinear_pes": 1}


class TestPlacementMemo:
    """``place_block`` memoises on the block's structure, the
    ``PlacementInputs`` projection, and the region: the key changes if and
    only if the placement may."""

    def test_key_fields_are_arch_fields(self):
        fields = {f.name for f in dataclasses.fields(ArchParams)}
        assert set(KEY_FIELDS) <= fields and OTHER_FIELDS
        assert set(KEY_RANGES) == set(KEY_PERTURBATIONS) == set(KEY_FIELDS)

    @settings(max_examples=25, deadline=None)
    @given(key=KEY_VALUES, first=OTHER_VALUES, second=OTHER_VALUES)
    def test_fields_outside_the_key_never_change_a_placement(
            self, block_sample, key, first, second):
        arch = ArchParams(**key, **first)
        twin = ArchParams(**key, **second)
        assert twin.placement_inputs == arch.placement_inputs
        for block in block_sample:
            cached = place_block(block, arch)
            assert place_block(block, twin) is cached
            assert uncached(block, twin) == cached

    @pytest.mark.parametrize("field", KEY_FIELDS)
    def test_every_key_field_changes_a_placement(self, block_sample, field):
        base = ArchParams()
        moved = dataclasses.replace(
            base, **{field: KEY_PERTURBATIONS[field]}
        )
        before = [place_block(block, base) for block in block_sample]
        after = [place_block(block, moved) for block in block_sample]
        assert after == [uncached(block, moved) for block in block_sample]
        assert after != before, (
            f"{field} never changes a placement: a dead key field"
        )

    def test_equal_block_ids_with_other_opcodes_never_share(self, params):
        add = _one_loop_body("twin", lambda k, x: x + x)
        sub = _one_loop_body("twin", lambda k, x: x - x)
        exp = _one_loop_body("twin", lambda k, x: k.exp(k.absolute(x)))
        absolute = _one_loop_body("twin", lambda k, x: k.absolute(k.absolute(x)))
        assert add.block_id == sub.block_id == exp.block_id \
            == absolute.block_id
        placements = [place_block(b, params) for b in (add, sub, exp, absolute)]
        assert len({id(p) for p in placements}) == 4
        for block, placement in zip((add, sub, exp, absolute), placements):
            assert uncached(block, params) == placement
        # A nonlinear op must reach the nonlinear pool: sharing the entry
        # of the all-ALU twin would have placed it on an ordinary PE.
        assert placements[2] != placements[3]

    def test_region_order_is_part_of_the_key(self, mac_block, params):
        region = list(Grid(params.rows, params.cols))
        forward = place_block(mac_block, params, region)
        backward = place_block(mac_block, params, region[::-1])
        assert forward == uncached(mac_block, params)
        with _empty_memo():
            assert place_block(mac_block, params, region[::-1]) == backward
        assert forward != backward


def _placement_doc(placement: BBPlacement) -> dict:
    return {
        "block": placement.block,
        "assignment": sorted(
            [node, coord.row, coord.col]
            for node, coord in placement.assignment.items()
        ),
        "ii": placement.ii,
        "unroll": placement.unroll,
        "time_extended": placement.time_extended,
    }


def placements_digest(cdfg, params: ArchParams, enable_agile: bool) -> str:
    """sha256 of the canonical JSON of one kernel's placements: the
    scheduler's per-level and flat mappings (in scheduling order) plus the
    whole-array placement of every block with ops."""
    schedule = MarionetteScheduler(
        params, enable_agile=enable_agile
    ).schedule(cdfg)
    document = {
        "levels": [
            {
                "depth": level.depth,
                "placements": [
                    _placement_doc(p) for p in level.placements.values()
                ],
            }
            for level in schedule.levels
        ],
        "flat": [_placement_doc(p) for p in schedule.flat.values()],
        "whole_array": [
            _placement_doc(place_block(block, params))
            for block in cdfg.blocks if block.op_count > 0
        ],
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestPlacementGolden:
    """Every placement of the built-in workloads at ``small`` scale, on
    every ``examples/arch`` variant, with and without agile expansion,
    is locked by digest: the placer must visit the same candidates in the
    same order.  Regenerate (and review why) with ``--update-golden``."""

    def test_placements_match_golden(self, request):
        digests = {}
        for _path, desc in load_arch_sweep(ARCH_DIR):
            for workload in ALL_WORKLOADS:
                cdfg = workload.build(workload.sizes("small"))
                for agile in (True, False):
                    key = f"{workload.name}/{desc.name}/agile={agile}"
                    digests[key] = placements_digest(
                        cdfg, desc.params, agile
                    )
        if request.config.getoption("--update-golden"):
            GOLDEN_PLACEMENTS.write_text(
                json.dumps(digests, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            return
        golden = json.loads(GOLDEN_PLACEMENTS.read_text(encoding="utf-8"))
        drifted = sorted(k for k in golden if digests.get(k) != golden[k])
        assert set(digests) == set(golden)
        assert not drifted, f"placements drifted: {drifted}"


class TestRoutePlacement:
    def test_all_cross_pe_edges_routed(self, mac_block, params):
        """The placement's II is the larger of its ops-per-PE and the
        congestion of an XY route of every data edge between two PEs."""
        placement = place_block(mac_block, params)
        mesh = DataMesh(Grid(params.rows, params.cols))
        mapped = placement.assignment
        cross = 0
        for node in mac_block.dfg.fu_nodes:
            for operand in node.operands:
                if operand in mapped and (
                    mapped[operand] != mapped[node.node_id]
                ):
                    mesh.route(mapped[operand], mapped[node.node_id])
                    cross += 1
        assert cross > 0
        ops_per_pe = max(Counter(mapped.values()).values())
        assert placement.ii == max(ops_per_pe, mesh.congestion_ii())


class TestReshape:
    def _placement(self, n_ops: int) -> BBPlacement:
        grid = Grid(4, 4)
        coords = list(grid)
        return BBPlacement(
            block=0,
            assignment={i: coords[i] for i in range(n_ops)}, ii=1,
        )

    def test_fold_raises_ii(self):
        original = self._placement(8)
        folded = reshape_placement(original, [Coord(0, 0), Coord(0, 1)])
        assert folded.time_extended
        assert folded.ii == 4
        assert folded.n_pes == 2
        assert sorted(folded.assignment) == sorted(original.assignment)

    def test_fold_empty_target_rejected(self):
        with pytest.raises(CompilationError):
            reshape_placement(self._placement(4), [])

    def test_pe_waste_formula(self):
        original = self._placement(8)
        folded = reshape_placement(original, [Coord(0, 0), Coord(0, 1)])
        # PE_remapping * II - PE * Unroll = 2*4 - 8*1 = 0
        assert pe_waste(folded, original) == 0

    def test_unroll_adds_copies(self):
        original = self._placement(4)
        spare = [Coord(3, c) for c in range(4)] + [Coord(2, c) for c in range(4)]
        unrolled = unroll_placement(original, spare)
        assert unrolled is not None
        assert unrolled.unroll == 3  # 8 spare // 4 ops = 2 extra copies
        assert unrolled.op_count == 12

    def test_unroll_returns_none_when_no_room(self):
        original = self._placement(8)
        assert unroll_placement(original, [Coord(0, 0)]) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16))
    def test_fold_preserves_ops_any_shape(self, n_ops, n_targets):
        original = self._placement(n_ops)
        targets = list(Grid(4, 4))[:n_targets]
        folded = reshape_placement(original, targets)
        assert sorted(folded.assignment) == sorted(original.assignment)
        assert folded.ii >= max(
            original.ii, -(-n_ops // n_targets)
        ) - 1  # allow rounding slack
        assert folded.ii * folded.n_pes >= n_ops


class TestPipelineArithmetic:
    """The innermost-loop pricing every model uses."""

    def test_basic_formula(self):
        assert pipeline_cycles(1, 10, ii=1, startup=5, drain=3) == 17
        # each entry pays startup + drain; 8 initiations remain
        assert pipeline_cycles(2, 10, ii=1, startup=5, drain=3) == 24

    def test_zero_iterations(self):
        assert pipeline_cycles(0, 0, 1, 5, 3) == 0
        assert pipeline_cycles(1, 0, 1, 5, 3) == 8

    def test_unroll_divides_initiations(self):
        assert pipeline_cycles(1, 10, 1, 0, 0, unroll=2) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 8), st.integers(0, 20),
           st.integers(0, 20), st.integers(1, 4), st.integers(1, 8))
    def test_pipeline_beats_serial(self, iters, ii, startup, drain, unroll,
                                   entries):
        """Never dearer than running each initiation to completion before
        the next, after one startup per entry."""
        initiations = -(-iters // unroll)
        entries = min(entries, initiations)
        serial = entries * startup + initiations * max(drain, ii)
        pipelined = pipeline_cycles(entries, iters, ii, startup, drain, unroll)
        assert pipelined <= serial

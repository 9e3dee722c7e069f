"""CS broadcast network, composed control network, and data mesh tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.arch.network.cs import Broadcast, CSNetwork
from repro.arch.network.cs_benes import ControlMessage, ControlNetwork
from repro.arch.network.mesh import DataMesh
from repro.arch.topology import Coord, Grid


class TestCSNetwork:
    def test_structure(self):
        net = CSNetwork(16)
        assert net.stages == 4
        assert net.switch_count == 32

    def test_single_broadcast(self):
        net = CSNetwork(8)
        out = net.apply([Broadcast(2, 1, 6)], list(range(8)))
        assert out[1:7] == [2] * 6
        assert out[0] is None and out[7] is None

    def test_disjoint_ordered_broadcasts(self):
        net = CSNetwork(8)
        out = net.apply(
            [Broadcast(0, 0, 2), Broadcast(5, 3, 7)], list(range(8))
        )
        assert out == [0, 0, 0, 5, 5, 5, 5, 5]

    def test_overlap_rejected(self):
        net = CSNetwork(8)
        assert not net.admissible([Broadcast(0, 0, 4), Broadcast(1, 3, 6)])

    def test_crossing_order_rejected(self):
        net = CSNetwork(8)
        # Ranges disjoint but source order reversed: paths would cross.
        assert not net.admissible([Broadcast(5, 0, 1), Broadcast(2, 4, 6)])

    def test_out_of_range(self):
        net = CSNetwork(8)
        assert not net.admissible([Broadcast(0, 5, 9)])
        with pytest.raises(NetworkError):
            net.apply([Broadcast(0, 5, 9)], list(range(8)))

    def test_empty_range_rejected(self):
        with pytest.raises(NetworkError):
            Broadcast(0, 5, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True))
    def test_consecutive_partition_always_admissible(self, cuts):
        """Any ordered partition of outputs with sources in range order is
        admissible — the defining consecutive-spreading property."""
        bounds = sorted(set(cuts) | {15})
        broadcasts = []
        lo = 0
        for idx, hi in enumerate(bounds):
            if lo > hi:
                continue
            broadcasts.append(Broadcast(min(lo, 15), lo, hi))
            lo = hi + 1
        net = CSNetwork(16)
        assert net.admissible(broadcasts)


class TestControlNetwork:
    def test_disjoint_multicasts_delivered(self):
        net = ControlNetwork(16)
        report = net.offer([
            ControlMessage.to(0, [4, 5, 6], "a"),
            ControlMessage.to(1, [7, 8], "b"),
        ])
        assert len(report.delivered) == 2
        assert report.latency == 1

    def test_destination_conflict_rejected(self):
        net = ControlNetwork(16)
        report = net.offer([
            ControlMessage.to(0, [4, 5], "a"),
            ControlMessage.to(1, [5, 6], "b"),
        ])
        assert len(report.delivered) == 1
        assert len(report.rejected) == 1
        assert net.conflicts == 1

    def test_source_conflict_rejected(self):
        net = ControlNetwork(16)
        report = net.offer([
            ControlMessage.to(3, [4], "a"),
            ControlMessage.to(3, [5], "b"),
        ])
        assert len(report.delivered) == 1

    def test_realise_functional(self):
        net = ControlNetwork(16)
        out = net.realise([
            ControlMessage.to(2, [9, 10, 11], 0x42),
            ControlMessage.to(5, [0, 1], 0x17),
        ])
        assert out == {9: 0x42, 10: 0x42, 11: 0x42, 0: 0x17, 1: 0x17}

    def test_realise_rejects_conflicts(self):
        net = ControlNetwork(16)
        with pytest.raises(NetworkError):
            net.realise([
                ControlMessage.to(0, [3], "a"),
                ControlMessage.to(1, [3], "b"),
            ])

    def test_out_of_range_ports(self):
        net = ControlNetwork(16)
        with pytest.raises(NetworkError):
            net.offer([ControlMessage.to(99, [0], "x")])
        with pytest.raises(NetworkError):
            net.offer([ControlMessage.to(0, [99], "x")])

    def test_switch_count_matches_prototype(self):
        # Two 16x16 CS stages + one 64x64 Benes (Fig. 6(c)).
        assert ControlNetwork(16).switch_count == 32 + 32 + 352


class TestGridAndMesh:
    def test_index_coord_roundtrip(self):
        grid = Grid(4, 4)
        for idx in range(16):
            assert grid.index(grid.coord(idx)) == idx

    def test_xy_path_endpoints_and_length(self):
        grid = Grid(4, 4)
        src, dst = Coord(0, 0), Coord(3, 2)
        path = grid.xy_path(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == src.manhattan(dst)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_xy_path_is_connected(self, a, b):
        grid = Grid(4, 4)
        path = grid.xy_path(grid.coord(a), grid.coord(b))
        for u, v in zip(path, path[1:]):
            assert u.manhattan(v) == 1

    def test_mesh_latency_zero_for_same_pe(self):
        mesh = DataMesh(Grid(4, 4))
        edge = mesh.route(Coord(1, 1), Coord(1, 1))
        assert mesh.latency(edge) == 0

    def test_congestion_counts_shared_links(self):
        mesh = DataMesh(Grid(4, 4))
        for _ in range(3):
            mesh.route(Coord(0, 0), Coord(0, 3))
        assert mesh.congestion_ii() == 3
        assert DataMesh(Grid(4, 4)).congestion_ii() == 1

"""CS broadcast network, composed control network, and data mesh tests."""

from collections import Counter

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

    def test_congestion_counts_shared_links(self):
        grid = Grid(4, 4)
        mesh = DataMesh(grid)
        for _ in range(3):
            mesh.route(Coord(0, 0), Coord(0, 3))
        assert (mesh.congestion_ii(), mesh.wirelength) == (3, 9)
        mesh.remove(grid.index(Coord(0, 0)), grid.index(Coord(0, 3)))
        assert (mesh.congestion_ii(), mesh.wirelength) == (2, 6)
        mesh.add(5, 5)  # same PE: register forwarding, no link
        assert (mesh.congestion_ii(), mesh.wirelength) == (2, 6)
        assert DataMesh(grid).congestion_ii() == 1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(4, 4), (8, 8)]), st.data())
    def test_link_loads_match_a_fresh_route(self, shape, data):
        """After any mix of ``route``, ``add`` and ``remove``, the mesh
        reports what a fresh mesh routing only the live edges reports, and
        what the edges' XY paths add up to."""
        grid = Grid(*shape)
        # Endpoints from a corner of the array, so routes overlap.
        pe = st.integers(0, grid.size - 1).map(
            lambda i: i if data.draw(st.booleans()) else i % 6
        )
        mesh = DataMesh(grid)
        live = []
        for _ in range(data.draw(st.integers(1, 40))):
            action = data.draw(st.sampled_from(("route", "add", "remove")))
            if action == "remove" and live:
                mesh.remove(*live.pop(
                    data.draw(st.integers(0, len(live) - 1))
                ))
            else:
                src, dst = data.draw(pe), data.draw(pe)
                live.append((src, dst))
                if action == "add":
                    mesh.add(src, dst)
                else:
                    mesh.route(grid.coord(src), grid.coord(dst))
            fresh = DataMesh(grid)
            paths = []
            for a, b in live:
                fresh.route(grid.coord(a), grid.coord(b))
                paths.append(grid.xy_path(grid.coord(a), grid.coord(b)))
            links = Counter(
                link for path in paths for link in zip(path, path[1:])
            )
            assert mesh.congestion_ii() == fresh.congestion_ii() == max(
                [1, *links.values()]
            )
            assert mesh.wirelength == fresh.wirelength == sum(
                len(path) - 1 for path in paths
            )

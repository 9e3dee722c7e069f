"""Architecture parameter validation and derived quantities."""

import pytest

from repro.errors import ConfigurationError
from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.arch.topology import Coord, Grid


class TestArchParams:
    def test_default_matches_prototype(self):
        assert DEFAULT_PARAMS.n_pes == 16
        assert DEFAULT_PARAMS.nonlinear_pes == 4
        assert DEFAULT_PARAMS.frequency_mhz == 500
        assert DEFAULT_PARAMS.technology_nm == 28
        assert DEFAULT_PARAMS.sram_kb == 16
        assert DEFAULT_PARAMS.inst_scratchpad_kb == 2

    def test_relative_timings_match_paper(self):
        # Section 2.3 / Fig. 4(d).
        assert DEFAULT_PARAMS.t_config == 1
        assert DEFAULT_PARAMS.t_execute == 2
        assert DEFAULT_PARAMS.ctrl_net_latency == 1
        assert DEFAULT_PARAMS.data_net_latency == 6

    def test_ccu_round_trip_is_two_traversals_plus_work(self):
        expected = 2 * DEFAULT_PARAMS.data_net_latency + 1 + 1
        assert DEFAULT_PARAMS.ccu_round_trip == expected

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            ArchParams(rows=0)
        with pytest.raises(ConfigurationError):
            ArchParams(cols=-1)

    def test_too_many_nonlinear_pes(self):
        with pytest.raises(ConfigurationError):
            ArchParams(rows=1, cols=2, nonlinear_pes=4)

    def test_nonpositive_latency(self):
        with pytest.raises(ConfigurationError):
            ArchParams(t_config=0)
        with pytest.raises(ConfigurationError):
            ArchParams(data_net_latency=-2)

    @pytest.mark.parametrize("field_name, value", [
        ("sram_banks", 0),
        ("sram_kb", -1),
        ("inst_scratchpad_kb", -4),
        ("control_fifo_depth", -8),
        ("frequency_mhz", -500),
        ("data_width_bits", -32),
        ("technology_nm", 0),
    ])
    def test_nonpositive_capacity_rejected(self, field_name, value):
        with pytest.raises(ConfigurationError) as excinfo:
            ArchParams(**{field_name: value})
        assert field_name in str(excinfo.value)

    def test_negative_nonlinear_pes_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ArchParams(nonlinear_pes=-1)
        assert "nonlinear_pes" in str(excinfo.value)

    def test_zero_nonlinear_pes_allowed(self):
        assert ArchParams(nonlinear_pes=0).nonlinear_pes == 0

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ArchParams(control_topology="torus")
        assert "control_topology" in str(excinfo.value)

    def test_scaled_clamps_nonlinear(self):
        scaled = DEFAULT_PARAMS.scaled(1, 2)
        assert scaled.n_pes == 2
        assert scaled.nonlinear_pes == 2

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PARAMS.rows = 8  # type: ignore[misc]


class TestControlTransferLatency:
    def test_cs_benes_is_calibrated_baseline(self):
        assert DEFAULT_PARAMS.control_topology == "cs_benes"
        assert DEFAULT_PARAMS.control_transfer_latency \
            == DEFAULT_PARAMS.ctrl_net_latency

    def test_partial_networks_serialize_transfers(self):
        for topology in ("cs", "benes"):
            params = ArchParams(control_topology=topology)
            assert params.control_transfer_latency \
                == 2 * params.ctrl_net_latency

    def test_mesh_rides_the_data_network(self):
        params = ArchParams(control_topology="mesh")
        assert params.control_transfer_latency == params.data_net_latency


class TestGridEdgeCases:
    def test_rectangular_grid(self):
        grid = Grid(2, 6)
        assert grid.size == 12
        assert grid.coord(7) == Coord(1, 1)

    def test_out_of_range_index(self):
        grid = Grid(2, 2)
        with pytest.raises(ConfigurationError):
            grid.coord(4)
        with pytest.raises(ConfigurationError):
            grid.index(Coord(2, 0))

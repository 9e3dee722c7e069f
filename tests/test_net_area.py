"""Area/delay model tests (Table 4/6 calibration, Fig. 13 scaling)."""

import pytest

from repro.errors import ConfigurationError
from repro.arch.network.area import (
    NetworkAreaModel,
    benes_switch_count,
    cs_switch_count,
    delay_model,
    scaling_series,
    stages_for_array,
)
from repro.perf.area import table4_rows, table6_rows


class TestCalibration:
    def test_control_network_area_matches_table4(self):
        assert NetworkAreaModel().control_network_area() == pytest.approx(
            0.0022, rel=1e-6
        )

    def test_data_network_area_matches_table4(self):
        assert NetworkAreaModel().data_network_area() == pytest.approx(
            0.0063, rel=1e-6
        )

    def test_total_network_near_table6(self):
        marionette = next(row for row in table6_rows()
                          if row["architecture"] == "Marionette")
        assert marionette["network_area"] == pytest.approx(0.0118,
                                                           abs=0.0008)

    def test_switch_count_helpers(self):
        assert benes_switch_count(64) == 352
        assert cs_switch_count(16) == 32

    def test_area_scales_with_pes(self):
        small = NetworkAreaModel(n_pes=16)
        large = NetworkAreaModel(n_pes=64)
        assert large.control_network_area() > small.control_network_area()
        assert large.data_network_area() > small.data_network_area()


class TestDelayModel:
    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            delay_model(0, 1.0)
        with pytest.raises(ConfigurationError):
            delay_model(5, 0.0)

    def test_delay_monotonic_in_stages(self):
        delays = [
            delay_model(s, 1.0)["network_delay_ns"] for s in range(1, 20)
        ]
        assert delays == sorted(delays)

    def test_tighter_clock_buys_faster_cells(self):
        relaxed = delay_model(11, 0.5)["network_delay_ns"]
        tight = delay_model(11, 2.0)["network_delay_ns"]
        assert tight < relaxed

    def test_cycles_grow_slowly_with_frequency(self):
        # The Fig. 13 claim: latency stays low even at high frequency.
        for stages in (7, 11, 19):
            cycles = delay_model(stages, 2.0)["latency_cycles"]
            assert cycles <= 6

    def test_prototype_single_cycle_at_500mhz(self):
        stages = stages_for_array(16)
        assert delay_model(stages, 0.5)["meets_single_cycle"]

    def test_scaling_series_covers_grid(self):
        series = scaling_series((3, 5), (0.5, 1.0))
        assert len(series) == 4


class TestTable4:
    def test_totals_match_paper(self):
        rows = table4_rows()
        total = rows[-1]
        assert total["area_mm2"] == pytest.approx(0.151, abs=0.004)
        assert total["power_mw"] == pytest.approx(152.09, abs=0.5)

    def test_component_count(self):
        assert len(table4_rows()) == 9  # 8 components + total

    def test_groups_present(self):
        groups = {r["group"] for r in table4_rows()}
        assert groups == {"PE", "Network", "Memory", "Control", "Total"}

    def test_scaling_to_larger_array_increases_area(self):
        from repro.arch.params import ArchParams

        def total_area(params):
            return next(row["area_mm2"] for row in table4_rows(params)
                        if row["group"] == "Total")

        assert total_area(ArchParams(rows=8, cols=8)) > total_area(
            ArchParams())


class TestTable6:
    def test_marionette_ratio_near_paper(self):
        rows = table6_rows()
        ours = [r for r in rows if r["architecture"] == "Marionette"][0]
        assert ours["network_ratio"] == pytest.approx(0.115, abs=0.02)

    def test_marionette_has_lowest_ratio(self):
        rows = table6_rows()
        ratios = {r["architecture"]: r["network_ratio"] for r in rows}
        ours = ratios.pop("Marionette")
        assert all(ours < other for other in ratios.values())

    def test_published_rows_present(self):
        archs = {r["architecture"] for r in table6_rows()}
        assert {"Softbrain", "REVEL", "DySER", "Plasticine", "SPU",
                "Marionette"} <= archs

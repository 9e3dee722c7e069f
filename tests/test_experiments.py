"""Integration tests: every table/figure experiment runs and reproduces the
paper's *shape* (orderings and coarse bands) at tiny scale."""

import pytest

from repro.experiments import (
    fig11_pe_models,
    fig12_control_network,
    fig13_network_scaling,
    fig14_agile,
    fig15_utilization,
    fig16_balance,
    fig17_sota,
    report,
    table4_area,
    table6_network_area,
)

SCALE = "tiny"


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_pe_models.run(SCALE)

    def test_ten_intensive_rows(self, result):
        assert len(result.rows) == 10

    def test_marionette_wins_geomean(self, result):
        assert result.summary["geomean speedup vs von Neumann PE"] > 1.05
        assert result.summary["geomean speedup vs dataflow PE"] > 1.1

    def test_branch_share_axis_is_meaningful(self, result):
        shares = {r["kernel"]: r["ops_under_branch_pct"] for r in result.rows}
        # Branch-free GEMM sits at zero; branch-under kernels are nonzero
        # (HT's whole theta loop is under the pixel threshold branch).
        assert shares["GEMM"] == 0.0
        for kernel in ("MS", "HT", "CRC", "ADPCM"):
            assert shares[kernel] > 0.0

    def test_renders(self, result):
        table = result.to_table()
        assert "Figure 11" in table and "MS" in table


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_control_network.run(SCALE)

    def test_network_never_hurts(self, result):
        assert all(r["with_control_network"] >= 1.0 for r in result.rows)

    def test_geomean_band(self, result):
        assert 1.02 <= result.summary["geomean control-network speedup"] <= 1.6

    def test_partially_pipelined_kernels_gain_most(self, result):
        gains = {r["kernel"]: r["with_control_network"] for r in result.rows}
        exposed = max(gains["CRC"], gains["ADPCM"], gains["MS"])
        hidden = min(gains["SCD"], gains["NW"])
        assert exposed > hidden


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_network_scaling.run()

    def test_grid_of_points(self, result):
        assert len(result.rows) == 27  # 9 stage counts x 3 frequencies

    def test_delay_monotonic_per_frequency(self, result):
        by_freq = {}
        for row in result.rows:
            by_freq.setdefault(row["frequency_ghz"], []).append(
                row["network_delay_ns"]
            )
        for delays in by_freq.values():
            assert delays == sorted(delays)

    def test_prototype_is_single_cycle(self, result):
        assert result.summary["prototype latency cycles @500MHz"] == 1.0


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_agile.run(SCALE)

    def test_agile_never_hurts(self, result):
        assert all(r["with_agile"] >= 0.999 for r in result.rows)

    def test_geomean_band(self, result):
        assert 1.2 <= result.summary["geomean Agile speedup"] <= 3.5

    def test_regular_kernels_gain_most(self, result):
        gains = {r["kernel"]: r["with_agile"] for r in result.rows}
        assert max(gains["HT"], gains["GEMM"], gains["VI"]) > 1.8
        assert gains["ADPCM"] == pytest.approx(1.0, abs=0.05)


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_utilization.run(SCALE)

    def test_seven_nested_kernels(self, result):
        assert len(result.rows) == 7

    def test_gains_at_least_neutral(self, result):
        for row in result.rows:
            assert row["outer_util_gain"] >= 0.99
            assert row["pipe_util_gain"] >= 0.99

    def test_mean_gains_positive(self, result):
        assert result.summary["mean outer-BB utilization gain"] > 1.5
        assert result.summary["mean pipeline utilization gain"] > 1.05


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self):
        return fig16_balance.run(SCALE)

    def test_paper_grouping(self, result):
        dominant = {r["kernel"]: r["dominant"] for r in result.rows}
        # Partially-pipelined kernels: the network matters, Agile doesn't.
        for kernel in ("CRC", "ADPCM"):
            assert dominant[kernel] == "network", dominant
        # Regular imperfect nests: Agile dominates.
        for kernel in ("VI", "HT", "SCD", "GEMM"):
            assert dominant[kernel] == "pipeline", dominant


class TestCrossFigureLaws:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_fig16_gains_are_the_gains_of_figs_12_and_14(self, scale):
        # Fig. 16 sets the two feature speedups of Figs. 12 and 14 side
        # by side: on each of its ten kernels, both must be the very
        # numbers those figures print.
        fig16 = fig16_balance.run(scale).rows
        assert len(fig16) == 10
        for module, column in ((fig12_control_network,
                                "network_speedup_pct"),
                               (fig14_agile, "agile_speedup_pct")):
            gains = {row["kernel"]: row["improvement_pct"]
                     for row in module.run(scale).rows}
            assert {row["kernel"]: row[column] for row in fig16} \
                == {row["kernel"]: gains[row["kernel"]] for row in fig16}


class TestFig17:
    @pytest.fixture(scope="class")
    def result(self):
        return fig17_sota.run(SCALE)

    def test_thirteen_rows(self, result):
        assert len(result.rows) == 13

    def test_marionette_wins_every_rival_geomean(self, result):
        for rival in ("softbrain", "tia", "revel", "riptide"):
            assert result.summary[f"geomean speedup vs {rival}"] > 1.1

    def test_revel_is_closest(self, result):
        gaps = {
            rival: result.summary[f"geomean speedup vs {rival}"]
            for rival in ("softbrain", "tia", "revel", "riptide")
        }
        assert gaps["revel"] == min(gaps.values())

    def test_non_intensive_parity(self, result):
        assert 0.7 <= result.summary[
            "geomean vs best rival (non-intensive)"
        ] <= 1.4

    def test_marionette_fastest_on_every_intensive_kernel(self, result):
        for row in result.rows:
            if row["group"] != "intensive":
                continue
            rivals = [row[r] for r in ("softbrain", "tia", "revel",
                                       "riptide")]
            assert row["marionette"] >= max(rivals) * 0.95, row["kernel"]


class TestTables:
    def test_table4_totals(self):
        result = table4_area.run()
        assert result.summary["total area mm^2"] == pytest.approx(
            0.151, abs=0.005
        )
        assert result.summary["total power mW"] == pytest.approx(
            152.09, abs=1.0
        )

    def test_table6_ratio(self):
        result = table6_network_area.run()
        assert result.summary["marionette network ratio pct"] < 20.0


class TestReport:
    def test_full_report_renders(self):
        text = "\n".join(report.report_lines(report.run_all(SCALE),
                                             SCALE, 0))
        for fragment in ("Figure 11", "Figure 17", "Table 4", "Table 6"):
            assert fragment in text
        assert len(text) > 2000

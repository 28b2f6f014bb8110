"""Tests for the experiment runner and the paper's table/figure definitions."""

import pytest

from repro.experiments.executor import execute_jobs
from repro.experiments.jobs import plan_sweep
from repro.experiments.paper import (
    EXPERIMENTS,
    PAPER_PROTOCOLS,
    SEQUENCE_NUMBER_PROTOCOLS,
    EvaluationScale,
    figure,
    figure_text,
    table1,
    table1_text,
)
from repro.experiments.runner import collect_sweep
from repro.workloads.scenario import PAPER_PAUSE_TIMES, scaled_scenario


@pytest.fixture(scope="module")
def tiny_results():
    """One very small sweep shared by every test in this module."""
    scenario = scaled_scenario(
        node_count=12,
        flow_count=2,
        duration=15.0,
        terrain_width=800,
        terrain_height=300,
    )
    protocols, pause_times = ["SRP", "AODV", "LDR"], (0.0, 15.0)
    jobs = plan_sweep(scenario, protocols, pause_times=pause_times, trials=1)
    return collect_sweep(
        execute_jobs(jobs), pause_times=pause_times, trials=1, protocols=protocols
    )


class TestExperimentDefinitions:
    def test_every_table_and_figure_is_defined(self):
        assert set(EXPERIMENTS) == {"table1", "fig3", "fig4", "fig5", "fig6", "fig7"}

    def test_figures_cover_the_paper_metrics(self):
        assert EXPERIMENTS["fig3"].metric == "mac_drops"
        assert EXPERIMENTS["fig4"].metric == "delivery_ratio"
        assert EXPERIMENTS["fig5"].metric == "network_load"
        assert EXPERIMENTS["fig6"].metric == "latency"
        assert EXPERIMENTS["fig7"].metric == "sequence_number"

    def test_fig7_limits_protocols_to_sequence_number_users(self):
        assert tuple(EXPERIMENTS["fig7"].protocols) == tuple(SEQUENCE_NUMBER_PROTOCOLS)

    def test_paper_protocol_list(self):
        assert tuple(PAPER_PROTOCOLS) == ("SRP", "LDR", "AODV", "DSR", "OLSR")


class TestEvaluationScales:
    def test_paper_scale_matches_paper(self):
        scale = EvaluationScale.paper()
        assert scale.scenario.node_count == 100
        assert scale.trials == 10
        assert tuple(scale.pause_times) == PAPER_PAUSE_TIMES

    def test_benchmark_and_smoke_scales_are_smaller(self):
        benchmark = EvaluationScale.benchmark()
        smoke = EvaluationScale.smoke()
        assert benchmark.scenario.node_count < 100
        assert smoke.scenario.node_count <= benchmark.scenario.node_count
        assert smoke.trials <= benchmark.trials


class TestSweep:
    def test_all_cells_present(self, tiny_results):
        assert len(tiny_results.summaries) == 3 * 2 * 1  # protocols x pauses x trials

    def test_metric_values_per_pause(self, tiny_results):
        values = tiny_results.metric_values("SRP", "delivery_ratio", 0.0)
        assert len(values) == 1
        assert 0.0 <= values[0] <= 1.0

    def test_metric_over_all_pauses(self, tiny_results):
        values = tiny_results.metric_over_all_pauses("AODV", "network_load")
        assert len(values) == 2

    def test_offered_load_identical_across_protocols(self, tiny_results):
        """Per-trial mobility/traffic scripts are shared by all protocols."""
        for pause in (0.0, 15.0):
            sent = {
                protocol: tiny_results.summaries[(protocol, pause, 0)].data_sent
                for protocol in ("SRP", "AODV", "LDR")
            }
            assert len(set(sent.values())) == 1

    def test_results_shape(self, tiny_results):
        assert set(tiny_results.protocols) == {"SRP", "AODV", "LDR"}
        for protocol in tiny_results.protocols:
            by_pause = tiny_results.metric_by_pause(protocol, "delivery_ratio")
            assert set(by_pause) == {0.0, 15.0}


class TestTableAndFigures:
    def test_table1_has_all_protocols_and_metrics(self, tiny_results):
        table = table1(tiny_results)
        assert set(table) == {"SRP", "AODV", "LDR"}
        for row in table.values():
            assert set(row) == {"delivery_ratio", "network_load", "latency"}

    def test_table1_text_renders(self, tiny_results):
        text = table1_text(tiny_results)
        assert "Table I" in text
        assert "SRP" in text and "AODV" in text

    @pytest.mark.parametrize("figure_id", ["fig3", "fig4", "fig5", "fig6", "fig7"])
    def test_each_figure_renders(self, tiny_results, figure_id):
        series = figure(figure_id, tiny_results)
        assert list(series.x_values) == [0.0, 15.0]
        text = figure_text(figure_id, tiny_results)
        assert "pause time" in text

    def test_figure_rejects_table_id(self, tiny_results):
        with pytest.raises(ValueError):
            figure("table1", tiny_results)

    def test_srp_sequence_number_is_zero_in_fig7(self, tiny_results):
        series = figure("fig7", tiny_results)
        assert all(interval.mean == 0.0 for interval in series.by_protocol["SRP"])


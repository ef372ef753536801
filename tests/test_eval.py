"""Tests for the evaluation harness (figure runners, reporting, timing)."""

import pytest

from repro.core.params import TxAlloParams
from repro.data.synthetic import card_from_sets
from repro.errors import ParameterError
from repro.eval import experiments
from repro.eval.reporting import ascii_bar_chart, ascii_line_chart, format_table
from repro.eval.timing import Timer, time_call


@pytest.fixture(scope="module")
def tiny_workload():
    return experiments.build_workload(scale=0.05, seed=4)


@pytest.fixture(scope="module")
def tiny_records(tiny_workload):
    return experiments.sweep(tiny_workload, ks=(2, 8), etas=(2.0, 6.0))


class TestBuildWorkload:
    def test_scale_controls_size(self):
        small = experiments.build_workload(scale=0.05)
        assert small.num_transactions == 3000
        assert small.graph.num_transactions == 3000

    def test_invalid_scale(self):
        with pytest.raises(ParameterError):
            experiments.build_workload(scale=0.0)

    def test_overrides_forwarded(self):
        w = experiments.build_workload(scale=0.05, block_size=10)
        assert w.config.block_size == 10

    def test_card_computed(self, tiny_workload):
        assert tiny_workload.card.num_transactions == tiny_workload.num_transactions

    def test_card_derived_on_first_read(self):
        w = experiments.build_workload(scale=0.05, seed=4)
        assert "card" not in vars(w)
        card = w.card
        assert card == card_from_sets(w.account_sets)
        assert w.card is card


class TestRunMethod:
    def test_unknown_method_rejected(self, tiny_workload):
        params = TxAlloParams.with_capacity_for(tiny_workload.num_transactions, k=2)
        with pytest.raises(ParameterError):
            experiments.run_method("quantum", tiny_workload, params)

    @pytest.mark.parametrize("method", experiments.METHODS)
    def test_all_methods_produce_metrics(self, tiny_workload, method):
        params = TxAlloParams.with_capacity_for(tiny_workload.num_transactions, k=4)
        rec = experiments.run_method(method, tiny_workload, params)
        assert 0.0 <= rec.cross_shard_ratio <= 1.0
        assert rec.throughput_x > 0.0
        assert rec.avg_latency >= 1.0
        assert len(rec.normalized_workloads) == 4
        assert rec.runtime_seconds >= 0.0


class TestSweepAndFigures:
    def test_grid_size(self, tiny_records):
        assert len(tiny_records) == 2 * 2 * len(experiments.METHODS)

    def test_figure2_series_structure(self, tiny_records):
        fig = experiments.figure2(tiny_records)
        assert set(fig.panels) == {2.0, 6.0}
        panel = fig.panel(2.0)
        expected = {experiments.method_label(m) for m in experiments.METHODS}
        assert set(panel) == expected
        for pts in panel.values():
            assert [x for x, _ in pts] == sorted(x for x, _ in pts)

    def test_value_lookup(self, tiny_records):
        fig = experiments.figure2(tiny_records)
        v = fig.value(2.0, "txallo", 8)
        assert 0.0 <= v <= 1.0
        with pytest.raises(KeyError):
            fig.value(2.0, "txallo", 999)

    def test_all_sweep_figures_render(self, tiny_records):
        for builder in (
            experiments.figure2,
            experiments.figure3,
            experiments.figure5,
            experiments.figure6,
            experiments.figure7,
            experiments.figure8,
        ):
            text = builder(tiny_records).render()
            assert "eta = 2" in text
            assert "Our Method" in text

    def test_figure1_renders(self, tiny_workload):
        text = experiments.figure1(tiny_workload).render()
        assert "top account share" in text

    def test_figure4_distributions(self, tiny_workload):
        report = experiments.figure4(tiny_workload, k=4, eta=2.0)
        expected = {experiments.method_label(m) for m in experiments.METHODS}
        assert set(report.distributions) == expected
        for dist in report.distributions.values():
            assert len(dist) == 4
        assert "capacity line" in report.render()

    def test_paper_shape_txallo_beats_random_on_gamma(self, tiny_records):
        fig = experiments.figure2(tiny_records)
        for eta in (2.0, 6.0):
            assert fig.value(eta, "txallo", 8) < fig.value(eta, "random", 8)

    def test_paper_shape_txallo_best_throughput_of_graph_methods(self, tiny_records):
        fig = experiments.figure5(tiny_records)
        for eta in (2.0, 6.0):
            assert fig.value(eta, "txallo", 8) >= fig.value(eta, "metis", 8) - 0.3
            assert fig.value(eta, "txallo", 8) > fig.value(eta, "random", 8)


class TestAdaptiveFigures:
    def test_figure9_runs(self, tiny_workload):
        report = experiments.figure9(
            tiny_workload, k=4, eta=2.0, gaps=(3,), max_steps=6, split_ratio=0.5
        )
        assert "Global Method" in report.runs
        assert "Gap=3" in report.runs
        run = report.runs["Gap=3"]
        assert len(run.steps) == 6
        kinds = [s.kind for s in run.steps]
        assert kinds[2] == "global"  # every 3rd step
        assert kinds[0] == "adaptive"
        assert report.render()

    def test_figure9_throughput_reasonable(self, tiny_workload):
        report = experiments.figure9(
            tiny_workload, k=4, eta=2.0, gaps=(4,), max_steps=4, split_ratio=0.5
        )
        for run in report.runs.values():
            assert 0.5 <= run.mean_throughput <= 4.0 + 1e-6

    def test_figure10_runs(self, tiny_workload):
        report = experiments.figure10(
            tiny_workload, k=4, max_steps=5, global_gap=2, split_ratio=0.5
        )
        assert len(report.pure.steps) == 5
        assert len(report.hybrid.steps) == 5
        assert all(s.kind == "global" for s in report.pure.steps)
        assert report.render()

    def test_adaptive_steps_faster_than_global(self, tiny_workload):
        report = experiments.figure10(
            tiny_workload, k=4, max_steps=6, global_gap=6, split_ratio=0.5
        )
        pure_mean = sum(s.runtime_seconds for s in report.pure.steps) / 6
        assert report.hybrid.mean_adaptive_runtime < pure_mean


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "x"], [["a", 1.0], ["bb", 2.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "2.500" in lines[3]

    def test_line_chart_contains_markers_and_legend(self):
        chart = ascii_line_chart(
            {"one": [(0, 0.0), (1, 1.0)], "two": [(0, 1.0), (1, 0.0)]},
            title="t",
        )
        assert "o=one" in chart and "x=two" in chart
        assert chart.startswith("t")

    def test_line_chart_empty(self):
        assert "(no data)" in ascii_line_chart({}, title="t")

    def test_bar_chart_reference_line(self):
        chart = ascii_bar_chart([0.5, 2.0], labels=["a", "b"], reference=1.0)
        assert "|" in chart
        assert "2.00" in chart

    def test_bar_chart_empty(self):
        assert "(no data)" in ascii_bar_chart([], title="t")


class TestTiming:
    def test_timer_context(self):
        with Timer() as t:
            sum(range(100))
        assert t.seconds >= 0.0

    def test_time_call(self):
        result, seconds = time_call(lambda a, b: a + b, 2, b=3)
        assert result == 5
        assert seconds >= 0.0

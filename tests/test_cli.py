"""Tests for the txallo CLI."""

import pytest

from repro.cli import build_parser, main
from repro.eval import experiments


class TestParser:
    def test_figure_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_list_parsing(self):
        args = build_parser().parse_args(["fig2", "--ks", "2,4,8", "--etas", "2,6"])
        assert args.ks == [2, 4, 8]
        assert args.etas == [2.0, 6.0]

    def test_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.scale == 0.5
        assert args.k == 20
        assert args.methods is None

    def test_methods_parsing(self):
        args = build_parser().parse_args(
            ["fig2", "--methods", "txallo, metis,prefix"]
        )
        assert args.methods == ["txallo", "metis", "prefix"]

    def test_live_compare_accepted(self):
        args = build_parser().parse_args(["live-compare", "--lam", "12.5"])
        assert args.figure == "live-compare"
        assert args.lam == 12.5

    def test_matrix_accepted(self):
        args = build_parser().parse_args(
            ["matrix", "--spec", "spec.json", "--out", "results"]
        )
        assert args.figure == "matrix"
        assert args.spec == "spec.json"
        assert args.out == "results"

    def test_matrix_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.spec is None
        assert args.out is None

    def test_workers_defaults_to_one(self):
        assert build_parser().parse_args(["fig2"]).workers == 1
        assert build_parser().parse_args(["fig2", "--workers", "3"]).workers == 3

    @pytest.mark.parametrize("bad", ["0", "-3", "two"])
    def test_workers_below_one_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig2", "--workers", bad])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_fault_seed_without_faults_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["live-compare", "--fault-seed", "3"])
        assert excinfo.value.code == 2
        assert "--fault-seed requires --faults" in capsys.readouterr().err

    def test_workers_help_names_the_grid_only(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "sweep/fig4 grid and the matrix" in help_text
        assert "TxAlloParams.workers" not in help_text
        assert "'parallel'" not in help_text


class TestMain:
    def test_fig1(self, capsys):
        assert main(["fig1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--scale", "0.05", "--ks", "2,4", "--etas", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Our Method" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--scale", "0.05", "--k", "4"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--scale", "0.05", "--k", "4", "--steps", "3"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    @pytest.mark.parametrize("figure", ["fig9", "fig10"])
    def test_adaptive_figures_do_not_take_workers(self, figure, monkeypatch, capsys):
        seen = {}

        class _Report:
            def render(self):
                return "stub"

        def fake(workload, **kwargs):
            seen.update(kwargs)
            return _Report()

        monkeypatch.setattr(experiments, "figure9", fake)
        monkeypatch.setattr(experiments, "figure10", fake)
        assert main([figure, "--scale", "0.05", "--workers", "2"]) == 0
        assert seen and "workers" not in seen

    def test_fig2_registry_methods(self, capsys):
        assert main([
            "fig2", "--scale", "0.05", "--ks", "2,4", "--etas", "2",
            "--methods", "txallo,prefix",
        ]) == 0
        out = capsys.readouterr().out
        assert "Prefix" in out
        assert "Shard Scheduler" not in out

    def test_unknown_method_rejected(self, capsys):
        assert main(["fig2", "--methods", "bogus"]) == 2
        assert "unknown allocator" in capsys.readouterr().err

    def test_live_compare_runs(self, capsys):
        assert main(["live-compare", "--scale", "0.05", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "Live comparison" in out
        assert "committed TPS" in out
        for label in ("Our Method", "Random", "Metis", "Shard Scheduler"):
            assert label in out

    def test_matrix_smoke_spec(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "Scenario matrix" in out
        assert "ethereum" in out
        assert "hotspot" in out

    def test_matrix_custom_spec_and_artifacts(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"topologies": ["adversarial"], "scales": [0.02],'
            ' "allocators": ["txallo", "hash"], "reps": 1}'
        )
        out_dir = tmp_path / "out"
        assert main(
            ["matrix", "--spec", str(spec_path), "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "adversarial" in out
        assert (out_dir / "run_table.csv").exists()
        assert (out_dir / "spec.json").exists()

    def test_matrix_bad_spec_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"allocators": ["bogus"]}')
        assert main(["matrix", "--spec", str(spec_path)]) == 2
        assert "bogus" in capsys.readouterr().err

"""Experiment harness: microbenchmarks fully, figures on app subsets."""

import pytest

from repro.experiments import (
    batching,
    common,
    fig1,
    fig2,
    fig5,
    fig6,
    fig10,
    io_micro,
    registry,
    report,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.__main__ import main

#: A small, fast subset covering the three imbalance classes.
SUBSET = ["swaptions", "bodytrack", "ep.D"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    common.default_runner().store.clear()
    yield
    common.default_runner().store.clear()


class TestMicrobenchExperiments:
    def test_table3_exact(self):
        assert table3.SCENARIO.run(verbose=False).max_relative_error() < 0.01

    def test_fig5_totals(self):
        result = fig5.SCENARIO.run(verbose=False)
        assert result.totals["native"] == pytest.approx(0.9e-6)
        assert result.totals["guest"] == pytest.approx(10.9e-6)

    def test_io_micro_matches(self):
        assert io_micro.SCENARIO.run(verbose=False).matches_paper()


class TestSubsetExperiments:
    def test_fig1_subset(self, capsys):
        result = fig1.SCENARIO.run(apps=SUBSET)
        assert set(result.overheads) == set(SUBSET)
        out = capsys.readouterr().out
        assert "Figure 1" in out
        for name in SUBSET:
            assert name in out

    def test_fig2_subset(self):
        result = fig2.SCENARIO.run(apps=SUBSET, verbose=False)
        assert set(result.improvements) == set(SUBSET)
        for app in SUBSET:
            assert result.spread(app) >= 0.0

    def test_table1_subset(self):
        result = table1.SCENARIO.run(apps=SUBSET, verbose=False)
        assert len(result.rows) == 3
        by_app = {r.app: r for r in result.rows}
        # swaptions: both placements stay imbalanced (one dominant page).
        assert by_app["swaptions"].r4k_imbalance > 1.0

    def test_table2_subset(self):
        result = table2.SCENARIO.run(apps=SUBSET, verbose=False)
        assert {r.app for r in result.rows} == set(SUBSET)

    def test_table4_subset(self):
        result = table4.SCENARIO.run(apps=SUBSET, verbose=False)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.best_linux
            assert row.best_xen

    def test_fig6_fig10_share_runs(self):
        memo = common.default_runner().store.data
        fig6.SCENARIO.run(apps=["swaptions"], verbose=False)
        before = dict(memo)
        fig10.SCENARIO.run(apps=["swaptions"], verbose=False)
        # fig10 reuses fig6's Linux runs (cache only grows by Xen sweeps).
        assert set(before).issubset(set(memo))

    def test_batching_microbench(self):
        result = batching.SCENARIO.run(verbose=False)
        assert result.unbatched_slowdown > 2.0
        assert abs(result.invalidation_share - 0.875) < 0.02


class TestRunnersAndCache:
    def test_linux_run_memoised(self):
        request = common.linux_request("swaptions", "first-touch")
        a = common.default_runner().resolve([request]).one(request)
        b = common.default_runner().resolve([request]).one(request)
        assert a is b

    def test_linux_numa_picks_minimum(self):
        results = common.default_runner().resolve(
            common.linux_numa_requests("swaptions")
        )
        best, label = common.best_linux_numa(results.one, "swaptions")
        for policy, carrefour in common.LINUX_COMBOS:
            other = results.one(common.linux_request("swaptions", policy, carrefour))
            assert best.completion_seconds <= other.completion_seconds + 1e-9
        assert label

    def test_xen_numa_includes_round_1g(self):
        results = common.default_runner().resolve(
            common.xen_numa_requests("swaptions")
        )
        best, label = common.best_xen_numa(results.one, "swaptions")
        assert label in {s.label for s in common.XEN_POLICIES_ALL}

    def test_select_apps_default_is_29(self):
        assert len(common.select_apps(None)) == 29


class TestCli:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 1

    def test_known_names_registered(self):
        names = set(registry.scenario_names()) | set(registry.ALIASES)
        for name in ("fig1", "table1", "fig7", "batching", "io"):
            assert name in names

    def test_cli_runs_subset(self, capsys):
        assert main(["run", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
    def test_report_options_exit_before_building(
        self, argv, code, tmp_path, monkeypatch, capsys
    ):
        """``report --help`` once built the whole report and wrote it to a
        file named ``--help``; options now exit before any work."""

        def build_report():
            raise AssertionError("the report must not be built")

        monkeypatch.setattr(report, "build_report", build_report)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["report", *argv])
        assert exit_info.value.code == code
        assert list(tmp_path.iterdir()) == []

"""The cluster_migration scenario: declared runs, assembly, caching."""

import pytest

from repro.config import SimConfig
from repro.errors import ExperimentError
from repro.experiments import cluster_migration, common
from repro.runner import Runner


@pytest.fixture
def coarse():
    with common.configured(SimConfig(page_scale=4096)) as config:
        yield config


class TestRequiredRuns:
    def test_declares_cluster_run_and_baseline(self, coarse):
        requests = cluster_migration.required_runs()
        assert len(requests) == 2
        assert requests[0].environment == "cluster"
        assert requests[1].environment == "xen"
        assert [vm.app for vm in requests[0].vms] == [
            vm.app for vm in requests[1].vms
        ]

    def test_rejects_selections_that_are_not_pairs(self, coarse):
        with pytest.raises(ExperimentError):
            cluster_migration.required_runs(["swaptions"])


class TestAssembly:
    def test_result_compares_cluster_against_colocated(self, coarse):
        runner = Runner()
        result = cluster_migration.SCENARIO.run(verbose=False, runner=runner)
        assert set(result.completion) == {"streamcluster", "facesim"}
        for per_app in result.completion.values():
            assert per_app["colocated"] > 0
            assert per_app["evacuated"] > 0
        assert result.migrated_app == "streamcluster"
        assert result.migration["migration.rounds"] >= 1
        # The migrated VM reports the destination host's world.
        assert "@h" in result.worlds["streamcluster"]

    def test_second_run_is_served_from_the_store(self, coarse):
        runner = Runner()
        cluster_migration.SCENARIO.run(verbose=False, runner=runner)
        executed = runner.stats.executed
        cluster_migration.SCENARIO.run(verbose=False, runner=runner)
        assert runner.stats.executed == executed

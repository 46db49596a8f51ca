"""The epoch engine: completion, congestion solving, metrics."""


import numpy as np
import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import CongestionSolver, run_app, run_apps
from repro.sim.environment import LinuxEnvironment, VmSpec, XenEnvironment
from repro.workloads.suite import get_app

from tests.conftest import fast_app


@pytest.fixture
def app():
    return fast_app(get_app("facesim"), baseline_seconds=5.0)


class TestCongestionSolver:
    def test_no_traffic_uncontended(self, amd48_machine):
        solver = CongestionSolver(amd48_machine)
        rho_c, rho_l = solver.congestion(np.zeros((8, 8)), 1.0)
        assert rho_c.sum() == 0.0
        latm = solver.latency_matrix(rho_c, rho_l)
        assert latm[0, 0] == pytest.approx(156.0 / 2.2e9)

    def test_concentrated_traffic_raises_latency(self, amd48_machine):
        solver = CongestionSolver(amd48_machine)
        matrix = np.zeros((8, 8))
        matrix[:, 0] = 3e7  # everyone hammers node 0
        rho_c, rho_l = solver.congestion(matrix, 1.0)
        assert rho_c[0] > 0.5
        latm = solver.latency_matrix(rho_c, rho_l)
        base = solver.latency_matrix(np.zeros(8), np.zeros_like(rho_l))
        assert latm[0, 0] > base[0, 0]
        assert latm[1, 1] == pytest.approx(base[1, 1])

    def test_links_loaded_by_remote_traffic(self, amd48_machine):
        solver = CongestionSolver(amd48_machine)
        matrix = np.zeros((8, 8))
        matrix[1, 0] = 5e7
        _, rho_l = solver.congestion(matrix, 1.0)
        assert rho_l.max() > 0.0


class TestLinuxRun:
    def test_run_completes(self, app):
        result = run_app(LinuxEnvironment(policy="first-touch"), app)
        assert result.completion_seconds > 0
        assert result.epochs > 0
        assert result.stats["truncated"] == 0.0
        assert result.policy == "first-touch"
        assert result.environment == "linux"

    def test_deterministic(self, app):
        a = run_app(LinuxEnvironment(policy="first-touch"), app)
        b = run_app(LinuxEnvironment(policy="first-touch"), app)
        assert a.completion_seconds == pytest.approx(b.completion_seconds)

    def test_measured_imbalance_tracks_table1(self, app):
        ft = run_app(LinuxEnvironment(policy="first-touch"), app)
        r4k = run_app(LinuxEnvironment(policy="round-4k"), app)
        # facesim: 253% under first-touch, 27% under round-4K.
        assert ft.mean_imbalance == pytest.approx(2.53, abs=0.4)
        assert r4k.mean_imbalance < 0.6

    def test_round4k_beats_first_touch_for_master_slave(self, app):
        ft = run_app(LinuxEnvironment(policy="first-touch"), app)
        r4k = run_app(LinuxEnvironment(policy="round-4k"), app)
        assert r4k.completion_seconds < ft.completion_seconds

    def test_local_app_prefers_first_touch(self):
        app = fast_app(get_app("cg.C"), baseline_seconds=5.0)
        ft = run_app(LinuxEnvironment(policy="first-touch"), app)
        r4k = run_app(LinuxEnvironment(policy="round-4k"), app)
        assert ft.completion_seconds < r4k.completion_seconds
        assert ft.mean_local_fraction > 0.9

    def test_max_epochs_truncates(self, app):
        result = run_app(
            LinuxEnvironment(policy="first-touch"), app, max_epochs=2
        )
        assert result.stats["truncated"] == 1.0
        assert result.epochs == 2


class TestXenRun:
    def test_round_1g_run_completes(self, app):
        result = run_app(
            XenEnvironment(),
            VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_1G)),
        )
        assert result.completion_seconds > 0
        assert result.environment == "xen+"
        assert result.policy == "round-1g"

    def test_first_touch_faults_in_pages(self, app):
        result = run_app(
            XenEnvironment(),
            VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH)),
        )
        assert result.stats["init_seconds"] > 0

    def test_two_vm_coupling(self):
        """Two colocated VMs complete and both feel the machine."""
        a = fast_app(get_app("cg.C"), baseline_seconds=4.0)
        b = fast_app(get_app("sp.C"), baseline_seconds=4.0)
        specs = [
            VmSpec(app=a, policy=PolicySpec(PolicyName.ROUND_4K),
                   num_vcpus=24, home_nodes=[0, 1, 2, 3],
                   pin_pcpus=list(range(24))),
            VmSpec(app=b, policy=PolicySpec(PolicyName.ROUND_4K),
                   num_vcpus=24, home_nodes=[4, 5, 6, 7],
                   pin_pcpus=list(range(24, 48))),
        ]
        results = run_apps(XenEnvironment(), specs)
        assert len(results) == 2
        assert all(r.completion_seconds > 0 for r in results)

    def test_consolidated_halves_throughput(self):
        app = fast_app(get_app("swaptions"), baseline_seconds=4.0)
        alone = run_app(
            XenEnvironment(),
            VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K)),
        )
        both = run_apps(
            XenEnvironment(),
            [
                VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K),
                       num_vcpus=48, home_nodes=list(range(8)),
                       pin_pcpus=list(range(48)))
                for _ in range(2)
            ],
        )
        ratio = both[0].completion_seconds / alone.completion_seconds
        assert 1.6 < ratio < 2.6


class TestCarrefourRun:
    def test_carrefour_migrates_and_helps(self):
        app = fast_app(get_app("kmeans"), baseline_seconds=5.0)
        plain = run_app(LinuxEnvironment(policy="first-touch"), app)
        carrefour = run_app(
            LinuxEnvironment(policy="first-touch", carrefour=True), app
        )
        assert carrefour.total_migrations > 0
        assert carrefour.completion_seconds < plain.completion_seconds

"""Vectorized congestion solver: oracle equivalence, early exit, pins.

The reference oracle is the pre-vectorization loop implementation,
committed verbatim in :mod:`tests.properties.engine_oracle`.
"""

import numpy as np
import pytest

from repro.hardware.presets import amd48, small_machine
from repro.sim.engine import CongestionSolver, run_world
from repro.sim.environment import LinuxEnvironment
from repro.workloads.suite import get_app

from tests.conftest import fast_app
from tests.properties.engine_oracle import (
    loop_congestion,
    loop_latency_matrix,
    reference_run_world,
)


@pytest.fixture(params=[2, 4, 8], ids=["2-node", "4-node", "8-node"])
def solver(request):
    if request.param == 8:
        machine = amd48()
    else:
        machine = small_machine(num_nodes=request.param, cpus_per_node=2)
    return CongestionSolver(machine)


def _random_matrices(solver, count=25, scale=5e7, seed=1234):
    """Randomized access matrices with exact-zero entries sprinkled in."""
    rng = np.random.default_rng(seed)
    n = solver.num_nodes
    for _ in range(count):
        matrix = rng.uniform(0.0, scale, size=(n, n))
        matrix[rng.random((n, n)) < 0.3] = 0.0
        yield matrix


class TestOracleEquivalence:
    def test_congestion_matches_loop_oracle(self, solver):
        for matrix in _random_matrices(solver):
            rho_c, rho_l = solver.congestion(matrix, 1.0)
            exp_c, exp_l = loop_congestion(solver, matrix, 1.0)
            np.testing.assert_allclose(rho_c, exp_c, rtol=1e-12, atol=1e-18)
            np.testing.assert_allclose(rho_l, exp_l, rtol=1e-12, atol=1e-18)

    def test_latency_matrix_matches_loop_oracle(self, solver):
        for matrix in _random_matrices(solver):
            rho_c, rho_l = solver.congestion(matrix, 1.0)
            got = solver.latency_matrix(rho_c, rho_l)
            expected = loop_latency_matrix(solver, rho_c, rho_l)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_saturated_traffic_matches_loop_oracle(self, solver):
        """Past the queueing knee the linear-tail branch must agree too."""
        for matrix in _random_matrices(solver, count=5, scale=5e9, seed=99):
            rho_c, rho_l = solver.congestion(matrix, 1.0)
            assert rho_c.max() > solver.machine.latency.rho_cap
            got = solver.latency_matrix(rho_c, rho_l)
            expected = loop_latency_matrix(solver, rho_c, rho_l)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_zero_latency_matrix_is_memoized(self, solver):
        n = solver.num_nodes
        zeros_l = np.zeros(len(solver.link_bw))
        first = solver.latency_matrix(np.zeros(n), zeros_l)
        second = solver.latency_matrix(np.zeros(n), zeros_l)
        assert first is second
        np.testing.assert_array_equal(
            first, loop_latency_matrix(solver, np.zeros(n), zeros_l)
        )

    def test_zero_latency_matrix_is_read_only(self, solver):
        # Regression: the memo used to be handed out writable, so one
        # caller scribbling on it poisoned every later zero-congestion
        # epoch of the same solver.
        n = solver.num_nodes
        zeros_l = np.zeros(len(solver.link_bw))
        latm = solver.latency_matrix(np.zeros(n), zeros_l)
        with pytest.raises(ValueError):
            latm[0, 0] = 123.0
        np.testing.assert_array_equal(
            solver.latency_matrix(np.zeros(n), zeros_l),
            loop_latency_matrix(solver, np.zeros(n), zeros_l),
        )


class TestEarlyExit:
    def test_results_identical_with_and_without_skipping(self):
        """Convergence skipping (the engine's only mode) is bit-for-bit
        invisible: the reference loop running every pass agrees."""
        app = fast_app(get_app("cg.C"), baseline_seconds=6.0)
        env = LinuxEnvironment(policy="round-4k")
        skipping = run_world(env.setup([app]))[0]
        full = reference_run_world(env.setup([app]), solver_epsilon=None)[0]
        assert skipping.completion_seconds == full.completion_seconds
        assert skipping.epochs == full.epochs
        assert skipping.records == full.records
        assert skipping.stats == full.stats

    def test_early_exit_skips_solver_iterations(self, monkeypatch):
        """On a churn-free steady state the exact fixed point is reached
        and later iterations are actually skipped: fewer solves than the
        reference loop running every pass (both solve once per pass and
        once per epoch for the per-run link loads)."""
        calls = {"n": 0}
        original = CongestionSolver.congestion

        def counted(self, matrix, seconds):
            calls["n"] += 1
            return original(self, matrix, seconds)

        monkeypatch.setattr(CongestionSolver, "congestion", counted)
        app = fast_app(get_app("cg.C"), baseline_seconds=6.0)
        env = LinuxEnvironment(policy="round-4k")
        calls["n"] = 0
        run_world(env.setup([app]))
        with_skip = calls["n"]
        calls["n"] = 0
        reference_run_world(env.setup([app]), solver_epsilon=None)
        without_skip = calls["n"]
        assert with_skip < without_skip


class TestRegressionPin:
    """Pin a fixture world's outputs: any solver change that shifts the
    numerics (vectorization refactors, early-exit tweaks) must show up
    here, not in a downstream figure."""

    def test_facesim_first_touch_pinned(self):
        app = fast_app(get_app("facesim"), baseline_seconds=5.0)
        result = run_world(
            LinuxEnvironment(policy="first-touch").setup([app])
        )[0]
        assert result.epochs == 9
        assert result.completion_seconds == pytest.approx(
            8.168240734047197, rel=1e-9
        )
        assert result.mean_imbalance == pytest.approx(
            2.5277440161172926, rel=1e-9
        )

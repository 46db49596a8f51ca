"""Engine edge cases: empty worlds, boundary finishes, determinism."""


import pytest

from repro.config import SimConfig
from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import run_apps, run_world
from repro.sim.environment import LinuxEnvironment, VmSpec, XenEnvironment, World
from repro.workloads.suite import get_app

from tests.conftest import fast_app


class TestEdges:
    def test_empty_world(self, amd48_machine):
        world = World(
            machine=amd48_machine, runs=[], label="empty", epoch_seconds=1.0
        )
        assert run_world(world) == []

    def test_zero_max_epochs_truncates_all(self):
        app = fast_app(get_app("swaptions"))
        env = LinuxEnvironment()
        results = run_apps(env, [app], max_epochs=0)
        assert results[0].stats["truncated"] == 1.0
        assert results[0].epochs == 0

    def test_completion_includes_init(self):
        app = fast_app(get_app("swaptions"))
        result = run_apps(LinuxEnvironment(), [app])[0]
        assert result.completion_seconds >= result.stats["init_seconds"]
        assert result.stats["init_seconds"] >= 0.0

    def test_different_seeds_differ_with_carrefour(self):
        app = fast_app(get_app("kmeans"), baseline_seconds=4.0)
        a = run_apps(
            LinuxEnvironment(
                policy="round-4k", carrefour=True, config=SimConfig(rng_seed=1)
            ),
            [app],
        )[0]
        b = run_apps(
            LinuxEnvironment(
                policy="round-4k", carrefour=True, config=SimConfig(rng_seed=2)
            ),
            [app],
        )[0]
        # Interleave randomness wiggles the result without changing it much.
        assert a.completion_seconds != b.completion_seconds
        assert a.completion_seconds == pytest.approx(
            b.completion_seconds, rel=0.1
        )

    def test_vm_specs_with_memory_override(self):
        app = fast_app(get_app("swaptions"))
        gib_pages = (1 << 30) // SimConfig().page_bytes
        spec = VmSpec(
            app=app,
            policy=PolicySpec(PolicyName.ROUND_4K),
            memory_pages=3 * gib_pages,
        )
        result = run_apps(XenEnvironment(), [spec])[0]
        assert result.completion_seconds > 0

    def test_heterogeneous_finish_order(self):
        """A short app next to a long one finishes first and its load
        disappears from the machine."""
        short = fast_app(get_app("swaptions"), baseline_seconds=2.0)
        long_ = fast_app(get_app("cg.C"), baseline_seconds=8.0)
        specs = [
            VmSpec(app=short, policy=PolicySpec(PolicyName.ROUND_4K),
                   num_vcpus=24, home_nodes=[0, 1, 2, 3],
                   pin_pcpus=list(range(24))),
            VmSpec(app=long_, policy=PolicySpec(PolicyName.ROUND_4K),
                   num_vcpus=24, home_nodes=[4, 5, 6, 7],
                   pin_pcpus=list(range(24, 48))),
        ]
        results = run_apps(XenEnvironment(), specs)
        assert results[0].completion_seconds < results[1].completion_seconds

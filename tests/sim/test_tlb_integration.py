"""The optional TLB dimension wired through the engine (section 7)."""


from repro.config import SimConfig
from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import run_app
from repro.sim.environment import VmSpec, XenEnvironment
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def world_for(app, policy, model_tlb):
    env = XenEnvironment(config=SimConfig(model_tlb=model_tlb))
    return env.setup([VmSpec(app=app, policy=policy)])


class TestTlbWiring:
    def test_off_by_default(self):
        app = fast_app(get_app("wc"))
        world = world_for(app, PolicySpec(PolicyName.ROUND_4K), model_tlb=False)
        assert world.runs[0].context.tlb_seconds_per_op == 0.0
        world.teardown()

    def test_fine_grained_policy_pays(self):
        app = fast_app(get_app("wc"))  # 16 GiB footprint
        world = world_for(app, PolicySpec(PolicyName.ROUND_4K), model_tlb=True)
        assert world.runs[0].context.tlb_seconds_per_op > 0.0
        world.teardown()

    def test_round_1g_superpages_nearly_free(self):
        app = fast_app(get_app("wc"))
        fine = world_for(app, PolicySpec(PolicyName.ROUND_4K), model_tlb=True)
        coarse = world_for(app, PolicySpec(PolicyName.ROUND_1G), model_tlb=True)
        assert (
            coarse.runs[0].context.tlb_seconds_per_op
            < fine.runs[0].context.tlb_seconds_per_op
        )
        fine.teardown()
        coarse.teardown()

    def test_small_working_set_unaffected(self):
        app = fast_app(get_app("swaptions"))  # 4 MB: fits any TLB
        world = world_for(app, PolicySpec(PolicyName.ROUND_4K), model_tlb=True)
        assert world.runs[0].context.tlb_seconds_per_op == 0.0
        world.teardown()

    def test_tlb_slows_completion(self):
        app = fast_app(get_app("wc"))
        spec = PolicySpec(PolicyName.ROUND_4K)
        plain = run_app(
            XenEnvironment(config=SimConfig(model_tlb=False)),
            VmSpec(app=app, policy=spec),
        )
        taxed = run_app(
            XenEnvironment(config=SimConfig(model_tlb=True)),
            VmSpec(app=app, policy=spec),
        )
        assert taxed.completion_seconds > plain.completion_seconds

"""The one epoch stepper vs the per-run reference loop.

:func:`repro.sim.engine.run_world` (a group of one lane) and
:func:`repro.core.multirun.run_worlds` (one lane per world) both step
worlds through the engine's single structure-of-arrays stepper. The
pre-batching per-run loop is kept as the reference driver
:func:`repro.perfbench.oracle.reference_run_world`; here hypothesis draws
whole requests — environment, policy, Carrefour, one or two VMs, seed,
solver early exit on or off — and requires both entry points to
reproduce the reference byte for byte: results, traces, and the engine's
per-world metric cells.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import SimConfig
from repro.core.multirun import run_worlds
from repro.perfbench.oracle import reference_run_world
from repro.runner.exec import build_world
from repro.sim.engine import SOLVER_EPSILON, run_world
from repro.sim.runspec import RunRequest, VmRequest

#: Short, coarse runs: ~10 fat epochs each.
FAST_KWARGS = dict(epoch_seconds=4.0, page_scale=4096)

APPS = ("swaptions", "ep.D", "cg.C", "streamcluster")
XEN_POLICIES = ("round-4k", "first-touch", "round-1g")
LINUX_POLICIES = ("first-touch", "round-4k")
SEEDS = (42, 7, 3)
EPSILONS = (SOLVER_EPSILON, None)


def dumps(groups):
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


def _vm(draw, environment, num_vms):
    policies = LINUX_POLICIES if environment == "linux" else XEN_POLICIES
    policy = draw(st.sampled_from(policies))
    return VmRequest(
        app=draw(st.sampled_from(APPS)),
        policy=policy,
        # Carrefour cannot run on top of round-1g.
        carrefour=policy != "round-1g" and draw(st.booleans()),
        # Two VMs share the host, each on a quarter of its cores.
        num_vcpus=12 if num_vms == 2 else None,
    )


@st.composite
def requests_st(draw, environment=None):
    """One request; ``environment`` pins "Xen", "Xen+" or "linux"."""
    if environment is None:
        environment = draw(st.sampled_from(("Xen", "Xen+", "linux")))
    config = SimConfig(rng_seed=draw(st.sampled_from(SEEDS)), **FAST_KWARGS)
    if environment == "linux":
        return RunRequest(
            environment="linux", vms=(_vm(draw, "linux", 1),), config=config
        )
    num_vms = draw(st.integers(min_value=1, max_value=2))
    return RunRequest(
        environment="xen",
        features=environment,
        vms=tuple(_vm(draw, environment, num_vms) for _ in range(num_vms)),
        config=config,
    )


@st.composite
def groups_st(draw):
    """2-3 requests sharing an environment (one compatible group)."""
    environment = draw(st.sampled_from(("Xen", "Xen+", "linux")))
    size = draw(st.integers(min_value=2, max_value=3))
    return [draw(requests_st(environment)) for _ in range(size)]


def _reference(request, solver_epsilon):
    return reference_run_world(build_world(request), solver_epsilon=solver_epsilon)


class TestSingleWorld:
    @settings(max_examples=16, deadline=None)
    @given(request=requests_st(), solver_epsilon=st.sampled_from(EPSILONS))
    def test_run_world_matches_reference(self, request, solver_epsilon):
        want = _reference(request, solver_epsilon)
        got = run_world(build_world(request), solver_epsilon=solver_epsilon)
        assert dumps([got]) == dumps([want])
        for a, b in zip(got, want):
            assert a.metrics == b.metrics

    @settings(max_examples=6, deadline=None)
    @given(request=requests_st(), solver_epsilon=st.sampled_from(EPSILONS))
    def test_traced_run_world_matches_traced_reference(
        self, request, solver_epsilon
    ):
        """Same events in the same order (epoch.solve spans with their
        per-world iterations and early-exit delta, run.commit instants,
        policy events), same metric cells, same bytes."""
        with obs.session() as want:
            _reference(request, solver_epsilon)
        with obs.session() as got:
            run_world(build_world(request), solver_epsilon=solver_epsilon)
        assert obs.dump_payload(got.payload()) == obs.dump_payload(want.payload())
        assert any(e["name"] == "epoch.solve" for e in got.tracer.events)


class TestGroups:
    @settings(max_examples=8, deadline=None)
    @given(requests=groups_st(), solver_epsilon=st.sampled_from(EPSILONS))
    def test_run_worlds_matches_reference(self, requests, solver_epsilon):
        want = [_reference(r, solver_epsilon) for r in requests]
        got = run_worlds(
            [build_world(r) for r in requests], solver_epsilon=solver_epsilon
        )
        assert dumps(got) == dumps(want)

    def test_group_observability_is_per_world(self):
        """In a 3-world group each world's ``engine.solver_iterations``
        cell sees exactly the passes it would see stepped alone — the
        group keeps iterating for its slowest world, but a converged
        world stops counting — and the group's engine events are the
        worlds' solo events, interleaved epoch by epoch in world order."""
        requests = [
            RunRequest(
                environment="xen",
                features="Xen",
                vms=(VmRequest(app=app, policy=policy, carrefour=carrefour),),
                config=SimConfig(rng_seed=seed, **FAST_KWARGS),
            )
            for app, policy, carrefour, seed in (
                ("swaptions", "round-4k", False, 42),
                ("streamcluster", "first-touch", True, 7),
                ("cg.C", "round-1g", False, 3),
            )
        ]

        def cells(sess):
            return [
                cell["value"]
                for cell in sess.payload()["metrics"]
                if cell["name"] == "engine.solver_iterations"
            ]

        def engine_events(sess):
            """Per epoch, the epoch.solve span and run.commit instants."""
            by_epoch = {}
            for event in sess.tracer.events:
                if event["name"] in ("epoch.solve", "run.commit"):
                    event = {k: v for k, v in event.items() if k != "seq"}
                    by_epoch.setdefault(event["args"]["epoch"], []).append(event)
            return by_epoch

        alone_cells, alone_events = [], []
        for request in requests:
            with obs.session() as sess:
                run_world(build_world(request))
            alone_cells.extend(cells(sess))
            alone_events.append(engine_events(sess))
        with obs.session() as sess:
            run_worlds([build_world(r) for r in requests])
        assert cells(sess) == alone_cells
        assert len(alone_cells) == 3
        # The worlds really converge at different passes.
        assert len({cell["total"] for cell in alone_cells}) > 1
        grouped = engine_events(sess)
        for epoch in sorted(grouped):
            want = [e for world in alone_events for e in world.get(epoch, [])]
            assert grouped[epoch] == want

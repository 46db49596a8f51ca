"""The one lane loop vs the reference drivers.

:func:`repro.sim.engine.run_world` (a group of one lane),
:func:`repro.core.multirun.run_worlds` (one lane per world) and
:meth:`repro.cluster.Cluster.simulate` (one lane per host) all step
worlds through the engine's one lane loop and its single
structure-of-arrays stepper. The pre-batching per-run loop is kept as
the reference driver
:func:`tests.properties.engine_oracle.reference_run_world`, and the
per-host cluster loop as
:func:`tests.properties.engine_oracle.reference_simulate`. Here
hypothesis draws whole requests — environment, policy, Carrefour, one or
two VMs, seed — and requires every entry point to reproduce its
reference byte for byte: results, traces, and the engine's per-world
metric cells, and the engine's exact early exit must be invisible
against a reference that runs every solver pass; and the fig8 two-stage
scenario must resolve the same through a batched runner. Random batches
through :func:`repro.core.multirun.execute_batch` are checked against
serial execution in ``test_multirun_parity.py``, which draws its
requests from :func:`requests_st` here.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import SimConfig
from repro.core.multirun import run_worlds
from repro.experiments import common, fig8
from repro.runner import Runner
from repro.runner.exec import build_world
from repro.sim.engine import run_world
from repro.sim.runspec import RunRequest, VmRequest

from tests.cluster.conftest import build_cluster, cluster_vms
from tests.properties.engine_oracle import reference_run_world, reference_simulate

#: Short, coarse runs: ~10 fat epochs each.
FAST_KWARGS = dict(epoch_seconds=4.0, page_scale=4096)

APPS = ("swaptions", "ep.D", "cg.C", "streamcluster")
XEN_POLICIES = ("round-4k", "first-touch", "round-1g")
LINUX_POLICIES = ("first-touch", "round-4k")
SEEDS = (42, 7, 3)


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


def _reference(request, **kwargs):
    return reference_run_world(build_world(request), **kwargs)


def _assert_same_metrics(got_groups, want_groups):
    """The transient per-run counter snapshots (excluded from to_json,
    hence from the byte comparisons) also match run for run."""
    for got, want in zip(got_groups, want_groups):
        assert [r.metrics for r in got] == [r.metrics for r in want]


class TestSingleWorld:
    @settings(max_examples=16, deadline=None)
    @given(request=requests_st(), solver_epsilon=st.sampled_from((0.0, None)))
    def test_run_world_matches_reference(self, request, solver_epsilon):
        """Also against a reference running every solver pass
        (``solver_epsilon=None``): the engine's exact early exit skips
        only passes that could not move the latency matrix."""
        want = _reference(request, solver_epsilon=solver_epsilon)
        got = run_world(build_world(request))
        assert dumps([got]) == dumps([want])
        _assert_same_metrics([got], [want])

    @settings(max_examples=6, deadline=None)
    @given(request=requests_st())
    def test_traced_run_world_matches_traced_reference(self, request):
        """Same events in the same order (epoch.solve spans with their
        per-world iterations and early-exit delta, run.commit instants,
        policy events), same metric cells, same bytes."""
        with obs.session() as want:
            _reference(request)
        with obs.session() as got:
            run_world(build_world(request))
        assert obs.dump_payload(got.payload()) == obs.dump_payload(want.payload())
        assert any(e["name"] == "epoch.solve" for e in got.tracer.events)


class TestGroups:
    @settings(max_examples=8, deadline=None)
    @given(requests=groups_st())
    def test_run_worlds_matches_reference(self, requests):
        want = [_reference(r) for r in requests]
        got = run_worlds([build_world(r) for r in requests])
        assert dumps(got) == dumps(want)
        _assert_same_metrics(got, want)

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


class TestTwoStageScenario:
    def test_fig8_follow_ups_resolve_through_batches(self):
        """fig8 stage 2 (best-policy pair runs chosen from stage-1 sweeps)
        flows through ResultSet.resolve, so a batched runner must cover it
        too — and produce the stores and figures of a serial runner."""
        pairs = [("cg.C", "sp.C")]
        with common.configured(SimConfig(**FAST_KWARGS)):
            serial_runner = Runner(jobs=1)
            serial_result = fig8.SCENARIO.run(
                verbose=False, pairs=pairs, runner=serial_runner
            )
            batched_runner = Runner(batch_worlds=4)
            batched_result = fig8.SCENARIO.run(
                verbose=False, pairs=pairs, runner=batched_runner
            )
        assert batched_runner.stats.batched > 0
        assert batched_runner.stats.executed == serial_runner.stats.executed
        keys = sorted(serial_runner.store.data)
        assert sorted(batched_runner.store.data) == keys
        a = dumps([serial_runner.store.get(k) for k in keys])
        b = dumps([batched_runner.store.get(k) for k in keys])
        assert a == b
        assert [p.improvements for p in batched_result.pairs] == [
            p.improvements for p in serial_result.pairs
        ]


def _cluster(migrate_epoch):
    cluster = build_cluster()
    cluster.deploy(cluster_vms())
    if migrate_epoch is not None:
        cluster.migrate_at(migrate_epoch, "streamcluster")
    return cluster


class TestCluster:
    @pytest.mark.parametrize("migrate_epoch", [None, 0, 2])
    def test_lanes_match_per_host_stepping(self, migrate_epoch):
        """The hosts as lanes of one group equal each host stepped alone:
        results, metric cells and the whole trace, with and without a
        run moving between hosts mid-simulation."""
        with obs.session() as want_sess:
            want_cluster = _cluster(migrate_epoch)
            want = reference_simulate(want_cluster)
        with obs.session() as got_sess:
            got_cluster = _cluster(migrate_epoch)
            got = got_cluster.simulate()
        assert dumps([got]) == dumps([want])
        _assert_same_metrics([got], [want])
        assert obs.dump_payload(got_sess.payload()) == obs.dump_payload(
            want_sess.payload()
        )
        assert got_cluster.epoch == want_cluster.epoch
        completed = [m for m in got_cluster.migrations if m.phase == "complete"]
        assert len(completed) == (migrate_epoch is not None)

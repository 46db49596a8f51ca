"""Batched multi-run execution vs serial: randomized observational equality.

``tests/core/test_multirun.py`` pins the grouping and fallback rules on
fixed batches; here hypothesis draws whole request batches — mixed
applications, policies, seeds, environments, with the per-request P2M
sanitizer armed on a random subset — and requires the batched executor to
reproduce serial execution byte for byte, with the armed requests run
alone (a lane of one) on the same page path, checked in place. A
second, deterministic case drives the fig8 two-stage scenario (sweeps
decide follow-up pair runs) through a batched runner and compares
stores against a serial runner.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.multirun import execute_batch, group_signature
from repro.experiments import common, fig8
from repro.runner import Runner, execute_request
from repro.sim.runspec import RunRequest, VmRequest

#: Short, coarse runs: the value of these tests is in the *comparison*,
#: not in simulation fidelity, so every request uses ~10 fat epochs.
FAST_KWARGS = dict(epoch_seconds=4.0, page_scale=4096)

APPS = ("swaptions", "ep.D", "ft.C", "streamcluster")
XEN_POLICIES = ("round-4k", "first-touch", "round-1g")
LINUX_POLICIES = ("first-touch", "round-4k")


def dumps(groups):
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


@st.composite
def requests_st(draw):
    """One randomly-configured request (xen or linux, maybe sanitized)."""
    app = draw(st.sampled_from(APPS))
    seed = draw(st.sampled_from((42, 7, 3)))
    sanitize = draw(st.booleans())
    config = SimConfig(rng_seed=seed, sanitize_p2m=sanitize, **FAST_KWARGS)
    if draw(st.booleans()):
        return RunRequest(
            environment="xen",
            features=draw(st.sampled_from(("Xen", "Xen+"))),
            vms=(
                VmRequest(app=app, policy=draw(st.sampled_from(XEN_POLICIES))),
            ),
            config=config,
        )
    return RunRequest(
        environment="linux",
        vms=(VmRequest(app=app, policy=draw(st.sampled_from(LINUX_POLICIES))),),
        config=config,
    )


class TestRandomBatchParity:
    @settings(max_examples=8, deadline=None)
    @given(
        requests=st.lists(requests_st(), min_size=2, max_size=5),
        batch_worlds=st.integers(min_value=2, max_value=4),
    )
    def test_batched_equals_serial(self, requests, batch_worlds):
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, batch_worlds)
        assert dumps(outcome.results) == dumps(serial)
        assert outcome.batched_runs + outcome.fallback_runs == len(requests)
        # Sanitizer-armed requests must have taken the scalar path; they
        # can therefore never be the *only* explanation of a batch.
        armed = sum(1 for r in requests if r.config.sanitize_p2m)
        assert outcome.fallback_runs >= armed
        for request in requests:
            if request.config.sanitize_p2m:
                assert group_signature(request) is None

    @settings(max_examples=8, deadline=None)
    @given(
        requests=st.lists(requests_st(), min_size=2, max_size=5),
        batch_worlds=st.integers(min_value=2, max_value=4),
    )
    def test_metrics_match_serial(self, requests, batch_worlds):
        """Satellite guard at property scale: the transient per-run
        counter snapshots (excluded from to_json, hence from the byte
        comparison above) also match run for run."""
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, batch_worlds)
        for want_group, got_group in zip(serial, outcome.results):
            for want, got in zip(want_group, got_group):
                assert want.metrics == got.metrics


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

"""The multi-run batched engine vs the scalar per-world oracle.

The contract of :mod:`repro.core.multirun` is *byte identity*: a group of
requests executed as one structure-of-arrays batch must produce exactly
the results (and store entries, and per-run metrics) serial execution
produces. These tests pin the grouping rules, the fallback rules, and the
identity itself on fixed batches; the randomized sweep lives in
``tests/properties/test_multirun_parity.py``.
"""

import json

import pytest

from repro import obs
from repro.config import SimConfig
from repro.core.multirun import (
    BatchOutcome,
    execute_batch,
    group_signature,
    run_worlds,
)
from repro.errors import MultiRunError
from repro.runner import Runner, execute_request
from repro.runner.exec import build_world
from repro.sim.engine import run_world
from repro.sim.runspec import RunRequest, VmRequest

#: Coarse and short: ~10 epochs per run instead of ~40.
FAST = SimConfig(epoch_seconds=4.0, page_scale=4096)


def xen_req(app, policy, seed=42, carrefour=False, features="Xen"):
    return RunRequest(
        environment="xen",
        features=features,
        vms=(VmRequest(app=app, policy=policy, carrefour=carrefour),),
        config=SimConfig(epoch_seconds=4.0, page_scale=4096, rng_seed=seed),
    )


def linux_req(app, policy="first-touch"):
    return RunRequest(
        environment="linux",
        vms=(VmRequest(app=app, policy=policy),),
        config=FAST,
    )


def dumps(groups):
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


class TestGroupSignature:
    def test_cluster_requests_never_batch(self):
        request = RunRequest(
            environment="cluster",
            features="Xen+",
            vms=(
                VmRequest(app="cg.C", policy="round-4k", num_vcpus=6),
                VmRequest(app="sp.C", policy="round-4k", num_vcpus=6),
            ),
            config=FAST,
        )
        assert group_signature(request) is None

    def test_sanitize_p2m_requests_never_batch(self):
        armed = RunRequest(
            environment="xen",
            features="Xen",
            vms=(VmRequest(app="swaptions", policy="round-4k"),),
            config=SimConfig(epoch_seconds=4.0, page_scale=4096, sanitize_p2m=True),
        )
        assert group_signature(armed) is None

    def test_rng_seed_does_not_split_groups(self):
        """A seed sweep is the canonical batch: seeds share a signature."""
        a = xen_req("swaptions", "round-4k", seed=1)
        b = xen_req("swaptions", "round-4k", seed=2)
        assert group_signature(a) == group_signature(b)

    def test_apps_and_policies_share_a_signature(self):
        a = xen_req("swaptions", "round-4k")
        b = xen_req("ep.D", "first-touch")
        assert group_signature(a) == group_signature(b)

    def test_environment_and_config_split_groups(self):
        base = xen_req("swaptions", "round-4k")
        assert group_signature(base) != group_signature(
            linux_req("swaptions")
        )
        assert group_signature(base) != group_signature(
            xen_req("swaptions", "round-4k", features="Xen+")
        )
        other_epoch = RunRequest(
            environment="xen",
            features="Xen",
            vms=(VmRequest(app="swaptions", policy="round-4k"),),
            config=SimConfig(epoch_seconds=2.0, page_scale=4096),
        )
        assert group_signature(base) != group_signature(other_epoch)


class TestBatchedParity:
    def test_mixed_batch_is_byte_identical(self):
        """Apps, policies and seeds mixed in one group: bit-equal results."""
        requests = [
            xen_req("swaptions", "round-4k"),
            xen_req("ep.D", "first-touch", seed=7),
            xen_req("ft.C", "round-1g"),
            xen_req("lu.C", "round-4k", seed=3),
        ]
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, 4)
        assert outcome.batched_runs == 4
        assert outcome.fallback_runs == 0
        assert dumps(outcome.results) == dumps(serial)

    def test_multi_vm_worlds_batch_identically(self):
        """Two-VM worlds of different lengths in one group."""
        requests = [
            RunRequest(
                environment="xen",
                features="Xen+",
                vms=(
                    VmRequest(app="cg.C", policy="round-4k", num_vcpus=6),
                    VmRequest(app="sp.C", policy="round-4k", num_vcpus=6),
                ),
                config=FAST,
            ),
            RunRequest(
                environment="xen",
                features="Xen+",
                vms=(VmRequest(app="streamcluster", policy="first-touch"),),
                config=FAST,
            ),
        ]
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, 2)
        assert outcome.batched_runs == 2
        assert dumps(outcome.results) == dumps(serial)

    def test_dynamic_policy_batches_identically(self):
        """Carrefour migrates pages mid-run; placement (and with it the
        destination matrices) diverges across epochs — exactly the state
        the batched driver must keep per world."""
        requests = [
            xen_req("streamcluster", "round-4k", carrefour=True),
            xen_req("cg.C", "round-4k", carrefour=True),
        ]
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, 2)
        assert outcome.batched_runs == 2
        assert dumps(outcome.results) == dumps(serial)

    def test_incompatible_requests_fall_back_per_request(self):
        """linux + xen in one call: two singleton groups, both fall back."""
        requests = [
            xen_req("swaptions", "round-4k"),
            linux_req("swaptions"),
        ]
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, 2)
        assert outcome.batched_runs == 0
        assert outcome.fallback_runs == 2
        assert dumps(outcome.results) == dumps(serial)

    def test_tracing_keeps_the_batched_path(self):
        """An observability session no longer forces serial execution:
        the traced batch still groups, and its results are byte-identical
        to untraced serial execution."""
        requests = [
            xen_req("swaptions", "round-4k"),
            xen_req("streamcluster", "round-4k", carrefour=True),
            xen_req("ep.D", "first-touch", seed=7),
        ]
        serial = [execute_request(r) for r in requests]
        with obs.session() as sess:
            outcome = execute_batch(requests, 3)
        assert outcome.batched_runs > 0
        assert dumps(outcome.results) == dumps(serial)
        solves = [e for e in sess.tracer.events if e["name"] == "epoch.solve"]
        assert solves
        assert obs.validate_payload(sess.payload()) == []

    def test_batch_worlds_one_is_all_fallback(self):
        outcome = execute_batch([xen_req("swaptions", "round-4k")], 1)
        assert isinstance(outcome, BatchOutcome)
        assert outcome.batched_runs == 0
        assert outcome.fallback_runs == 1


class TestRunWorlds:
    def test_single_world_matches_run_world(self):
        request = xen_req("swaptions", "round-4k")
        serial = run_world(build_world(request))
        (batched,) = run_worlds([build_world(request)])
        assert dumps([batched]) == dumps([serial])

    def test_incompatible_worlds_raise(self):
        a = build_world(xen_req("swaptions", "round-4k"))
        b = build_world(
            RunRequest(
                environment="xen",
                features="Xen",
                vms=(VmRequest(app="swaptions", policy="round-4k"),),
                config=SimConfig(epoch_seconds=2.0, page_scale=4096),
            )
        )
        with pytest.raises(MultiRunError):
            run_worlds([a, b])

    def test_empty_group(self):
        assert run_worlds([]) == []


class TestRunnerBatching:
    def _requests(self):
        return [
            xen_req(app, policy)
            for app in ("swaptions", "ep.D", "ft.C")
            for policy in ("round-4k", "first-touch")
        ]

    def test_store_entries_are_byte_identical(self):
        requests = self._requests()
        serial = Runner(jobs=1)
        serial.resolve(requests)
        batched = Runner(batch_worlds=4)
        batched.resolve(requests)
        keys = [r.cache_key() for r in requests]
        a = dumps([serial.store.get(k) for k in keys])
        b = dumps([batched.store.get(k) for k in keys])
        assert a == b

    def test_stats_count_batched_requests(self):
        requests = self._requests()
        runner = Runner(batch_worlds=4)
        runner.resolve(requests)
        assert runner.stats.executed == len(requests)
        assert runner.stats.batched == len(requests)
        assert f"{len(requests)} batched" in runner.stats.summary()
        # Re-resolving is pure store hits: nothing new executes.
        runner.resolve(requests)
        assert runner.stats.executed == len(requests)

    def test_summary_without_batching_is_unchanged(self):
        """No trailing ", 0 batched": tooling greps the serial summary."""
        runner = Runner(jobs=1)
        runner.resolve([xen_req("swaptions", "round-4k")])
        assert runner.stats.summary().endswith("1 executed")


class TestMetricsAttribution:
    """Per-run metrics must not bleed across the worlds of one group.

    ``RunResult.metrics`` (fault, queue, p2m, policy counters) comes from
    each run's own context snapshot; every world of a batch owns private
    context instances, and this test is the regression guard keeping it
    that way — it fails if any batched world's counters pick up a
    sibling's activity.
    """

    def test_batched_metrics_equal_serial_metrics(self):
        requests = [
            xen_req("swaptions", "round-4k"),
            xen_req("streamcluster", "round-4k", carrefour=True),
            xen_req("ep.D", "first-touch", seed=5),
        ]
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, 3)
        assert outcome.batched_runs == 3
        for want_group, got_group in zip(serial, outcome.results):
            for want, got in zip(want_group, got_group):
                assert want.metrics == got.metrics
                # The snapshot is real, not a stub: it carries counters.
                assert want.metrics

"""Batched multi-run execution vs serial: randomized observational equality.

``tests/core/test_multirun.py`` pins the grouping and fallback rules on
fixed batches; here hypothesis draws whole request batches — mixed
environments, applications, policies, Carrefour, one or two VMs, seeds —
and requires the batched executor to reproduce serial execution byte for
byte, and run for run in the transient per-run metrics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multirun import execute_batch
from repro.runner import execute_request

from tests.properties.test_engine_oracle import dumps, requests_st


class TestRandomBatchParity:
    @settings(max_examples=8, deadline=None)
    @given(
        requests=st.lists(requests_st(), min_size=2, max_size=5),
        batch_worlds=st.integers(min_value=2, max_value=4),
    )
    def test_batched_equals_serial(self, requests, batch_worlds):
        """The batched executor groups what it can and reproduces serial
        execution byte for byte, every request counted exactly once."""
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, batch_worlds)
        assert dumps(outcome.results) == dumps(serial)
        assert outcome.batched_runs + outcome.fallback_runs == len(requests)

    @settings(max_examples=8, deadline=None)
    @given(
        requests=st.lists(requests_st(), min_size=2, max_size=5),
        batch_worlds=st.integers(min_value=2, max_value=4),
    )
    def test_metrics_match_serial(self, requests, batch_worlds):
        """The transient per-run counter snapshots (excluded from to_json,
        hence from the byte comparison above) also match run for run."""
        serial = [execute_request(r) for r in requests]
        outcome = execute_batch(requests, batch_worlds)
        for want_group, got_group in zip(serial, outcome.results):
            assert [r.metrics for r in got_group] == [r.metrics for r in want_group]

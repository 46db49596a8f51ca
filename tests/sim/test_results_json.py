"""RunResult/EpochRecords JSON round-trips must be exact (bit-for-bit)."""

import json

from repro.config import SimConfig
from repro.runner import execute_request
from repro.sim.results import EpochRecord, EpochRecords, RunResult
from repro.sim.runspec import RunRequest, VmRequest


def _real_result() -> RunResult:
    request = RunRequest(
        environment="linux",
        vms=(VmRequest(app="swaptions", policy="first-touch"),),
        config=SimConfig(),
    )
    return execute_request(request)[0]


class TestEpochRecordJson:
    def test_round_trip_exact(self):
        record = EpochRecord(
            epoch=3,
            ops_done=1234.5678901234567,
            imbalance=0.1 + 0.2,  # classic non-representable float
            max_link_rho=1e-17,
            local_fraction=0.9999999999999999,
            policy_cost_seconds=3.3333333333333335,
            migrations=17,
        )
        records = EpochRecords([record])
        assert EpochRecords.from_rows(records.rows_json()) == [record]
        assert EpochRecords.from_columns(records.columns_json()) == [record]

    def test_round_trip_through_text(self):
        record = EpochRecord(1, 2.5, 0.25, 0.125, 0.75)
        records = EpochRecords([record])
        rows = json.loads(json.dumps(records.rows_json()))
        assert EpochRecords.from_rows(rows) == [record]
        columns = json.loads(json.dumps(records.columns_json()))
        assert EpochRecords.from_columns(columns) == [record]


class TestRunResultJson:
    def test_real_run_round_trips_exactly(self):
        result = _real_result()
        assert result.records, "engine runs must produce epoch records"
        text = json.dumps(result.to_json())
        again = RunResult.from_json(json.loads(text))
        assert again == result

    def test_round_trip_preserves_derived_metrics(self):
        result = _real_result()
        again = RunResult.from_json(result.to_json())
        assert again.completion_seconds == result.completion_seconds
        assert again.mean_imbalance == result.mean_imbalance
        assert again.mean_max_link_rho == result.mean_max_link_rho
        assert again.total_migrations == result.total_migrations
        assert again.stats == result.stats

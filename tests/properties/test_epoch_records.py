"""Columnar run records vs the list-backed oracle.

``RunResult.records`` is an :class:`~repro.sim.results.EpochRecords`
column record; :mod:`tests.properties.records_oracle` keeps the result
with a plain list of :class:`~repro.sim.results.EpochRecord` it replaced.
For random record lists — empty, integer-valued, ``-0.0``, subnormal,
huge, NaN and infinite floats — both must serialize to the same bytes,
give bit-equal summaries, read back the same records with the same
Python types, and survive the disk stores and ``pickle`` unchanged.

The oracle is the *decoded* list: an int handed to a float field is held
as a float, exactly as the old per-record decoder held every stored or
served result.
"""

import json
import math
import pickle
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.autoselect import _throughput
from repro.runstore import DiskRunStore, ShardedDiskRunStore
from repro.sim.results import FIELDS, EpochRecord, EpochRecords, RunResult

from tests.properties.records_oracle import RowResult

INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.sampled_from([0.0, -0.0, 5e-324, 1.5e-310, 1.7976931348623157e308, 1e300]),
)
RECORDS = st.lists(
    st.builds(EpochRecord, INT64, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, INT64),
    max_size=40,
)
STATS = st.dictionaries(st.text(max_size=6), st.floats(), max_size=4)

NAN_EPOCH = [EpochRecord(0, math.nan, math.inf, -math.inf, -0.0, 5e-324, 0)]
INT_EPOCHS = [EpochRecord(i, 7, 0, 1, 0, 0, 2 ** 40) for i in range(3)]


def both(records, stats=None):
    """(columnar result, decoded list-backed oracle) over ``records``."""
    fields = dict(app="cg.C", environment="xen+", policy="Round-4K",
                  completion_seconds=12.5, epochs=len(records), stats=dict(stats or {}))
    oracle = RowResult.from_json(RowResult(records=list(records), **fields).to_json())
    return RunResult(records=records, **fields), oracle


def bits(value):
    return struct.pack("<d", value)


def dumps_both_ways(payload):
    return json.dumps(payload), json.dumps(payload, sort_keys=True)


def has_nan(records):
    return any(
        isinstance(v, float) and math.isnan(v)
        for r in records
        for v in (getattr(r, name) for name in FIELDS)
    )


def same_record(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert bits(a) == bits(b) if isinstance(a, float) else a == b, name


class TestColumnarMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(RECORDS, STATS)
    @example(records=[], stats={})
    @example(records=NAN_EPOCH, stats={"x": math.nan})
    @example(records=INT_EPOCHS, stats={})
    def test_to_json_is_byte_identical(self, records, stats):
        result, oracle = both(records, stats)
        assert dumps_both_ways(result.to_json()) == dumps_both_ways(oracle.to_json())
        if not has_nan(oracle.records) and not any(map(math.isnan, oracle.stats.values())):
            assert result.to_json() == oracle.to_json()

    @settings(max_examples=200, deadline=None)
    @given(RECORDS)
    @example(records=[])
    @example(records=NAN_EPOCH)
    @example(records=INT_EPOCHS)
    def test_summaries_are_bit_equal(self, records):
        result, oracle = both(records)
        assert bits(result.mean_imbalance) == bits(oracle.mean_imbalance)
        assert bits(result.mean_max_link_rho) == bits(oracle.mean_max_link_rho)
        assert bits(result.mean_local_fraction) == bits(oracle.mean_local_fraction)
        assert type(result.total_migrations) is int
        assert result.total_migrations == oracle.total_migrations
        assert bits(_throughput(result)) == bits(oracle.throughput)

    @settings(max_examples=200, deadline=None)
    @given(RECORDS)
    @example(records=[])
    @example(records=NAN_EPOCH)
    def test_iteration_and_indexing_give_the_oracle_records(self, records):
        result, oracle = both(records)
        assert isinstance(result.records, EpochRecords)
        assert len(result.records) == len(oracle.records)
        for got, want in zip(result.records, oracle.records):
            same_record(got, want)
        n = len(oracle.records)
        for index in range(-n, n):
            same_record(result.records[index], oracle.records[index])
        window = result.records[1:3]
        assert isinstance(window, EpochRecords) and len(window) == len(oracle.records[1:3])
        for got, want in zip(window, oracle.records[1:3]):
            same_record(got, want)
        if not has_nan(oracle.records):
            assert result.records == oracle.records
            assert oracle.records == result.records
            assert result.records == EpochRecords(oracle.records)

    @settings(max_examples=40, deadline=None)
    @given(RECORDS, STATS)
    @example(records=NAN_EPOCH, stats={})
    def test_disk_stores_round_trip(self, records, stats):
        result, oracle = both(records, stats)
        # The stores write sorted keys, so stats come back in key order.
        expected = json.dumps(oracle.to_json(), sort_keys=True)
        for store_cls in (DiskRunStore, ShardedDiskRunStore):
            with tempfile.TemporaryDirectory() as root:
                store_cls(root).put("ab" * 32, [result])
                loaded = store_cls(root).get("ab" * 32)
            assert loaded is not None and len(loaded) == 1
            assert json.dumps(loaded[0].to_json(), sort_keys=True) == expected
            if not has_nan(oracle.records) and not any(map(math.isnan, oracle.stats.values())):
                assert loaded == [result]

    @settings(max_examples=100, deadline=None)
    @given(RECORDS)
    @example(records=NAN_EPOCH)
    def test_results_survive_pickle(self, records):
        result, oracle = both(records)
        again = pickle.loads(pickle.dumps(result))
        assert isinstance(again.records, EpochRecords)
        assert dumps_both_ways(again.to_json()) == dumps_both_ways(oracle.to_json())
        assert not any(getattr(again.records, name).flags.writeable for name in FIELDS)

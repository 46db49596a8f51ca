"""Table 2: application behaviour — model vs specification."""

from conftest import run_once

from repro.experiments import table2


def test_table2_behaviour(benchmark):
    result = run_once(benchmark, lambda: table2.SCENARIO.run(verbose=False))
    assert len(result.rows) == 29
    for row in result.rows:
        # The modeled footprint matches the spec within page rounding.
        assert abs(row.footprint_mb_modeled - row.footprint_mb_spec) <= max(
            2.0, 0.05 * row.footprint_mb_spec
        )
        # Disk-free apps read nothing; disk apps read in the right band
        # (the measured rate is lower when the run is slower than nominal).
        if row.disk_mb_s_spec == 0:
            assert row.disk_mb_s_measured == 0
        else:
            assert 0 < row.disk_mb_s_measured <= row.disk_mb_s_spec * 1.5

"""Section 2.2: 74/307/186 us block reads and the amortisation effect."""

from conftest import run_once

from repro.experiments import io_micro
from repro.vio.disk import IoMode


def test_io_microbench(benchmark):
    result = run_once(benchmark, lambda: io_micro.SCENARIO.run(verbose=False))
    assert result.matches_paper(tolerance=0.02)
    # Larger reads amortise the virtualisation overhead (both paths).
    for mode in (IoMode.PARAVIRT, IoMode.PASSTHROUGH):
        series = result.overhead_vs_native[mode]
        sizes = sorted(series)
        values = [series[s] for s in sizes]
        assert values == sorted(values, reverse=True)
    # Passthrough always beats paravirt.
    for size in result.overhead_vs_native[IoMode.PARAVIRT]:
        assert (
            result.overhead_vs_native[IoMode.PASSTHROUGH][size]
            < result.overhead_vs_native[IoMode.PARAVIRT][size]
        )

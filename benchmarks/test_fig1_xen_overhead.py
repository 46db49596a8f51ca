"""Figure 1: relative overhead of Xen vs Linux, all 29 applications.

Paper claims: overhead up to ~700%; >50% for roughly half the
applications; >100% for a third of them.
"""

from conftest import run_once

from repro.experiments import fig1


def test_fig1_xen_overhead(benchmark):
    result = run_once(benchmark, lambda: fig1.SCENARIO.run(verbose=False))
    assert len(result.overheads) == 29
    # Shape: many applications suffer badly under stock Xen.
    assert result.count_above(0.5) >= 10
    assert result.count_above(1.0) >= 4
    # The worst case lands in the several-hundred-percent band.
    assert 4.0 < result.max_overhead < 12.0
    # Memory-bound master-slave and IPI-bound apps are among the worst.
    assert result.overheads["cg.C"] > 1.0
    assert result.overheads["memcached"] > 1.0

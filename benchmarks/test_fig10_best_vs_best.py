"""Figure 10: Xen+ and Xen+NUMA vs LinuxNUMA.

Paper claims: with the right NUMA policies the big virtualisation gap
mostly closes — only 4 apps stay degraded above 50% (vs 14 for Xen+),
and the stragglers are IPI-bound (memcached, cassandra, ua.C) or
I/O-odd (psearchy).
"""

from conftest import run_once

from repro.experiments import fig10


def test_fig10_best_vs_best(benchmark):
    result = run_once(benchmark, lambda: fig10.SCENARIO.run(verbose=False))
    assert len(result.overheads) == 29
    above_plus = result.count_above("xen+", 0.5)
    above_numa = result.count_above("xen+numa", 0.5)
    # The NUMA policies close most of the gap.
    assert above_numa < above_plus
    assert above_numa <= 8
    # The paper's stragglers remain degraded: they are IPI-bound, which
    # no memory policy can fix.
    assert result.overheads["memcached"]["xen+numa"] > 0.5
    assert result.overheads["ua.C"]["xen+numa"] > 0.3
    # Xen+NUMA never loses to Xen+ by a meaningful margin.
    for app, values in result.overheads.items():
        assert values["xen+numa"] <= values["xen+"] + 0.05

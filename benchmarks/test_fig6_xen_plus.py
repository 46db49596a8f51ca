"""Figure 6: Linux / Xen / Xen+ overhead vs LinuxNUMA.

Paper claims: even Xen+ (I/O and IPI overheads mitigated) leaves a large
NUMA gap — ~20 apps above 25%, ~14 above 50%, ~11 above 100%.
"""

from conftest import run_once

from repro.experiments import fig6


def test_fig6_xen_plus(benchmark):
    result = run_once(benchmark, lambda: fig6.SCENARIO.run(verbose=False))
    assert len(result.overheads) == 29
    # Xen+ still leaves a substantial NUMA-placement gap.
    assert result.count_above("xen+", 0.25) >= 8
    assert result.count_above("xen+", 0.50) >= 6
    # Xen+ never does worse than stock Xen by much for the disk/IPI apps
    # it was built to help.
    for app in ("dc.B", "streamcluster", "facesim", "mongodb"):
        assert (
            result.overheads[app]["xen+"]
            <= result.overheads[app]["xen"] + 0.05
        )
    # Plain Linux (first-touch) is never better than LinuxNUMA (best).
    assert all(v["linux"] >= -1e-9 for v in result.overheads.values())

"""Figure 9: two consolidated VMs (48 vCPUs each) sharing every pCPU."""

from conftest import run_once

from repro.experiments import fig9


def test_fig9_consolidated(benchmark):
    result = run_once(benchmark, lambda: fig9.SCENARIO.run(verbose=False))
    assert len(result.pairs) == 6
    # NUMA policies matter under consolidation too.
    assert result.count_vm_improved_above(0.5) >= 3
    assert result.max_degradation() <= 0.15
    cg_pair = next(p for p in result.pairs if p.apps == ("cg.C", "sp.C"))
    assert max(cg_pair.improvements) > 0.5

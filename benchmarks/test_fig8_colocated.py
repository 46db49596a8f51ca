"""Figure 8: two colocated VMs (24 vCPUs each) on disjoint node halves."""

from conftest import run_once

from repro.experiments import fig8


def test_fig8_colocated(benchmark):
    result = run_once(benchmark, lambda: fig8.SCENARIO.run(verbose=False))
    assert len(result.pairs) == 5
    # In most pairs at least one VM improves substantially with the right
    # policy (the paper: 9 of 11 configurations across Figs 8-9 improve a
    # VM by >50%).
    assert result.count_vm_improved_above(0.5) >= 3
    # The paper's best case (cg.C with sp.C) improves by hundreds of %.
    cg_pair = next(p for p in result.pairs if p.apps == ("cg.C", "sp.C"))
    assert max(cg_pair.improvements) > 1.0
    # Degradations stay bounded (paper: at most 10%).
    assert result.max_degradation() <= 0.15

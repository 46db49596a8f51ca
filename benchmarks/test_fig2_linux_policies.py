"""Figure 2: Linux NUMA policy improvements over first-touch.

Paper claims: 17 of 29 applications move by more than 25% best-vs-worst
(12 by >50%, 5 by >100%), and *every* policy combination wins somewhere.
"""

from conftest import run_once

from repro.experiments import fig2


def test_fig2_linux_policies(benchmark):
    result = run_once(benchmark, lambda: fig2.SCENARIO.run(verbose=False))
    assert len(result.improvements) == 29
    assert result.count_spread_above(0.25) >= 10
    assert result.count_spread_above(0.50) >= 7
    assert result.count_spread_above(1.00) >= 3
    # Each combination is best for at least one application (the paper's
    # core argument for offering several policies).
    winners = set(result.best_combo.values())
    assert "First-Touch" in winners
    assert "Round-4K" in winners
    assert any("Carrefour" in w for w in winners)
    # The paper's named examples keep their winners' family.
    assert result.best_combo["cg.C"] == "First-Touch"
    assert result.best_combo["kmeans"] in ("Round-4K", "R4K/Carrefour")

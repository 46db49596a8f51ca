"""Figure 5: IPI cost repartition, plus the I/O microbenchmark of 2.2."""

import pytest
from conftest import run_once

from repro.experiments import fig5


def test_fig5_ipi(benchmark):
    result = run_once(benchmark, lambda: fig5.SCENARIO.run(verbose=False))
    assert result.totals["native"] == pytest.approx(0.9e-6)
    assert result.totals["guest"] == pytest.approx(10.9e-6)
    assert 11 < result.guest_native_ratio < 13
    for mode in ("native", "guest"):
        assert sum(result.components[mode].values()) == pytest.approx(
            result.totals[mode]
        )

"""Table 1: load imbalance and interconnect load under the static policies.

The measured metrics must track the paper's Table 1 closely: they are the
values the workload models were calibrated against, so this bench checks
the *whole loop* (calibration -> placement mechanics -> counters) closes.
"""

from conftest import run_once

from repro.experiments import table1
from repro.workloads.suite import get_app


def test_table1_metrics(benchmark):
    result = run_once(benchmark, lambda: table1.SCENARIO.run(verbose=False))
    assert len(result.rows) == 29
    # The low/moderate/high classification matches the paper for almost
    # every application (ties at class boundaries may flip).
    assert result.class_matches() >= 24
    by_app = {r.app: r for r in result.rows}
    # Spot checks against the paper's numbers (fractions, not percent).
    facesim = by_app["facesim"]
    assert abs(facesim.ft_imbalance - 2.53) < 0.4
    assert abs(facesim.ft_interconnect - 0.39) < 0.15
    cg = by_app["cg.C"]
    assert cg.ft_imbalance < 0.5
    assert cg.r4k_interconnect > 0.3
    # Round-4K always reduces the imbalance of high-class apps.
    for name in ("facesim", "kmeans", "pca", "streamcluster"):
        row = by_app[name]
        assert row.r4k_imbalance < row.ft_imbalance


def test_table1_interconnect_tracks_paper(benchmark):
    """Mean absolute error of the interconnect columns stays small."""
    rows = table1.SCENARIO.run(verbose=False).rows
    errors = []
    for row in rows:
        app = get_app(row.app)
        errors.append(abs(row.ft_interconnect - app.ft_interconnect))
        errors.append(abs(row.r4k_interconnect - app.r4k_interconnect))
    mean_error = sum(errors) / len(errors)
    benchmark.extra_info["mean_abs_error"] = mean_error
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert mean_error < 0.12

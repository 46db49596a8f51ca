"""Benchmark helpers.

Every benchmark regenerates one of the paper's tables or figures through
the :mod:`repro.experiments` harness and asserts the paper's qualitative
claims (who wins, by roughly what factor). Full sweeps are expensive, so
each runs exactly once (``rounds=1``); the experiment layer memoises
individual (app, environment, policy) runs within the process, so
benchmarks that share runs (Figure 6 reuses Figure 2's sweep, Figure 10
reuses Figure 7's) do not repeat them.
"""


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

"""Benchmarks of the section 7 extensions (the paper's future work).

* **Large pages / TLB**: with nested-TLB modelling on, round-1G recovers
  some ground on big-footprint apps (its 1 GiB mappings never miss),
  while the fine-grained policies pay the 4 KiB walk tax — quantifying
  the trade-off the paper points at.
* **Low-churn allocator**: swapping Streamflow for a scalloc/llalloc-like
  allocator (releases pages rarely) removes wrmem's first-touch overhead.
* **Automatic policy selection**: both selectors stay close to the
  oracle on a class-spanning app subset.
"""

import dataclasses

from conftest import run_once

from repro.config import SimConfig
from repro.core.autoselect import (
    CounterHeuristicSelector,
    ProbingSelector,
    make_xen_probe,
)
from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import run_app
from repro.sim.environment import VmSpec, XenEnvironment
from repro.workloads.suite import get_app


def fast(name, baseline=6.0, **changes):
    return dataclasses.replace(
        get_app(name), baseline_seconds=baseline, **changes
    )


def test_extension_tlb_large_pages(benchmark):
    """Round-1G gains from superpage mappings when the TLB is modelled."""
    app = fast("wc")  # 16 GiB footprint: far beyond 4 KiB TLB reach

    def sweep():
        out = {}
        for model_tlb in (False, True):
            config = SimConfig(model_tlb=model_tlb)
            r1g = run_app(
                XenEnvironment(config=config),
                VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_1G)),
            )
            ft = run_app(
                XenEnvironment(config=config),
                VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH)),
            )
            out[model_tlb] = ft.completion_seconds / r1g.completion_seconds
        return out

    ratios = run_once(benchmark, sweep)
    # The TLB tax falls on first-touch only: its relative position
    # against round-1G must get worse.
    assert ratios[True] > ratios[False]


def test_extension_low_churn_allocator(benchmark):
    """A scalloc-like allocator removes the first-touch churn penalty."""
    streamflow = fast("wrmem")
    scalloc = fast("wrmem", churn_per_thread_s=200.0)

    def sweep():
        out = {}
        for label, app in (("streamflow", streamflow), ("scalloc", scalloc)):
            result = run_app(
                XenEnvironment(),
                VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH)),
            )
            out[label] = result
        return out

    results = run_once(benchmark, sweep)
    assert results["streamflow"].stats["churn_slowdown"] > 1.05
    assert results["scalloc"].stats["churn_slowdown"] < 1.01
    assert (
        results["scalloc"].completion_seconds
        < results["streamflow"].completion_seconds
    )


def test_extension_auto_policy_selection(benchmark):
    """Both selectors land within ~15% of the oracle on a class-spanning
    subset (cg.C low / bt.C moderate / kmeans high)."""
    apps = [fast(name, baseline=10.0) for name in ("cg.C", "bt.C", "kmeans")]

    def evaluate():
        regrets = {"probing": [], "heuristic": []}
        for app in apps:
            probe = make_xen_probe(app)
            chosen = {
                "probing": ProbingSelector(probe, probe_epochs=4).select().chosen,
                "heuristic": CounterHeuristicSelector(
                    probe,
                    disk_mb_s=app.disk_mb_s,
                    churn_per_thread_s=app.churn_per_thread_s,
                ).select().chosen,
            }
            candidates = [
                PolicySpec(PolicyName.FIRST_TOUCH),
                PolicySpec(PolicyName.FIRST_TOUCH, True),
                PolicySpec(PolicyName.ROUND_4K),
                PolicySpec(PolicyName.ROUND_4K, True),
            ]
            times = {}
            for spec in candidates:
                result = run_app(XenEnvironment(), VmSpec(app=app, policy=spec))
                times[spec] = result.completion_seconds
            oracle = min(times.values())
            for kind, spec in chosen.items():
                regrets[kind].append(times[spec] / oracle - 1.0)
        return regrets

    regrets = run_once(benchmark, evaluate)
    assert max(regrets["probing"]) < 0.15
    assert max(regrets["heuristic"]) < 0.15

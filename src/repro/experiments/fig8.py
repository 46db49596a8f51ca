"""Figure 8: two colocated VMs, 24 vCPUs each, on disjoint node halves.

Each virtual machine runs one application with as many threads as vCPUs;
the first VM is pinned on one half of the NUMA nodes, the second on the
other half. Because placement matters, every configuration runs twice
with the halves swapped and the completion times are averaged (exactly
the paper's protocol). Reported: improvement of the best Xen NUMA policy
per application over the Xen+ default (round-1G).

A two-stage scenario: ``required_runs`` declares the per-application
policy sweeps and the round-1G pair baselines; the best-policy pair runs
depend on the sweep outcome, so ``assemble`` batches them as a follow-up
resolution through the same :class:`~repro.runner.ResultSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_percent, format_table
from repro.core.policies.base import PolicyName, PolicySpec
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest, VmRequest

#: The five colocated pairs (the paper's figure labels are not
#: machine-readable; the text names cg.C + sp.C explicitly, the others
#: are representative pairs across the imbalance classes).
DEFAULT_PAIRS: List[Tuple[str, str]] = [
    ("cg.C", "sp.C"),
    ("facesim", "streamcluster"),
    ("wc", "wr"),
    ("kmeans", "pca"),
    ("bt.C", "ft.C"),
]

_HALVES = ([0, 1, 2, 3], [4, 5, 6, 7])


@dataclass
class PairResult:
    """Improvement of each VM of one pair (averaged over the swap)."""

    apps: Tuple[str, str]
    improvements: Tuple[float, float]
    base_seconds: Tuple[float, float]
    best_seconds: Tuple[float, float]
    policies: Tuple[str, str]


@dataclass
class Fig8Result:
    pairs: List[PairResult]

    def count_vm_improved_above(self, threshold: float) -> int:
        """Pairs where at least one VM improves beyond ``threshold``."""
        return sum(1 for p in self.pairs if max(p.improvements) > threshold)

    def max_improvement(self) -> float:
        return max(max(p.improvements) for p in self.pairs)

    def max_degradation(self) -> float:
        return max(0.0, -min(min(p.improvements) for p in self.pairs))


def pair_apps(pairs: Sequence[Tuple[str, str]]) -> List[str]:
    """Unique application names across ``pairs``, in first-seen order."""
    return list(dict.fromkeys(name for pair in pairs for name in pair))


def pair_run_request(
    names: Tuple[str, str],
    policies: Tuple[PolicySpec, PolicySpec],
    flip: bool,
    vcpus: int = 24,
) -> RunRequest:
    """One colocated two-VM run (halves swapped when ``flip``)."""
    halves = _HALVES if not flip else (_HALVES[1], _HALVES[0])
    vms = []
    for i, name in enumerate(names):
        home = halves[i]
        pin = [c for node in home for c in range(node * 6, node * 6 + 6)][:vcpus]
        vms.append(
            VmRequest(
                app=name,
                policy=policies[i].base.value,
                carrefour=policies[i].carrefour,
                num_vcpus=vcpus,
                home_nodes=home,
                pin_pcpus=pin,
            )
        )
    return common.pair_request(vms)


def resolved_best_spec(results: ResultSet, app_name: str) -> PolicySpec:
    """The measured best single-VM Xen policy, read from the sweep in ``results``."""
    _, label = common.best_xen_numa(results.one, app_name)
    return PolicySpec.parse(label)


def required_runs(
    apps: Optional[Sequence[str]] = None,
    pairs: Optional[List[Tuple[str, str]]] = None,
) -> List[RunRequest]:
    """Policy sweeps for every paired app plus the round-1G baselines."""
    pairs = pairs or DEFAULT_PAIRS
    requests: List[RunRequest] = []
    for name in pair_apps(pairs):
        requests.extend(common.xen_numa_requests(name))
    round1g = PolicySpec(PolicyName.ROUND_1G)
    for pair in pairs:
        for flip in (False, True):
            requests.append(pair_run_request(pair, (round1g, round1g), flip))
    return requests


def _pair_completions(
    results: ResultSet,
    names: Tuple[str, str],
    policies: Tuple[PolicySpec, PolicySpec],
) -> Tuple[float, float]:
    """Average completion of both runs (halves swapped)."""
    totals = [0.0, 0.0]
    for flip in (False, True):
        run_results = results.get(pair_run_request(names, policies, flip))
        for i, result in enumerate(run_results):
            totals[i] += result.completion_seconds / 2.0
    return totals[0], totals[1]


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
    pairs: Optional[List[Tuple[str, str]]] = None,
) -> Fig8Result:
    """Build Figure 8 from resolved runs (``apps`` ignored)."""
    pairs = pairs or DEFAULT_PAIRS
    round1g = PolicySpec(PolicyName.ROUND_1G)
    # Stage 2: the winners of the sweeps decide the best-policy pair
    # runs; batch them in one resolution so --jobs parallelises them.
    best = {name: resolved_best_spec(results, name) for name in pair_apps(pairs)}
    results.resolve(
        [
            pair_run_request(pair, (best[pair[0]], best[pair[1]]), flip)
            for pair in pairs
            for flip in (False, True)
        ]
    )
    out: List[PairResult] = []
    rows: List[List[str]] = []
    for pair in pairs:
        base = _pair_completions(results, pair, (round1g, round1g))
        best_specs = (best[pair[0]], best[pair[1]])
        best_times = _pair_completions(results, pair, best_specs)
        improvements = (
            base[0] / best_times[0] - 1.0,
            base[1] / best_times[1] - 1.0,
        )
        out.append(
            PairResult(
                apps=pair,
                improvements=improvements,
                base_seconds=base,
                best_seconds=best_times,
                policies=(best_specs[0].label, best_specs[1].label),
            )
        )
        for i in (0, 1):
            rows.append(
                [
                    f"{pair[0]} + {pair[1]}",
                    pair[i],
                    out[-1].policies[i],
                    format_percent(improvements[i], signed=True),
                ]
            )
    result = Fig8Result(out)
    if verbose:
        print(
            format_table(
                ["pair", "vm", "policy", "improvement"],
                rows,
                title="Figure 8 - 2 colocated VMs (24 vCPUs each) vs Xen+",
            )
        )
        print(
            f"\n> max improvement {format_percent(result.max_improvement())}, "
            f"max degradation {format_percent(result.max_degradation())}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig8",
        description="Two colocated 24-vCPU VMs: best policy vs round-1G",
        required_runs=required_runs,
        assemble=assemble,
    )
)

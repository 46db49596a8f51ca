"""Automatic NUMA policy selection — the paper's open problem (section 7).

"Finally, automatically selecting the most efficient NUMA policy in an
hypervisor or in an operating system remains an open subject."

Two selectors are provided:

* :class:`ProbingSelector` — run the application briefly under every
  candidate policy (a few epochs each) and keep the one with the highest
  operation throughput. Exhaustive and workload-agnostic, but pays the
  probing time.
* :class:`CounterHeuristicSelector` — the paper's own analysis (section
  3.5.2) turned into a decision procedure: probe *first-touch only*,
  read the hardware counters, classify the application by its access
  imbalance, and apply the class rule:

  - **low** imbalance  -> first-touch (locality is already right);
  - **moderate**       -> first-touch / Carrefour;
  - **high**           -> round-4K / Carrefour;

  with two hypervisor-specific overrides: a disk-heavy domain avoids
  first-touch (it would forfeit the passthrough driver, section 4.4.1),
  and a page-churning domain avoids first-touch in the hypervisor (every
  realloc faults, section 4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import classify_imbalance
from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.results import RunResult

#: Default candidate set: everything a running domain can switch to.
DEFAULT_CANDIDATES: Tuple[PolicySpec, ...] = (
    PolicySpec(PolicyName.FIRST_TOUCH),
    PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True),
    PolicySpec(PolicyName.ROUND_4K),
    PolicySpec(PolicyName.ROUND_4K, carrefour=True),
)

#: Runs an application under a policy for a bounded number of epochs and
#: returns the RunResult (the selectors never see the simulator directly).
ProbeFn = Callable[[PolicySpec, int], RunResult]


@dataclass
class SelectionReport:
    """Outcome of one automatic selection.

    Attributes:
        chosen: the selected policy.
        probes: (policy, throughput ops/s) pairs, in probe order.
        rationale: one-line human-readable justification.
    """

    chosen: PolicySpec
    probes: List[Tuple[PolicySpec, float]] = field(default_factory=list)
    rationale: str = ""


def _throughput(result: RunResult) -> float:
    """Average operation throughput of a (possibly truncated) run."""
    if not result.records:
        return 0.0
    # Python's left-to-right float sum (np.sum is pairwise: other bits).
    total_ops = sum(result.records.ops_done.tolist())
    return total_ops / max(1, len(result.records))


class ProbingSelector:
    """Pick the policy with the best probed throughput.

    Args:
        probe: executes one bounded probe run.
        probe_epochs: epochs per candidate (enough for Carrefour to act).
        candidates: policies to try.
    """

    def __init__(
        self,
        probe: ProbeFn,
        probe_epochs: int = 6,
        candidates: Sequence[PolicySpec] = DEFAULT_CANDIDATES,
    ):
        self.probe = probe
        self.probe_epochs = probe_epochs
        self.candidates = tuple(candidates)

    def select(self) -> SelectionReport:
        """Probe every candidate; keep the fastest."""
        report = SelectionReport(chosen=self.candidates[0])
        best_rate = -1.0
        for spec in self.candidates:
            result = self.probe(spec, self.probe_epochs)
            rate = _throughput(result)
            report.probes.append((spec, rate))
            if rate > best_rate:
                best_rate = rate
                report.chosen = spec
        report.rationale = (
            f"probed {len(self.candidates)} policies for "
            f"{self.probe_epochs} epochs each; best throughput "
            f"{best_rate:.3g} ops/s"
        )
        return report


class CounterHeuristicSelector:
    """Classify from counters, then apply the section 3.5.2 rule.

    Args:
        probe: executes one bounded probe run.
        probe_epochs: epochs of the single first-touch probe.
        disk_mb_s: the domain's disk rate (observable from the I/O rings).
        churn_per_thread_s: its page release rate (observable from the
            page-event hypercall traffic).
        hypervisor_mode: apply the hypervisor-specific overrides.
    """

    #: Disk rate above which first-touch's passthrough loss dominates.
    DISK_THRESHOLD_MB_S = 50.0
    #: Release rate above which hypervisor first-touch pays too many faults.
    CHURN_THRESHOLD_PER_S = 5000.0
    #: Safety margin on the low/moderate boundary: a probe landing close
    #: to it gets Carrefour anyway — the paper measures Carrefour within
    #: 1-2% of the best policy for low applications, so erring toward it
    #: is cheap, while missing a moderate application is not.
    CLASS_MARGIN = 0.12

    def __init__(
        self,
        probe: ProbeFn,
        probe_epochs: int = 3,
        disk_mb_s: float = 0.0,
        churn_per_thread_s: float = 0.0,
        hypervisor_mode: bool = True,
    ):
        self.probe = probe
        self.probe_epochs = probe_epochs
        self.disk_mb_s = disk_mb_s
        self.churn_per_thread_s = churn_per_thread_s
        self.hypervisor_mode = hypervisor_mode

    def select(self) -> SelectionReport:
        """One first-touch probe, one classification, one rule."""
        from repro.analysis.metrics import LOW_THRESHOLD

        ft = PolicySpec(PolicyName.FIRST_TOUCH)
        result = self.probe(ft, self.probe_epochs)
        imbalance = result.mean_imbalance
        klass = classify_imbalance(imbalance)
        if klass == "low" and imbalance > LOW_THRESHOLD * (1.0 - self.CLASS_MARGIN):
            klass = "moderate"
        if klass == "low":
            chosen = PolicySpec(PolicyName.FIRST_TOUCH)
        elif klass == "moderate":
            chosen = PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True)
        else:
            chosen = PolicySpec(PolicyName.ROUND_4K, carrefour=True)
        rationale = (
            f"first-touch imbalance {imbalance * 100:.0f}% -> class "
            f"'{klass}'"
        )
        if self.hypervisor_mode and chosen.base is PolicyName.FIRST_TOUCH:
            if self.disk_mb_s > self.DISK_THRESHOLD_MB_S:
                chosen = PolicySpec(PolicyName.ROUND_4K, chosen.carrefour)
                rationale += (
                    f"; disk {self.disk_mb_s:.0f} MB/s forbids first-touch "
                    "(would forfeit the passthrough driver)"
                )
            elif self.churn_per_thread_s > self.CHURN_THRESHOLD_PER_S:
                chosen = PolicySpec(PolicyName.ROUND_4K, chosen.carrefour)
                rationale += (
                    f"; {self.churn_per_thread_s:.0f} releases/s/thread "
                    "forbids hypervisor first-touch (refault cost)"
                )
        report = SelectionReport(chosen=chosen, rationale=rationale)
        report.probes.append((ft, _throughput(result)))
        return report


def make_xen_probe(app, env_factory=None) -> ProbeFn:
    """Build a ProbeFn running ``app`` in a fresh single-VM Xen world.

    Args:
        app: the application to probe.
        env_factory: optional zero-arg callable producing the
            :class:`~repro.sim.environment.XenEnvironment` to probe in.
    """
    from repro.sim.engine import run_app
    from repro.sim.environment import VmSpec, XenEnvironment

    def probe(spec: PolicySpec, epochs: int) -> RunResult:
        env = env_factory() if env_factory is not None else XenEnvironment()
        return run_app(env, VmSpec(app=app, policy=spec), max_epochs=epochs)

    return probe

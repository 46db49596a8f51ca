"""Automatic policy selection (section 7 extension)."""


from repro.core.autoselect import (
    DEFAULT_CANDIDATES,
    CounterHeuristicSelector,
    ProbingSelector,
    make_xen_probe,
)
from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.results import EpochRecord, RunResult
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def fake_result(rate, imbalance=0.0, epochs=3):
    return RunResult(
        app="x", environment="xen+", policy="p", completion_seconds=1.0,
        epochs=epochs,
        records=[
            EpochRecord(i, rate, imbalance=imbalance, max_link_rho=0.0,
                        local_fraction=1.0)
            for i in range(epochs)
        ],
    )


class TestProbingSelector:
    def test_picks_highest_throughput(self):
        rates = {
            PolicyName.FIRST_TOUCH: 10.0,
            PolicyName.ROUND_4K: 30.0,
        }

        def probe(spec, epochs):
            base = rates[spec.base]
            if spec.carrefour:
                base *= 0.9
            return fake_result(base)

        report = ProbingSelector(probe).select()
        assert report.chosen == PolicySpec(PolicyName.ROUND_4K)
        assert len(report.probes) == len(DEFAULT_CANDIDATES)
        assert "probed" in report.rationale

    def test_custom_candidates(self):
        report = ProbingSelector(
            lambda spec, epochs: fake_result(1.0),
            candidates=[PolicySpec(PolicyName.FIRST_TOUCH)],
        ).select()
        assert report.chosen == PolicySpec(PolicyName.FIRST_TOUCH)


class TestCounterHeuristic:
    def _selector(self, imbalance, **kwargs):
        return CounterHeuristicSelector(
            lambda spec, epochs: fake_result(1.0, imbalance=imbalance),
            **kwargs,
        )

    def test_low_class_keeps_first_touch(self):
        report = self._selector(0.3).select()
        assert report.chosen == PolicySpec(PolicyName.FIRST_TOUCH)
        assert "low" in report.rationale

    def test_moderate_class_adds_carrefour(self):
        report = self._selector(1.0).select()
        assert report.chosen == PolicySpec(PolicyName.FIRST_TOUCH, True)

    def test_high_class_switches_to_round4k_carrefour(self):
        report = self._selector(2.5).select()
        assert report.chosen == PolicySpec(PolicyName.ROUND_4K, True)

    def test_disk_override(self):
        """A disk-heavy domain must not forfeit the passthrough driver."""
        report = self._selector(0.3, disk_mb_s=200.0).select()
        assert report.chosen.base is PolicyName.ROUND_4K
        assert "passthrough" in report.rationale

    def test_churn_override(self):
        report = self._selector(0.3, churn_per_thread_s=60_000.0).select()
        assert report.chosen.base is PolicyName.ROUND_4K
        assert "refault" in report.rationale

    def test_no_overrides_outside_hypervisor(self):
        report = self._selector(
            0.3, disk_mb_s=200.0, hypervisor_mode=False
        ).select()
        assert report.chosen.base is PolicyName.FIRST_TOUCH


class TestEndToEnd:
    def test_probe_runs_real_simulation(self):
        app = fast_app(get_app("cg.C"))
        probe = make_xen_probe(app)
        result = probe(PolicySpec(PolicyName.ROUND_4K), 2)
        assert result.epochs <= 2
        assert result.records

    def test_heuristic_classifies_real_apps(self):
        # cg.C is "low": first-touch sticks; kmeans is "high": round-4K/C.
        for name, expected_base, expected_carrefour in (
            ("cg.C", PolicyName.FIRST_TOUCH, False),
            ("kmeans", PolicyName.ROUND_4K, True),
        ):
            app = fast_app(get_app(name))
            selector = CounterHeuristicSelector(
                make_xen_probe(app),
                disk_mb_s=app.disk_mb_s,
                churn_per_thread_s=0.0,
            )
            report = selector.select()
            assert report.chosen.base is expected_base
            assert report.chosen.carrefour is expected_carrefour

    def test_probing_matches_oracle_for_cg(self):
        app = fast_app(get_app("cg.C"))
        report = ProbingSelector(make_xen_probe(app), probe_epochs=4).select()
        assert report.chosen.base is PolicyName.FIRST_TOUCH

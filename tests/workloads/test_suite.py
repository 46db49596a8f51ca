"""The 29-application suite and segment resolution."""

import pytest

from repro.config import SimConfig
from repro.errors import WorkloadError
from repro.workloads.app import AppSpec, build_segments
from repro.workloads.suite import (
    APP_NAMES,
    APPLICATIONS,
    WRMEM_CHURN,
    get_app,
)


def apps_in_class(klass):
    """All applications of one imbalance class ("low"/"moderate"/"high")."""
    return [app for app in APPLICATIONS if app.imbalance_class == klass]


class TestSuite:
    def test_exactly_29_applications(self):
        assert len(APPLICATIONS) == 29

    def test_unique_names(self):
        assert len(set(APP_NAMES)) == 29

    def test_suite_membership(self):
        by_suite = {}
        for app in APPLICATIONS:
            by_suite.setdefault(app.suite, []).append(app.name)
        assert len(by_suite["parsec"]) == 6
        assert len(by_suite["npb"]) == 9
        assert len(by_suite["mosbench"]) == 7
        assert len(by_suite["xstream"]) == 5
        assert len(by_suite["ycsb"]) == 2

    def test_class_counts_match_table1(self):
        """Section 3.5.2: 11 low, 5 moderate, 13 high."""
        assert len(apps_in_class("low")) == 11
        assert len(apps_in_class("moderate")) == 5
        assert len(apps_in_class("high")) == 13

    def test_lookup(self):
        assert get_app("cg.C").suite == "npb"
        with pytest.raises(WorkloadError):
            get_app("doom")

    def test_table2_spot_checks(self):
        dc = get_app("dc.B")
        assert dc.footprint_mb == 39273
        assert dc.disk_mb_s == 175
        mc = get_app("memcached")
        assert mc.ctx_switches_k_s == pytest.approx(127.1)

    def test_table1_spot_checks(self):
        facesim = get_app("facesim")
        assert facesim.ft_imbalance == pytest.approx(2.53)
        assert facesim.r4k_interconnect == pytest.approx(0.16)

    def test_wrmem_churn_is_one_per_15us(self):
        assert get_app("wrmem").churn_per_thread_s == pytest.approx(1 / 15e-6)
        assert WRMEM_CHURN == pytest.approx(66_666.67, rel=1e-3)

    def test_every_app_has_best_policies(self):
        for app in APPLICATIONS:
            assert app.best_linux
            assert app.best_xen


class TestDerivedParameters:
    def test_master_share_tracks_class(self):
        for app in apps_in_class("high"):
            assert app.master_share > 0.45
        for app in apps_in_class("low"):
            assert app.master_share < 0.35

    def test_hot_weight_in_unit_interval(self):
        for app in APPLICATIONS:
            assert 0.0 <= app.hot_weight <= 1.0

    def test_segments_cover_and_weight_one(self):
        for app in APPLICATIONS:
            specs = app.segments()
            assert sum(s.fraction for s in specs) == pytest.approx(1.0)
            assert sum(s.weight for s in specs) == pytest.approx(1.0)


class TestBuildSegments:
    def test_private_split_per_thread(self):
        config = SimConfig()
        segments = build_segments(get_app("facesim"), 4, config)
        private = [s for s in segments if s.owner_tid is not None]
        shared = [s for s in segments if s.owner_tid is None]
        assert len(private) == 4
        assert len(shared) == 1
        assert {s.owner_tid for s in private} == {0, 1, 2, 3}

    def test_every_segment_nonempty(self):
        config = SimConfig()
        for app in APPLICATIONS:
            for segment in build_segments(app, 48, config):
                assert segment.num_pages >= 1

    def test_total_roughly_footprint(self):
        config = SimConfig()
        app = get_app("wc")
        total = sum(s.num_pages for s in build_segments(app, 48, config))
        expected = config.pages_for_bytes(app.footprint_bytes)
        assert total == pytest.approx(expected, rel=0.05)

    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            build_segments(get_app("wc"), 0, SimConfig())


class TestValidation:
    def test_bad_class_rejected(self):
        with pytest.raises(WorkloadError):
            AppSpec(
                name="x", suite="s", footprint_mb=1, disk_mb_s=0,
                ctx_switches_k_s=0, ft_imbalance=0, r4k_imbalance=0,
                ft_interconnect=0, r4k_interconnect=0, imbalance_class="huge",
            )

    def test_bad_footprint_rejected(self):
        with pytest.raises(WorkloadError):
            AppSpec(
                name="x", suite="s", footprint_mb=0, disk_mb_s=0,
                ctx_switches_k_s=0, ft_imbalance=0, r4k_imbalance=0,
                ft_interconnect=0, r4k_interconnect=0, imbalance_class="low",
            )

"""Cache hierarchy levels."""

import pytest

from repro.hardware.cache import CacheHierarchy
from repro.hardware.presets import amd48_caches


@pytest.fixture
def caches():
    return amd48_caches()


class TestConstruction:
    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=())

    def test_amd48_latencies(self, caches):
        by_name = {l.name: l.latency_cycles for l in caches.levels}
        assert by_name == {"L1": 5.0, "L2": 16.0, "L3": 48.0}

"""Machine memory: extent allocation, coalescing, controllers."""

import pytest

from repro.errors import OutOfMemoryError, TopologyError
from repro.hardware.memory import MachineMemory, MemoryController


@pytest.fixture
def memory():
    return MachineMemory(num_nodes=2, frames_per_node=128, controller_gib_s=13.0)


class TestGeometry:
    def test_node_of_frame(self, memory):
        assert memory.node_of_frame(0) == 0
        assert memory.node_of_frame(127) == 0
        assert memory.node_of_frame(128) == 1
        assert memory.node_of_frame(255) == 1

    def test_frame_out_of_range(self, memory):
        with pytest.raises(TopologyError):
            memory.node_of_frame(256)

    def test_total_frames(self, memory):
        assert memory.total_frames == 256


class TestAllocation:
    def test_single_frame_on_node(self, memory):
        mfn = memory.alloc_frames(1, 1)
        assert memory.node_of_frame(mfn) == 1

    def test_contiguous_run(self, memory):
        mfn = memory.alloc_frames(0, 16)
        assert mfn is not None
        assert memory.node_of_frame(mfn + 15) == 0
        assert memory.free_frames_on(0) == 112

    def test_exhaustion_returns_none(self, memory):
        assert memory.alloc_frames(0, 128) is not None
        assert memory.alloc_frames(0, 1) is None

    def test_too_large_returns_none(self, memory):
        assert memory.alloc_frames(0, 129) is None

    def test_aligned_allocation(self, memory):
        memory.alloc_frames(0, 3)  # misalign the cursor
        mfn = memory.alloc_frames(0, 8, align=8)
        assert mfn % 8 == 0

    def test_zero_count_rejected(self, memory):
        with pytest.raises(OutOfMemoryError):
            memory.alloc_frames(0, 0)

    def test_unknown_node_rejected(self, memory):
        with pytest.raises(TopologyError):
            memory.alloc_frames(7, 1)


class TestFree:
    def test_free_and_realloc(self, memory):
        mfn = memory.alloc_frames(0, 8)
        memory.free_frames(mfn, 8)
        assert memory.free_frames_on(0) == 128
        again = memory.alloc_frames(0, 128)
        assert again is not None

    def test_coalescing_restores_largest_extent(self, memory):
        a = memory.alloc_frames(0, 8)
        b = memory.alloc_frames(0, 8)
        c = memory.alloc_frames(0, 8)
        memory.free_frames(a, 8)
        memory.free_frames(c, 8)
        memory.free_frames(b, 8)
        assert memory.stats(0).largest_extent == 128

    def test_double_free_detected(self, memory):
        mfn = memory.alloc_frames(0, 4)
        memory.free_frames(mfn, 4)
        with pytest.raises(OutOfMemoryError, match="double free"):
            memory.free_frames(mfn, 4)

    def test_partial_overlap_free_detected(self, memory):
        mfn = memory.alloc_frames(0, 8)
        memory.free_frames(mfn, 4)
        with pytest.raises(OutOfMemoryError):
            memory.free_frames(mfn + 2, 4)

    def test_cross_node_free_rejected(self, memory):
        # Exhaust node 0, then fabricate a run crossing into node 1.
        memory.alloc_frames(0, 128)
        memory.alloc_frames(1, 128)
        with pytest.raises(OutOfMemoryError, match="boundary"):
            memory.free_frames(120, 16)


class TestStats:
    def test_stats_track_usage(self, memory):
        memory.alloc_frames(0, 32)
        stats = memory.stats(0)
        assert stats.free_frames == 96
        assert stats.total_frames == 128

    def test_fragmentation_shrinks_largest_extent(self, memory):
        runs = [memory.alloc_frames(0, 16) for _ in range(8)]
        for mfn in runs[::2]:
            memory.free_frames(mfn, 16)
        stats = memory.stats(0)
        assert stats.free_frames == 64
        assert stats.largest_extent == 16


class TestController:
    def test_utilization(self):
        controller = MemoryController(node=0, bandwidth_gib_s=1.0)
        controller.serve(1 << 30)
        assert controller.utilization(1.0) == pytest.approx(1.0)
        assert controller.utilization(2.0) == pytest.approx(0.5)

    def test_reset(self):
        controller = MemoryController(node=0, bandwidth_gib_s=1.0)
        controller.serve(12345)
        controller.reset()
        assert controller.utilization(1.0) == 0.0

    def test_zero_seconds(self):
        controller = MemoryController(node=0, bandwidth_gib_s=1.0)
        controller.serve(10)
        assert controller.utilization(0.0) == 0.0

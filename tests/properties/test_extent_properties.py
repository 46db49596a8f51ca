"""Property-based tests of the machine frame extent allocator."""

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hardware.memory import MachineMemory

FRAMES = 256


class ExtentMachine(RuleBasedStateMachine):
    """Random alloc/free sequences never corrupt the allocator."""

    def __init__(self):
        super().__init__()
        self.memory = MachineMemory(
            num_nodes=1, frames_per_node=FRAMES, controller_gib_s=13.0
        )
        self.live = {}  # mfn -> count

    @rule(count=st.integers(min_value=1, max_value=32))
    def alloc(self, count):
        mfn = self.memory.alloc_frames(0, count)
        if mfn is not None:
            # No overlap with any live allocation.
            for start, length in self.live.items():
                assert mfn + count <= start or start + length <= mfn
            self.live[mfn] = count

    @rule(data=st.data())
    def free(self, data):
        if not self.live:
            return
        mfn = data.draw(st.sampled_from(sorted(self.live)))
        count = self.live.pop(mfn)
        self.memory.free_frames(mfn, count)

    @invariant()
    def frames_conserved(self):
        allocated = sum(self.live.values())
        assert self.memory.free_frames_on(0) == FRAMES - allocated

    @invariant()
    def largest_extent_bounded(self):
        stats = self.memory.stats(0)
        assert 0 <= stats.largest_extent <= stats.free_frames


TestExtentMachine = ExtentMachine.TestCase


class TestAlignmentProperty:
    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_alignment_always_honoured(self, count, align):
        memory = MachineMemory(1, FRAMES, 13.0)
        memory.alloc_frames(0, 3)  # perturb
        mfn = memory.alloc_frames(0, count, align=align)
        if mfn is not None:
            assert mfn % align == 0

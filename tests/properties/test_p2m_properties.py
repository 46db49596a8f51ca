"""Property-based tests: the placement view never drifts from the p2m."""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hypervisor.p2m import P2MTable
from repro.sim.placement import PlacementTracker, SegmentPlacement

PAGES = 32
NODES = 4


class P2MPlacementMachine(RuleBasedStateMachine):
    """Random map/invalidate/migrate sequences keep the view in sync."""

    def __init__(self):
        super().__init__()
        self.p2m = P2MTable(domain_id=1)
        self.tracker = PlacementTracker(node_of_frame=lambda mfn: mfn % NODES)
        self.p2m.observer = self.tracker
        self.placement = SegmentPlacement(PAGES, NODES)
        for gpfn in range(PAGES):
            self.tracker.track(gpfn, self.placement, gpfn)

    @rule(
        gpfn=st.integers(min_value=0, max_value=PAGES - 1),
        mfn=st.integers(min_value=0, max_value=1023),
    )
    def map_page(self, gpfn, mfn):
        entry = self.p2m.lookup(gpfn)
        if entry is None or not entry.valid:
            self.p2m.set_entry(gpfn, mfn)

    @rule(gpfn=st.integers(min_value=0, max_value=PAGES - 1))
    def invalidate(self, gpfn):
        self.p2m.invalidate(gpfn)

    @rule(
        gpfn=st.integers(min_value=0, max_value=PAGES - 1),
        mfn=st.integers(min_value=0, max_value=1023),
    )
    def migrate(self, gpfn, mfn):
        if self.p2m.mfn_if_valid(gpfn) != -1:
            self.p2m.write_protect(gpfn)
            self.p2m.remap(gpfn, mfn)

    @invariant()
    def view_matches_table(self):
        for gpfn in range(PAGES):
            entry = self.p2m.lookup(gpfn)
            expected = -1
            if entry is not None and entry.valid:
                expected = entry.mfn % NODES
            assert self.placement.nodes[gpfn] == expected

    @invariant()
    def counts_match_nodes(self):
        import numpy as np

        recomputed = np.zeros(NODES, dtype=int)
        for gpfn in range(PAGES):
            node = self.placement.nodes[gpfn]
            if node >= 0:
                recomputed[node] += 1
        assert recomputed.tolist() == self.placement.counts.tolist()


TestP2MPlacementMachine = P2MPlacementMachine.TestCase

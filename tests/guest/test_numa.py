"""Native Linux NUMA modes: first-touch, round-4K, Carrefour backend."""

import numpy as np
import pytest

from repro.carrefour.heuristics import Action, PageDecision
from repro.errors import PolicyError
from repro.guest.numa import LinuxNumaMode
from repro.guest.process import Thread
from tests.conftest import small_machine


@pytest.fixture
def machine():
    return small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=512)


def thread_on(node):
    t = Thread(tid=0, vcpu_id=0)
    t.node = node
    return t


def node_of_page(mode, vpfn):
    """Per-page reference for ``nodes_of_pages``: -1 where unmapped."""
    mfn = mode._frames.get(vpfn)
    return -1 if mfn is None else mode.machine.node_of_frame(mfn)


class TestFirstTouch:
    def test_allocates_on_toucher_node(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        mfn = mode.backing(100, thread_on(3))
        assert machine.node_of_frame(mfn) == 3
        assert mode.nodes_of_pages(np.array([100])).tolist() == [3]

    def test_fallback_on_full_node(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        while machine.memory.alloc_frames(3, 1) is not None:
            pass
        mfn = mode.backing(100, thread_on(3))
        assert machine.node_of_frame(mfn) != 3


class TestRound4K:
    def test_round_robin(self, machine):
        mode = LinuxNumaMode(machine, "round-4k")
        nodes = [
            machine.node_of_frame(mode.backing(i, thread_on(0)))
            for i in range(8)
        ]
        assert nodes == [0, 1, 2, 3, 0, 1, 2, 3]


class TestValidation:
    def test_unknown_policy_rejected(self, machine):
        with pytest.raises(PolicyError):
            LinuxNumaMode(machine, "numad")

    def test_name(self, machine):
        assert LinuxNumaMode(machine, "round-4k").name == "round-4k"
        assert (
            LinuxNumaMode(machine, "round-4k", carrefour=True).name
            == "round-4k/carrefour"
        )


class TestRelease:
    def test_release_vpfn_frees_current_frame(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        before = machine.memory.free_frames_on(1)
        mode.backing(100, thread_on(1))
        assert mode.release_vpfn(100)
        assert machine.memory.free_frames_on(1) == before
        assert mode.nodes_of_pages(np.array([100])).tolist() == [-1]

    def test_release_unknown_is_false(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        assert not mode.release_vpfn(123)


class TestCarrefourBackend:
    def _decision(self, vpfn, dst, action=Action.MIGRATE):
        return PageDecision(page=vpfn, domain_id=0, action=action, dst_node=dst)

    def test_migration_moves_frame(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert mode._apply_decision(self._decision(100, 2))
        assert mode.nodes_of_pages(np.array([100])).tolist() == [2]
        assert mode.pages_migrated == 1
        assert mode.migration_seconds > 0

    def test_same_node_is_noop(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert not mode._apply_decision(self._decision(100, 0))

    def test_unmapped_page_is_noop(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        assert not mode._apply_decision(self._decision(55, 2))

    def test_replicate_discarded(self, machine):
        """The Xen port discards replication; Linux mode mirrors it."""
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert not mode._apply_decision(
            self._decision(100, 2, action=Action.REPLICATE)
        )

    def test_release_after_migration_frees_new_frame(self, machine):
        """The stale-frame bug this design exists to avoid."""
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        mode._apply_decision(self._decision(100, 2))
        before = machine.memory.free_frames_on(2)
        assert mode.release_vpfn(100)
        assert machine.memory.free_frames_on(2) == before + 1

    def test_hooks_fire(self, machine):
        placed, moved = [], []
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.on_page_placed = lambda v, n: placed.append((v, n))
        mode.on_page_moved = lambda v, n: moved.append((v, n))
        mode.backing(100, thread_on(1))
        mode._apply_decision(self._decision(100, 3))
        assert placed == [(100, 1)]
        assert moved == [(100, 3)]

    def test_counters_claimed_by_carrefour(self, machine):
        LinuxNumaMode(machine, "first-touch", carrefour=True)
        assert machine.counters.owner == "carrefour"

    def test_shutdown_releases_counters(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.shutdown()
        assert machine.counters.owner is None


class TestNodesOfPages:
    def test_batch_lookup_equals_per_page_lookup(self, machine):
        """After faults, releases and Carrefour moves, ``nodes_of_pages``
        answers what the per-page lookup answers, -1 for unmapped pages."""
        mode = LinuxNumaMode(machine, "round-4k", carrefour=True)
        for vpfn in range(40):
            mode.backing(vpfn, thread_on(vpfn % 4))
        for vpfn in (3, 17, 18, 39):
            assert mode.release_vpfn(vpfn)
        for vpfn, dst in ((0, 3), (5, 0), (22, 1), (17, 1)):
            mode._apply_decision(
                PageDecision(page=vpfn, domain_id=0, action=Action.MIGRATE,
                             dst_node=dst)
            )
        assert mode.pages_migrated == 3  # vpfn 17 was released
        pages = np.array([0, 3, 5, 17, 22, 39, 40, 1000, 5, 0], dtype=np.int64)
        expected = [node_of_page(mode, int(p)) for p in pages]
        nodes = mode.nodes_of_pages(pages)
        assert nodes.tolist() == expected
        assert nodes.tolist()[:3] == [3, -1, 0]
        assert mode.nodes_of_pages(np.zeros(0, dtype=np.int64)).size == 0

    def test_engine_decides_through_the_batch_lookup(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        assert mode.engine.system.placement_many == mode.nodes_of_pages

"""Array-backed page path vs the scalar oracle: observational equality.

The dict-of-objects :class:`~tests.properties.p2m_oracle.DictP2MTable`
and the loop bodies it carries *define* the page-path semantics; these
tests feed random operation sequences — scalar and batch, valid and
invalid — to both backends and require identical observable state,
return values and errors throughout. With a sanitizer armed, a batch op
must raise the trap its per-entry loop raises first and leave table,
heap and shadow state untouched. The other batch entry points (queue
recording, first-touch replay, whole worlds) are held to their scalar
APIs the same way.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.page_queue import (
    PageEvent,
    PageEventBatch,
    PageOp,
    PartitionedPageQueue,
)
from repro.core.policies import FirstTouchPolicy
from repro.errors import P2MError, SanitizerError
from repro.hardware.memory import MachineMemory
from repro.hardware.presets import small_machine
from repro.hypervisor.p2m import P2MTable
from repro.hypervisor.xen import XEN, Hypervisor
from repro.lint import sanitizer as p2m_sanitizer
from repro.lint.sanitizer import P2MSanitizer
from repro.runner import build_world
from repro.sim.engine import run_world
from repro.sim.environment import _XenContext
from repro.sim.placement import PlacementTracker, SegmentPlacement
from repro.sim.runspec import RunRequest, VmRequest

from tests.properties.p2m_oracle import DictP2MTable

PAGES = 24
MFNS = 64
NODES = 4


def snapshot(table):
    """Everything a client can observe about a p2m table."""
    entries = {}
    for gpfn in range(PAGES):
        entry = table.lookup(gpfn)
        if entry is not None:
            entries[gpfn] = (entry.mfn, entry.valid, entry.writable)
    return {
        "entries": entries,
        "num_entries": table.num_entries,
        "num_valid": table.num_valid,
        "valid": sorted((g, e.mfn) for g, e in table.valid_entries()),
        "invalidations": table.invalidations,
        "migrations": table.migrations,
    }


def apply_op(table, op):
    """Run one operation; returns (result, error message or None).

    Errors are reported as ``"<type>: <message>"`` so a P2MError and a
    SanitizerError never compare equal.
    """
    kind = op[0]
    try:
        if kind == "set":
            return table.set_entry(op[1], op[2]), None
        if kind == "invalidate":
            return table.invalidate(op[1]), None
        if kind == "remove":
            return table.remove(op[1]), None
        if kind == "protect":
            return table.write_protect(op[1]), None
        if kind == "remap":
            return table.remap(op[1], op[2]), None
        if kind == "unprotect":
            return table.unprotect(op[1]), None
        if kind == "set_many":
            return table.set_entries(np.asarray(op[1]), np.asarray(op[2])), None
        if kind == "invalidate_many":
            sel, mfns = table.invalidate_many(np.asarray(op[1]))
            return (sel.tolist(), mfns.tolist()), None
        if kind == "remove_many":
            return table.remove_many(np.asarray(op[1])).tolist(), None
        if kind == "translate_many":
            return table.translate_many(np.asarray(op[1])).tolist(), None
        if kind == "mfns_if_valid":
            return table.mfns_if_valid(np.asarray(op[1])).tolist(), None
        if kind == "nodes_of":
            return table.nodes_of(np.asarray(op[1])).tolist(), None
        if kind == "protect_many":
            return table.write_protect_many(np.asarray(op[1])), None
        if kind == "unprotect_many":
            return table.unprotect_many(np.asarray(op[1])), None
        raise AssertionError(f"unknown op {kind}")
    except (P2MError, SanitizerError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


gpfns_st = st.integers(min_value=0, max_value=PAGES - 1)
mfns_st = st.integers(min_value=0, max_value=MFNS - 1)
gpfn_arrays = st.lists(gpfns_st, min_size=0, max_size=8)

scalar_op_st = st.one_of(
    st.tuples(st.just("set"), gpfns_st, mfns_st),
    st.tuples(st.just("invalidate"), gpfns_st),
    st.tuples(st.just("remove"), gpfns_st),
    st.tuples(st.just("protect"), gpfns_st),
    st.tuples(st.just("remap"), gpfns_st, mfns_st),
    st.tuples(st.just("unprotect"), gpfns_st),
)

set_many_st = st.lists(
    st.tuples(gpfns_st, mfns_st), min_size=0, max_size=8
).map(lambda pairs: ("set_many", [g for g, _ in pairs], [m for _, m in pairs]))

op_st = st.one_of(
    scalar_op_st,
    set_many_st,
    st.tuples(st.just("invalidate_many"), gpfn_arrays),
    st.tuples(st.just("remove_many"), gpfn_arrays),
    st.tuples(st.just("translate_many"), gpfn_arrays),
    st.tuples(st.just("mfns_if_valid"), gpfn_arrays),
    st.tuples(st.just("nodes_of"), gpfn_arrays),
)


class TestP2MParity:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(op_st, min_size=1, max_size=50))
    def test_random_op_sequences(self, ops):
        """Same ops, same results, same errors, same state — every step."""
        array = P2MTable(domain_id=1, capacity=4)
        oracle = DictP2MTable(domain_id=1, capacity=4)
        array.frames_per_node = oracle.frames_per_node = MFNS // NODES
        for op in ops:
            got = apply_op(array, op)
            want = apply_op(oracle, op)
            assert got == want, f"divergence on {op}: {got} != {want}"
            assert snapshot(array) == snapshot(oracle), f"state after {op}"

    def test_set_entries_all_or_nothing(self):
        """A negative mfn anywhere in a batch mutates neither backend."""
        for table in (P2MTable(1), DictP2MTable(1)):
            table.set_entry(0, 5)
            with pytest.raises(P2MError):
                table.set_entries([1, 2], [7, -1])
            # The array backend validates up front; the loop oracle stops
            # at the bad element. Both leave gpfn 1 unmapped-or-mapped —
            # the observable contract is only that gpfn 0 is untouched
            # and the bad element is not applied.
            assert table.lookup(0).mfn == 5
            assert not table.is_valid(2)

    def test_translate_many_raises_like_scalar(self):
        array, oracle = P2MTable(1), DictP2MTable(1)
        for table in (array, oracle):
            table.set_entry(0, 3)
        got = apply_op(array, ("translate_many", [0, 1]))
        want = apply_op(oracle, ("translate_many", [0, 1]))
        assert got == want
        assert got[1] is not None  # both raised


def armed(cls):
    """A table of ``cls`` with its own sanitizer; frames [0, MFNS) allocated."""
    table = cls(domain_id=1)
    table.frames_per_node = MFNS // NODES
    table.sanitizer = P2MSanitizer()
    table.sanitizer.frames_allocated(0, MFNS)
    return table


def shadow(sanitizer):
    """The sanitizer's whole shadow state, copied."""
    return (
        dict(sanitizer._owners),
        dict(sanitizer._backing),
        set(sanitizer._allocated),
        set(sanitizer._protected),
    )


def trap_parity(setup, op):
    """Run ``setup`` on an armed array table and an armed loop oracle,
    then ``op``; returns the two outcomes and whether the array table,
    which must have raised, left table and shadow state untouched."""
    array, oracle = armed(P2MTable), armed(DictP2MTable)
    for table in (array, oracle):
        setup(table)
    before = snapshot(array), shadow(array.sanitizer)
    got, want = apply_op(array, op), apply_op(oracle, op)
    unchanged = (snapshot(array), shadow(array.sanitizer)) == before
    return got, want, unchanged


def _map(gpfns, mfns):
    return lambda table: table.set_entries(gpfns, mfns)


def _map_and_protect(gpfns, mfns, protected):
    def setup(table):
        table.set_entries(gpfns, mfns)
        for gpfn in protected:
            table.write_protect(gpfn)

    return setup


#: (setup, batch op, fragment of the trap the per-entry loop raises).
TRAPS = {
    "set-double-map-in-batch": (
        _map([], []), ("set_many", [1, 2, 3], [8, 8, 9]), "double map"
    ),
    "set-unallocated-frame": (
        _map([0], [7]),
        ("set_many", [1, 2, 3], [8, MFNS + 5, 9]),
        "not allocated",
    ),
    "set-during-migration": (
        _map_and_protect([4], [10], [4]),
        ("set_many", [1, 4, 5], [8, 10, 11]),
        "write-protected",
    ),
    "set-overwrites-live-mapping": (
        _map([5], [11]),
        ("set_many", [1, 5, 6], [8, 12, 13]),
        "overwriting live mapping",
    ),
    "double-write-protect": (
        _map_and_protect([0, 1, 2], [7, 8, 9], [1]),
        ("protect_many", [0, 1, 2]),
        "double write_protect",
    ),
    "unprotect-never-protected": (
        _map_and_protect([0, 1, 2], [7, 8, 9], [0]),
        ("unprotect_many", [0, 1, 2]),
        "never write-protected",
    ),
}


class TestSanitizerDelegation:
    """An armed batch op hands the whole batch to the sanitizer's batch
    hook: the trap is the one the per-entry loop raises first, and —
    unlike the loop, which applies the pairs before the trap — nothing
    lands (the all-or-nothing contract ``set_entries`` has for
    :class:`P2MError`)."""

    def test_double_map_trap_parity(self):
        """A pair mapping a frame that already backs another entry."""
        got, want, unchanged = trap_parity(
            _map([0], [7]), ("set_many", [1, 2, 3], [8, 7, 9])
        )
        assert got == want
        assert got[1].startswith("SanitizerError: double map of frame 0x7")
        assert unchanged

    @pytest.mark.parametrize("case", sorted(TRAPS))
    def test_batch_raises_the_first_loop_trap(self, case):
        setup, op, fragment = TRAPS[case]
        got, want, unchanged = trap_parity(setup, op)
        assert got == want
        assert got[1].startswith("SanitizerError") and fragment in got[1]
        assert unchanged

    def test_hooks_count_earlier_elements_of_the_batch(self):
        """Called directly with a repeated gpfn, the protect hooks trap
        at the repeat as the per-entry loop would, recording nothing."""
        sanitizer = P2MSanitizer()
        with pytest.raises(SanitizerError, match="double write_protect"):
            sanitizer.entries_write_protected(1, [3, 4, 3])
        assert not sanitizer._protected
        sanitizer.entries_write_protected(1, [3, 4])
        with pytest.raises(SanitizerError, match="never write-protected"):
            sanitizer.entries_unprotected(1, [3, 3])
        assert sanitizer._protected == {(1, 3), (1, 4)}

    def test_free_frames_many_traps_in_input_order(self):
        """The first still-mapped frame *in input order* is reported —
        here not the lowest mfn — and the heap keeps every frame."""

        def build():
            memory = MachineMemory(
                num_nodes=2, frames_per_node=32, controller_gib_s=10.0
            )
            memory.sanitizer = P2MSanitizer()
            frames = memory.alloc_singles(0, 8).tolist()
            memory.sanitizer.entry_set(1, 0, frames[2])
            memory.sanitizer.entry_set(1, 1, frames[5])
            return memory, frames

        def heap(memory):
            return [memory.stats(node) for node in range(memory.num_nodes)]

        batch_memory, frames = build()
        loop_memory, _ = build()
        order = [frames[7], frames[5], frames[0], frames[2]]
        before = heap(batch_memory), shadow(batch_memory.sanitizer)
        with pytest.raises(SanitizerError) as batch_trap:
            batch_memory.free_frames_many(np.asarray(order))
        with pytest.raises(SanitizerError) as loop_trap:
            for mfn in order:
                loop_memory.free_frames(mfn, 1)
        assert str(batch_trap.value) == str(loop_trap.value)
        assert f"freeing frame {frames[5]:#x}" in str(batch_trap.value)
        assert (heap(batch_memory), shadow(batch_memory.sanitizer)) == before

    @settings(max_examples=150, deadline=None)
    @given(
        history=st.lists(scalar_op_st, min_size=0, max_size=30),
        last=st.one_of(
            set_many_st,
            st.tuples(
                st.sampled_from(
                    ["invalidate_many", "remove_many", "protect_many",
                     "unprotect_many"]
                ),
                gpfn_arrays,
            ),
        ),
    )
    def test_random_armed_batches(self, history, last):
        """Random scalar history, then one batch op: a passing batch ends
        in the loop's table and shadow state; a trapped one raises the
        loop's first SanitizerError and changes nothing. (An argument
        error anywhere in a batch is raised up front, ahead of the
        sanitizer; a batch with duplicate gpfns *is* the per-entry loop.)"""
        array, oracle = armed(P2MTable), armed(DictP2MTable)
        for op in history:
            assert apply_op(array, op) == apply_op(oracle, op), op
            assert snapshot(array) == snapshot(oracle), op
        before = snapshot(array), shadow(array.sanitizer)
        got, want = apply_op(array, last), apply_op(oracle, last)
        duplicates = len(set(last[1])) < len(last[1])
        if got[1] is None or duplicates:
            assert got == want
            assert snapshot(array) == snapshot(oracle)
            assert shadow(array.sanitizer) == shadow(oracle.sanitizer)
            return
        assert want[1] is not None
        if got[1].startswith("SanitizerError"):
            assert got == want
        assert (snapshot(array), shadow(array.sanitizer)) == before


class TestRngStreamEquality:
    def test_array_draw_matches_sequential_draws(self):
        """`rng.integers(n, size=k)` consumes the stream exactly like k
        scalar draws — the invariant the Carrefour interleave batch path
        and the placement paths rely on."""
        a = np.random.default_rng(1234)
        b = np.random.default_rng(1234)
        for n, k in ((3, 7), (5, 1), (7, 64)):
            batch_draw = a.integers(n, size=k).tolist()
            scalar_draw = [int(b.integers(n)) for _ in range(k)]
            assert batch_draw == scalar_draw


class CaptureFlush:
    def __init__(self):
        self.batches = []

    def __call__(self, events):
        self.batches.append([(e.op, e.gpfn) for e in events])


class TestQueueParity:
    @settings(max_examples=60, deadline=None)
    @given(
        gpfns=st.lists(
            st.integers(min_value=0, max_value=255), min_size=0, max_size=80
        ),
        batch_size=st.integers(min_value=1, max_value=9),
        partitions=st.sampled_from([1, 4]),
    )
    def test_record_many_equals_record_loop(self, gpfns, batch_size, partitions):
        """Same flushes in the same order with the same stats, whether the
        events arrive one by one or as one array."""

        def build():
            capture = CaptureFlush()
            queue = PartitionedPageQueue(
                capture,
                flush_cost_fn=lambda n: 1e-6 * n,
                batch_size=batch_size,
                num_partitions=partitions,
            )
            return capture, queue

        scalar_capture, scalar_queue = build()
        for gpfn in gpfns:
            scalar_queue.record(PageOp.ALLOC, gpfn)
        vec_capture, vec_queue = build()
        vec_queue.record_many(PageOp.ALLOC, np.asarray(gpfns, dtype=np.int64))

        assert vec_capture.batches == scalar_capture.batches
        assert vec_queue.pending() == scalar_queue.pending()
        for field in (
            "events",
            "flushes",
            "lock_acquisitions",
            "append_hold_seconds",
            "flush_hold_seconds",
        ):
            assert getattr(vec_queue.stats, field) == getattr(
                scalar_queue.stats, field
            ), field

        scalar_queue.flush_all()
        vec_queue.flush_all()
        assert vec_capture.batches == scalar_capture.batches


class TestPlacementParity:
    @settings(max_examples=60, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=PAGES - 1),
                st.integers(min_value=0, max_value=NODES - 1),
            ),
            min_size=0,
            max_size=30,
        )
    )
    def test_place_many_equals_place_loop(self, moves):
        # place_many requires duplicate-free indices: keep last write per
        # index, which is what a scalar loop over the dedup'd list does.
        dedup = dict(moves)
        idxs = np.fromiter(dedup.keys(), dtype=np.int64, count=len(dedup))
        nodes = np.fromiter(dedup.values(), dtype=np.int64, count=len(dedup))

        scalar = SegmentPlacement(PAGES, NODES)
        for idx, node in dedup.items():
            scalar.place(idx, node)
        vectorized = SegmentPlacement(PAGES, NODES)
        vectorized.place_many(idxs, nodes)

        assert vectorized.counts.tolist() == scalar.counts.tolist()
        assert vectorized.version == scalar.version
        for idx in range(PAGES):
            assert vectorized.node_of(idx) == scalar.node_of(idx)

        scalar.release_many(idxs)
        for idx in range(PAGES):
            assert scalar.node_of(idx) is None

    def test_tracker_range_hooks_match_scalar_hooks(self):
        """Batch observer callbacks over a tracked range reproduce the
        per-entry scalar callbacks exactly."""
        rng = np.random.default_rng(7)
        gpfns = np.arange(100, 100 + PAGES, dtype=np.int64)
        mfns = rng.integers(0, MFNS, size=PAGES)

        def build(use_range):
            placement = SegmentPlacement(PAGES, NODES)
            tracker = PlacementTracker(
                node_of_frame=lambda mfn: mfn % NODES,
                nodes_of_frames=lambda arr: np.asarray(arr) % NODES,
            )
            if use_range:
                tracker.track_range(100, PAGES, placement, 0)
            else:
                for i in range(PAGES):
                    tracker.track(100 + i, placement, i)
            return placement, tracker

        scalar_placement, scalar_tracker = build(use_range=False)
        for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
            scalar_tracker.entry_set(gpfn, mfn)
        range_placement, range_tracker = build(use_range=True)
        range_tracker.entries_set(gpfns, mfns)

        assert range_placement.counts.tolist() == scalar_placement.counts.tolist()
        assert range_placement.version == scalar_placement.version

        scalar_tracker.entries_invalidated(gpfns[: PAGES // 2])
        range_tracker.entries_invalidated(gpfns[: PAGES // 2])
        assert range_placement.counts.tolist() == scalar_placement.counts.tolist()
        assert range_placement.version == scalar_placement.version
        for idx in range(PAGES):
            assert range_placement.node_of(idx) == scalar_placement.node_of(idx)


def first_touch_domain():
    """A sanitized hypervisor with a booted (round-4K) domain switched to
    first-touch without repopulating, as at a run-time policy switch."""
    hypervisor = Hypervisor(
        small_machine(num_nodes=NODES, cpus_per_node=2, frames_per_node=256),
        features=XEN,
    )
    domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=PAGES)
    policy = FirstTouchPolicy(hypervisor.internal, populate_lazily=False)
    return hypervisor, domain, policy


class TestFirstTouchReplayParity:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.sampled_from([PageOp.ALLOC, PageOp.RELEASE]), gpfns_st),
            min_size=0,
            max_size=40,
        )
    )
    def test_batch_equals_list_payload(self, events):
        """The same events as a flushed :class:`PageEventBatch` and as the
        list a hypercall caller may pass: same ``(invalidated, skipped)``,
        same p2m, same heap — under the suite's sanitizer."""
        outcomes = []
        for as_batch in (True, False):
            hypervisor, domain, policy = first_touch_domain()
            payload = [PageEvent(op, gpfn) for op, gpfn in events]
            if as_batch:
                payload = PageEventBatch.from_events(payload)
            memory = hypervisor.machine.memory
            outcomes.append(
                (
                    policy.on_page_events(domain, payload),
                    snapshot(domain.p2m),
                    [memory.stats(node) for node in range(NODES)],
                )
            )
        assert outcomes[0] == outcomes[1]


#: Short, coarse runs: ~10 fat epochs at a page scale whose segments
#: still hold many pages each.
WORLD_CONFIG = dict(epoch_seconds=4.0, page_scale=4096)


def first_touch_request():
    return RunRequest(
        environment="xen",
        features="Xen+",
        vms=(VmRequest(app="cg.C", policy="first-touch"),),
        config=SimConfig(**WORLD_CONFIG),
    )


class TestSanitizedWorlds:
    """The suite's sanitizer watches the page path product runs execute."""

    def test_first_touch_init_takes_the_batch_path(self, monkeypatch):
        taken = []
        batch_touch = _XenContext.touch_segment

        def spy(self, run, segment, toucher):
            taken.append(batch_touch(self, run, segment, toucher))
            return taken[-1]

        monkeypatch.setattr(_XenContext, "touch_segment", spy)
        world = build_world(first_touch_request())
        assert world.runs[0].context.hypervisor.sanitizer is not None
        run_world(world)
        assert taken and all(taken)

    def test_armed_run_is_byte_identical(self):
        """The armed sanitizer checks the run without changing a byte of
        its result."""
        p2m_sanitizer.disable()
        try:
            plain = build_world(first_touch_request())
        finally:
            p2m_sanitizer.enable()
        armed_world = build_world(first_touch_request())
        assert plain.runs[0].context.hypervisor.sanitizer is None
        assert armed_world.runs[0].context.hypervisor.sanitizer is not None
        dump = lambda results: json.dumps(  # noqa: E731
            [r.to_json() for r in results], sort_keys=True
        )
        assert dump(run_world(armed_world)) == dump(run_world(plain))

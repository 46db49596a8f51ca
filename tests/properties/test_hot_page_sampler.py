"""Columnar hot-page sampler vs the per-sample oracle.

``AppRun._sample_hot_pages`` builds the epoch's IBS sample stream as
arrays; :mod:`tests.properties.hot_page_oracle` keeps the per-sample walk
it replaced. For random runs — real application segment layouts at
several page scales, partly unmapped keys, finished threads, bursts on
and off, idle and busy nodes — both must produce the same samples in the
same order and leave the run's generator in the same state.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.hardware.counters import HotPageSamples
from repro.sim.instance import AppRun, RuntimeSegment, ThreadCtx
from repro.workloads.app import build_segments
from repro.workloads.suite import get_app

from tests.properties.hot_page_oracle import sample_hot_pages as oracle_sample

NODES = 8


def make_run(app, page_scale, num_threads, unmapped, finished, burst_noise, seed):
    """An :class:`AppRun` with a real segment layout and synthetic keys."""
    app = dataclasses.replace(get_app(app), burst_noise=burst_noise)
    config = SimConfig(page_scale=page_scale)
    layout = np.random.default_rng(seed)
    segments = []
    next_key = 0
    for definition in build_segments(app, num_threads, config):
        segment = RuntimeSegment(definition, NODES)
        keys = np.arange(next_key, next_key + segment.num_pages, dtype=np.int64)
        keys[layout.random(segment.num_pages) < unmapped] = -1
        segment.keys[:] = keys
        next_key += segment.num_pages
        segments.append(segment)
    threads = [
        ThreadCtx(
            tid=tid,
            node=int(layout.integers(NODES)),
            cpu_share=1.0,
            finish_time=1.0 if tid in finished else None,
        )
        for tid in range(num_threads)
    ]
    context = SimpleNamespace(domain_id=3, policy_is_dynamic=True)
    return AppRun(
        app, None, segments, threads, context, config, np.random.default_rng(seed)
    )


def both_samplers(run, ops_by_node, seed):
    """(oracle samples, columnar samples, oracle rng, columnar rng)."""
    run.rng = np.random.default_rng(seed)
    expected = oracle_sample(run, ops_by_node)
    oracle_rng = run.rng
    run.rng = np.random.default_rng(seed)
    actual = run._sample_hot_pages(ops_by_node)
    return expected, actual, oracle_rng, run.rng


ops_st = st.one_of(
    # Idle nodes: every shared row takes the all-zero fallback.
    st.just([0.0] * NODES),
    # Small counts: some rows round to zero, some do not.
    st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=NODES, max_size=NODES
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=1e9), min_size=NODES, max_size=NODES
    ),
)


class TestSamplerParity:
    @settings(max_examples=60, deadline=None)
    @given(
        app=st.sampled_from(["facesim", "cg.C", "swaptions", "streamcluster"]),
        page_scale=st.sampled_from([64, 256, 4096]),
        num_threads=st.integers(min_value=1, max_value=48),
        unmapped=st.sampled_from([0.0, 0.3, 1.0]),
        finished=st.sets(st.integers(min_value=0, max_value=47), max_size=48),
        burst_noise=st.sampled_from([0.0, 1.0]),
        ops=ops_st,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(
        app="facesim", page_scale=4096, num_threads=48, unmapped=0.0,
        finished=set(), burst_noise=1.0, ops=[0.0] * NODES, seed=0,
    )
    @example(
        app="cg.C", page_scale=256, num_threads=16, unmapped=0.3,
        finished={0, 5, 15}, burst_noise=0.0, ops=[1e6] * NODES, seed=7,
    )
    def test_same_samples_same_order_same_rng(
        self, app, page_scale, num_threads, unmapped, finished, burst_noise,
        ops, seed,
    ):
        run = make_run(
            app, page_scale, num_threads, unmapped, finished, burst_noise, seed
        )
        ops_by_node = np.asarray(ops, dtype=np.float64)
        expected, actual, oracle_rng, columnar_rng = both_samplers(
            run, ops_by_node, seed
        )
        assert isinstance(actual, HotPageSamples)
        assert list(actual) == expected
        assert [type(s.page) for s in actual] == [int] * len(expected)
        assert columnar_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSamplerEdges:
    def test_all_unmapped_gives_empty_falsy_stream(self):
        run = make_run("facesim", 4096, 8, 1.0, set(), 0.0, 1)
        expected, actual, oracle_rng, columnar_rng = both_samplers(
            run, np.full(NODES, 1e6), 1
        )
        assert expected == [] and len(actual) == 0 and not actual
        assert actual.accesses.shape == (0, NODES)
        assert columnar_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_idle_nodes_take_fallback_row(self):
        run = make_run("cg.C", 4096, 4, 0.0, {0, 1, 2, 3}, 0.0, 2)
        expected, actual, _, _ = both_samplers(run, np.zeros(NODES), 2)
        assert list(actual) == expected
        # Every shared row charges one access to node 0 (argmax of zeros).
        assert (actual.accesses[:, 0] == 1).all()
        assert (actual.accesses[:, 1:] == 0).all()

    def test_columns_are_frozen(self):
        run = make_run("swaptions", 256, 4, 0.0, set(), 1.0, 3)
        samples = run._sample_hot_pages(np.full(NODES, 1e5))
        for column in (
            samples.pages, samples.domains, samples.accesses,
            samples.write_fraction,
        ):
            assert not column.flags.writeable

"""The one decide path vs the scalar oracle, over random inputs.

:meth:`UserComponent.decide` picks pages with masks over the sample
columns; :mod:`tests.carrefour.decide_oracle` keeps the per-sample walk
it replaced. For random samples (list and columnar), random placements
with unmapped pages, every heuristic-flag combination, budgets down to
one and replication on and off, both must make the same decisions in
the same order and leave the generator in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carrefour.engine import CarrefourConfig, UserComponent
from repro.carrefour.metrics import CarrefourMetrics
from repro.hardware.counters import HotPageSample, HotPageSamples

from tests.carrefour import decide_oracle


@st.composite
def inputs(draw):
    nodes = draw(st.integers(2, 4))
    n = draw(st.integers(0, 30))
    pages = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
    row = st.one_of(
        st.lists(st.integers(0, 60), min_size=nodes, max_size=nodes),
        st.integers(0, nodes - 1).map(
            lambda hot: [100 if i == hot else 0 for i in range(nodes)]
        ),
    )
    rows = draw(st.lists(row, min_size=n, max_size=n))
    domains = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    writes = draw(
        st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.5]), min_size=n, max_size=n)
    )
    placement = {
        page: draw(st.integers(-1, nodes - 1)) for page in sorted(set(pages))
    }
    # Enabling values come first: Hypothesis leans toward early choices.
    node_set = st.one_of(
        st.sets(st.integers(0, nodes - 1), min_size=1, max_size=nodes),
        st.just(()),
    ).map(lambda s: tuple(sorted(s)))
    metrics = CarrefourMetrics(
        access_rate_per_s=draw(st.sampled_from([10.0, 0.5])),
        imbalance=draw(st.sampled_from([1.0, 0.0])),
        local_fraction=draw(st.sampled_from([1.0, 0.5])),
        max_link_rho=draw(st.sampled_from([0.0, 0.9])),
        node_loads=(0.0,) * nodes,
        overloaded_nodes=draw(node_set),
        underloaded_nodes=draw(node_set),
    )
    config = CarrefourConfig(
        min_access_rate_per_s=1.0,
        migration_budget=draw(st.integers(1, 40)),
        enable_replication=draw(st.booleans()),
        single_node_share=draw(st.sampled_from([0.5, 0.9, 1.0])),
    )
    samples = [
        HotPageSample(p, d, tuple(r), w)
        for p, d, r, w in zip(pages, domains, rows, writes)
    ]
    if draw(st.booleans()):
        samples = HotPageSamples(
            np.asarray(pages, dtype=np.int64),
            np.asarray(domains, dtype=np.int64),
            np.asarray(rows, dtype=np.int64).reshape(n, nodes),
            np.asarray(writes, dtype=np.float64),
        )
    return samples, placement, metrics, config, draw(st.integers(0, 2**16))


class TestDecideEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs())
    def test_same_decisions_same_rng(self, case):
        samples, placement, metrics, config, seed = case

        def placement_many(pages):
            return np.array(
                [placement.get(int(p), -1) for p in pages], dtype=np.int64
            )

        def scalar(page):
            node = placement.get(page, -1)
            return None if node < 0 else node

        user = UserComponent(config, np.random.default_rng(seed))
        oracle_user = UserComponent(config, np.random.default_rng(seed))
        result = user.decide(metrics, samples, placement_many)
        expected = decide_oracle.decide(oracle_user, metrics, samples, scalar)
        assert result == expected
        assert (
            user.rng.bit_generator.state == oracle_user.rng.bit_generator.state
        )

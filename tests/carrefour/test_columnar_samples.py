"""Columnar hot-page samples: round trip and decide-path parity.

:class:`~repro.hardware.counters.HotPageSamples` stands in for a
``list[HotPageSample]`` everywhere the engine hands samples on. Indexing
and iteration must reproduce the columns exactly, and the user component
must decide the same pages, in the same order, with the same RNG draws,
whichever form it is given — on the production mask path, on the
test-only scalar oracle (``decide_oracle``), and on the empty early path.
"""

import numpy as np
import pytest

from repro.carrefour.engine import CarrefourConfig, UserComponent
from repro.carrefour.heuristics import sample_arrays
from repro.carrefour.metrics import compute_metrics
from repro.hardware.counters import HotPageSample, HotPageSamples

from tests.carrefour import decide_oracle
from tests.carrefour.test_engine import concentrated_matrix, observation

NODES = 4


def random_columns(seed, n=60):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 40, size=n)  # repeats exercise the dedup
    domains = rng.integers(1, 3, size=n)
    accesses = rng.integers(0, 50, size=(n, NODES))
    # Single-node rows make migration candidates.
    single = rng.random(n) < 0.5
    accesses[single] = 0
    accesses[single, rng.integers(NODES, size=int(single.sum()))] = 100
    write_fraction = rng.choice([0.0, 0.01, 0.5], size=n)
    return pages, domains, accesses, write_fraction


def as_list(pages, domains, accesses, write_fraction):
    return [
        HotPageSample(int(p), int(d), tuple(int(c) for c in row), float(w))
        for p, d, row, w in zip(pages, domains, accesses, write_fraction)
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_and_iterate_reproduce_columns(self, seed):
        columns = random_columns(seed)
        samples = HotPageSamples(*columns)
        expected = as_list(*columns)
        assert len(samples) == len(expected)
        assert list(samples) == expected
        assert [samples[i] for i in range(len(samples))] == expected
        assert samples[-1] == expected[-1]
        for original, rebuilt in zip(columns, sample_arrays(expected)):
            assert np.array_equal(original, rebuilt)

    def test_sample_arrays_hands_back_the_columns(self):
        samples = HotPageSamples(*random_columns(3))
        for column, handed in zip(
            (samples.pages, samples.domains, samples.accesses,
             samples.write_fraction),
            sample_arrays(samples),
        ):
            assert handed is column
            assert not handed.flags.writeable

    def test_mismatched_columns_rejected(self):
        pages, domains, accesses, write_fraction = random_columns(4)
        with pytest.raises(ValueError):
            HotPageSamples(pages[:-1], domains, accesses, write_fraction)


def placements(seed, pages):
    """Scalar and batch placement over the same page -> node map."""
    rng = np.random.default_rng(seed + 100)
    nodes = {
        int(p): int(rng.integers(-1, NODES)) for p in np.unique(pages)
    }

    def placement(page):
        node = nodes.get(page, -1)
        return None if node < 0 else node

    def placement_many(batch):
        return np.array([nodes.get(int(p), -1) for p in batch], dtype=np.int64)

    return placement, placement_many


def decide(samples, seed, batch, **config):
    """Decide on the mask path (``batch``) or on the scalar oracle."""
    user = UserComponent(
        CarrefourConfig(min_access_rate_per_s=1.0, **config),
        np.random.default_rng(seed),
    )
    placement, placement_many = placements(seed, random_columns(seed)[0])
    metrics = compute_metrics(observation(concentrated_matrix(nodes=NODES)))
    if batch:
        result = user.decide(metrics, samples, placement_many)
    else:
        result = decide_oracle.decide(user, metrics, samples, placement)
    return result, user.rng.bit_generator.state


PATHS = pytest.mark.parametrize(
    "batch", [True, False], ids=["vectorized", "scalar"]
)
CONFIGS = pytest.mark.parametrize(
    "config",
    [{}, {"enable_replication": True}, {"migration_budget": 7}],
    ids=["default", "replication", "budget"],
)


class TestDecideParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @PATHS
    @CONFIGS
    def test_columnar_equals_list(self, seed, batch, config):
        columns = random_columns(seed)
        listed, listed_state = decide(as_list(*columns), seed, batch, **config)
        columnar, columnar_state = decide(
            HotPageSamples(*columns), seed, batch, **config
        )
        assert listed.decisions  # the heuristics actually fired
        assert columnar.decisions == listed.decisions
        assert columnar.applied == listed.applied
        assert columnar_state == listed_state

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @CONFIGS
    def test_mask_path_equals_oracle(self, seed, config):
        columns = random_columns(seed)
        oracle, oracle_state = decide(as_list(*columns), seed, False, **config)
        for samples in (as_list(*columns), HotPageSamples(*columns)):
            result, state = decide(samples, seed, True, **config)
            assert result == oracle
            assert state == oracle_state

    @PATHS
    def test_empty_samples_take_the_early_path(self, batch):
        empty = HotPageSamples(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, NODES), dtype=np.int64),
            np.zeros(0),
        )
        assert not empty
        listed, listed_state = decide([], 0, batch)
        columnar, columnar_state = decide(empty, 0, batch)
        assert columnar.decisions == listed.decisions == []
        assert columnar_state == listed_state

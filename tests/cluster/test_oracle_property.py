"""Property: pre-copy migration equals a naive stop-and-copy oracle.

The oracle is the trivial protocol — pause the source, copy *every*
resident page once, resume on the destination. Whatever interleaving of
copy rounds, dirty faults and re-copies the pre-copy protocol goes
through, the destination it hands over must hold byte-for-byte the
guest memory the source held at pause time, which is exactly what the
oracle produces. The suite-wide runtime sanitizer stays armed, so every
protect/unprotect of the protocol is policed while the property runs.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.sim.engine import EpochStepper
from repro.sim.environment import XenEnvironment

from tests.cluster.conftest import COARSE, cluster_vms


class SnapshottingEnvironment(XenEnvironment):
    """Capture the stop-and-copy oracle at the instant of cutover.

    ``complete_migration`` runs with the source paused and the final
    dirty pages already copied — the exact moment the naive protocol
    would copy everything. Snapshotting the source here *is* running
    the oracle.
    """

    def complete_migration(self, run, dest_host, domain):
        source = run.context.domain
        self.oracle_valid = source.p2m.valid_gpfns()
        self.oracle_image = source.read_stamps(source.gpfn_range())
        super().complete_migration(run, dest_host, domain)


def _migrate(seed, **knobs):
    config = COARSE.__class__(**{**COARSE.result_fields(), "rng_seed": seed})
    env = SnapshottingEnvironment(config=config)
    cluster = Cluster(env, 2)
    cluster.deploy(cluster_vms())
    cluster.migrate_at(0, "streamcluster", **knobs)
    for host_id in sorted(cluster.worlds):
        stepper = EpochStepper(cluster.worlds[host_id])
        stepper.initialize()
        cluster.steppers[host_id] = stepper
    (plan,) = cluster._plans
    cluster._launch(plan)
    (migration,) = cluster.migrations
    epoch = 0
    while migration.phase == "precopy":
        migration.on_epoch(epoch, 1.0)
        epoch += 1
    assert migration.phase == "complete"
    return env, migration


@pytest.mark.parametrize("seed", [1, 42, 1337])
@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"dirty_threshold": 0, "round_budget": 4, "writes_per_epoch": 512},
        {"writes_per_epoch": 32, "round_budget": 2},
    ],
)
def test_destination_matches_stop_and_copy_oracle(seed, knobs):
    env, migration = _migrate(seed, **knobs)
    dest = migration.dest_domain
    dest_image = dest.read_stamps(dest.gpfn_range())
    oracle_valid = env.oracle_valid
    oracle_image = env.oracle_image

    # Guest memory: every page the source held at pause time reads the
    # same stamps on the destination, byte for byte.
    size = min(dest_image.size, oracle_image.size)
    valid = oracle_valid[oracle_valid < size]
    assert valid.size == oracle_valid.size
    assert np.array_equal(dest_image[valid], oracle_image[valid])

    # P2M: each of those pages is a live destination mapping.
    assert (dest.p2m.mfns_if_valid(valid) >= 0).all()


@pytest.mark.parametrize("seed", [7, 99])
def test_dirty_pages_carry_final_writes(seed):
    """The stamps the guest wrote *during* the copy reach the destination
    (the last write wins, as in the oracle)."""
    env, migration = _migrate(
        seed, dirty_threshold=0, round_budget=3, writes_per_epoch=256
    )
    assert migration.stats.dirty_faults > 0
    dest = migration.dest_domain
    dest_image = dest.read_stamps(dest.gpfn_range())
    # Stamps are unique and increasing; the highest stamp issued must be
    # present on the destination (its page was dirty at cutover).
    issued = migration._next_stamp - 1
    assert issued >= 1
    assert dest_image.max() == env.oracle_image.max()

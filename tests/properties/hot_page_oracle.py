"""Per-sample hot-page sampler: the test oracle of the columnar one.

This is ``AppRun._sample_hot_pages`` as it stood before the sample stream
became columnar, kept verbatim (as a function of the run) so the property
tests in :mod:`tests.properties.test_hot_page_sampler` can require the
columnar sampler to produce the same samples, in the same order, from the
same RNG draws. It is test-only: nothing in ``src/`` can reach it.
"""

from typing import List

import numpy as np

from repro.hardware.counters import HotPageSample
from repro.sim.instance import SAMPLES_PRIVATE_PER_THREAD, SAMPLES_SHARED


def sample_hot_pages(self, ops_by_node: np.ndarray) -> List[HotPageSample]:
    """Per-page samples as IBS would report them.

    Shared pages: sources follow the per-node operation counts; the
    hottest pages are sampled deterministically, the uniform tail at
    random. Private pages: the owner is the only source — except
    during a *burst*, when a remote node transiently hammers them
    (the behaviour that misleads Carrefour on "low" applications).
    """
    samples: List[HotPageSample] = []
    share = self.app.master_share
    total_shared_ops = float(ops_by_node.sum()) * share
    domain_id = self.context.domain_id
    num_nodes = len(ops_by_node)
    src_dist = ops_by_node / max(ops_by_node.sum(), 1.0)
    for seg in self.shared_segments:
        weights = seg.page_weights
        count = min(SAMPLES_SHARED, seg.num_pages)
        hot_n = min(count // 2, seg.num_pages)
        indices = list(range(hot_n))
        if seg.num_pages > hot_n:
            extra = self.rng.integers(
                hot_n, seg.num_pages, size=count - hot_n
            )
            indices.extend(int(i) for i in extra)
        for idx in indices:
            key = int(seg.keys[idx])
            if key < 0:
                continue
            page_ops = total_shared_ops * float(weights[idx])
            counts = np.maximum(
                0, np.round(src_dist * page_ops)
            ).astype(np.int64)
            if counts.sum() == 0:
                counts[int(np.argmax(src_dist))] = max(1, int(page_ops))
            samples.append(
                HotPageSample(
                    page=key,
                    domain_id=domain_id,
                    node_accesses=tuple(int(c) for c in counts),
                    write_fraction=seg.definition.spec.write_fraction,
                )
            )
    # Private segments: owner-only sources, plus transient bursts.
    burst = self.rng.random() < self.app.burst_noise
    burst_tids = set()
    if burst:
        k = max(1, self.num_threads // 16)
        burst_tids = set(
            int(t) for t in self.rng.choice(self.num_threads, size=k, replace=False)
        )
    for t in self.threads:
        if t.finished:
            continue
        seg = self.private_by_tid.get(t.tid)
        if seg is None:
            continue
        per_page_ops = (
            float(ops_by_node.sum())
            * (1.0 - share)
            / max(1, self.num_threads)
            / seg.num_pages
        )
        source = t.node
        if t.tid in burst_tids:
            source = int(self.rng.integers(num_nodes))
        count = min(SAMPLES_PRIVATE_PER_THREAD, seg.num_pages)
        for idx in self.rng.integers(0, seg.num_pages, size=count):
            key = int(seg.keys[int(idx)])
            if key < 0:
                continue
            counts = [0] * num_nodes
            counts[source] = max(1, int(per_page_ops))
            samples.append(
                HotPageSample(
                    page=key,
                    domain_id=domain_id,
                    node_accesses=tuple(counts),
                    write_fraction=0.5,
                )
            )
    return samples

"""Global simulation constants.

The simulator keeps 4 KiB page *semantics* but can coarsen the unit it
tracks: with ``PAGE_SCALE = 256`` one simulated page stands for 256 real
pages (1 MiB), which keeps the paper's largest footprints (~39 GiB, Table 2)
around 40k tracked pages. All mechanisms (p2m entries, page faults, release
queues, migrations) operate on individual simulated pages; unit tests also
run with ``PAGE_SCALE = 1``.
"""

from dataclasses import dataclass

#: Real page size in bytes (x86 small page).
REAL_PAGE_SIZE = 4096

#: Default number of real pages represented by one simulated page.
DEFAULT_PAGE_SCALE = 256


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared across the stack.

    Attributes:
        page_scale: real pages per simulated page.
        epoch_seconds: wall-clock length of one simulation epoch.
        rng_seed: base seed for all stochastic components.
    """

    page_scale: int = DEFAULT_PAGE_SCALE
    epoch_seconds: float = 1.0
    rng_seed: int = 42
    #: Peak-to-average ratio of memory traffic. Applications do not spread
    #: their accesses evenly over an epoch; queueing happens at the bursts.
    #: The engine multiplies measured utilisations by this factor before
    #: feeding them to the latency model (the model still caps at rho_cap,
    #: and the Table 3 microbenchmarks bypass this knob).
    traffic_burstiness: float = 2.0
    #: Model nested-TLB miss costs (the large-page perspective of the
    #: paper's section 7). Off by default: the paper's own evaluation has
    #: no TLB dimension, so the baseline reproduction keeps it out.
    model_tlb: bool = False

    def result_fields(self) -> dict:
        """The fields that can change simulation *results*, as a dict.

        This is the configuration part of a run's cache identity
        (:meth:`repro.sim.runspec.RunRequest.cache_key`).
        """
        return {
            "page_scale": self.page_scale,
            "epoch_seconds": self.epoch_seconds,
            "rng_seed": self.rng_seed,
            "traffic_burstiness": self.traffic_burstiness,
            "model_tlb": self.model_tlb,
        }

    @property
    def page_bytes(self) -> int:
        """Bytes covered by one simulated page."""
        return REAL_PAGE_SIZE * self.page_scale

    def pages_for_bytes(self, nbytes: float) -> int:
        """Number of simulated pages needed to back ``nbytes`` (at least 1)."""
        return max(1, int(round(nbytes / self.page_bytes)))


DEFAULT_CONFIG = SimConfig()

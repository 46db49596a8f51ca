"""Section 2.2 microbenchmark: 4 KiB block reads through the three paths.

Reading one 4 KiB block (O_DIRECT) takes 74 us on native Linux, 307 us
through the para-virtualised driver, 186 us through PCI passthrough; and
larger reads amortise the virtualisation overhead. The experiment drives
the real driver objects (paravirt through dom0, passthrough through the
IOMMU DMA engine), not just the timing formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.config import SimConfig
from repro.experiments.registry import Scenario, register
from repro.hardware.presets import amd48
from repro.hypervisor.xen import Hypervisor, XEN_PLUS
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest
from repro.vio.disk import DiskModel, IoMode, MEASURED_4K_SECONDS
from repro.vio.dma import DmaEngine
from repro.vio.drivers import ParavirtDriver, PassthroughDriver


@dataclass
class IoMicroResult:
    """Per-mode 4 KiB latency and large-read overhead."""

    block_4k_seconds: Dict[IoMode, float]
    overhead_vs_native: Dict[IoMode, Dict[int, float]]

    def matches_paper(self, tolerance: float = 0.02) -> bool:
        return all(
            abs(self.block_4k_seconds[mode] - expected) / expected <= tolerance
            for mode, expected in MEASURED_4K_SECONDS.items()
        )


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """The I/O microbenchmark drives driver objects, not engine runs."""
    return []


def assemble(
    results: Optional[ResultSet] = None,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> IoMicroResult:
    """Build the I/O microbenchmark result (``results`` unused)."""
    config = SimConfig()
    machine = amd48(config=config)
    hypervisor = Hypervisor(machine, features=XEN_PLUS)
    domain = hypervisor.create_domain(
        "iobench", num_vcpus=1, memory_pages=64, home_nodes=[0]
    )
    disk = DiskModel()
    paravirt = ParavirtDriver(disk, hypervisor.dom0)
    passthrough = PassthroughDriver(disk, DmaEngine(machine.iommu), config)

    block_4k = {
        IoMode.NATIVE: disk.block_read_seconds(4096, IoMode.NATIVE),
        IoMode.PARAVIRT: paravirt.read(domain, 4096, block_bytes=4096).seconds,
        IoMode.PASSTHROUGH: passthrough.read(domain, 4096, block_bytes=4096).seconds,
    }
    sizes = [4096, 64 * 1024, 1 << 20]
    overhead: Dict[IoMode, Dict[int, float]] = {
        IoMode.PARAVIRT: {},
        IoMode.PASSTHROUGH: {},
    }
    for size in sizes:
        native = disk.read_seconds(size, size, IoMode.NATIVE)
        for mode in (IoMode.PARAVIRT, IoMode.PASSTHROUGH):
            virt = disk.read_seconds(size, size, mode)
            overhead[mode][size] = virt / native - 1.0
    result = IoMicroResult(block_4k_seconds=block_4k, overhead_vs_native=overhead)
    if verbose:
        rows = [
            [
                str(mode),
                f"{block_4k[mode] * 1e6:.0f} us",
                f"{MEASURED_4K_SECONDS[mode] * 1e6:.0f} us",
            ]
            for mode in (IoMode.NATIVE, IoMode.PARAVIRT, IoMode.PASSTHROUGH)
        ]
        print(
            format_table(
                ["path", "4 KiB read", "paper"],
                rows,
                title="Section 2.2 - block read microbenchmark",
            )
        )
        rows = [
            [f"{size >> 10} KiB"]
            + [
                f"{overhead[mode][size] * 100:+.0f}%"
                for mode in (IoMode.PARAVIRT, IoMode.PASSTHROUGH)
            ]
            for size in sizes
        ]
        print()
        print(
            format_table(
                ["read size", "paravirt overhead", "passthrough overhead"],
                rows,
                title="Virtualisation overhead amortised by larger reads",
            )
        )
    return result


SCENARIO = register(
    Scenario(
        name="io_micro",
        description="Block-read latency through the three I/O paths",
        required_runs=required_runs,
        assemble=assemble,
    )
)

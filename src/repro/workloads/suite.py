"""The 29 applications of the paper's evaluation.

All measured numbers are transcribed from the paper:

* Table 1 — load imbalance and interconnect load under first-touch and
  round-4K (native Linux, 48 threads), plus the imbalance class;
* Table 2 — hard-drive rate (MB/s), intentional context switches
  (thousands per second per core) and memory footprint (MB);
* Table 4 — the best NUMA policy per application in Linux and in Xen+
  (kept as reference strings for the experiment reports).

Modelling knobs not in the paper's tables:

* ``churn_per_thread_s`` — the Mosbench applications use the Streamflow
  allocator, which continuously calls mmap/munmap; the paper quantifies
  wrmem at one page release every 15 us (section 4.2.3). The other
  Streamflow applications get qualitatively scaled rates.
* ``burst_noise`` — "low"-class applications occasionally hit private
  data from remote nodes for a short time, which tricks Carrefour into
  counter-productive migrations (section 3.5.2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError
from repro.workloads.app import AppSpec

#: One release every 15 microseconds (section 4.2.3).
WRMEM_CHURN = 1.0 / 15e-6


def _app(
    name,
    suite,
    footprint_mb,
    disk_mb_s,
    ctx_k_s,
    ft_imb,
    r4k_imb,
    ft_icl,
    r4k_icl,
    klass,
    best_linux,
    best_xen,
    **kwargs,
) -> AppSpec:
    return AppSpec(
        name=name,
        suite=suite,
        footprint_mb=footprint_mb,
        disk_mb_s=disk_mb_s,
        ctx_switches_k_s=ctx_k_s,
        ft_imbalance=ft_imb / 100.0,
        r4k_imbalance=r4k_imb / 100.0,
        ft_interconnect=ft_icl / 100.0,
        r4k_interconnect=r4k_icl / 100.0,
        imbalance_class=klass,
        best_linux=best_linux,
        best_xen=best_xen,
        **kwargs,
    )


#: Transient remote bursts of the "low" applications (model knob).
_LOW_BURST = 0.15

APPLICATIONS: List[AppSpec] = [
    # ---------------------------------------------------------- Parsec 2.1
    _app("bodytrack", "parsec", 7, 0, 17.7, 135, 48, 9, 8, "high",
         "Round-4K / Carrefour", "Round-4K / Carrefour"),
    _app("facesim", "parsec", 328, 0, 11.7, 253, 27, 39, 16, "high",
         "Round-4K", "Round-4K"),
    _app("fluidanimate", "parsec", 223, 0, 4.2, 65, 16, 18, 16, "low",
         "Round-4K / Carrefour", "Round-4K / Carrefour",
         burst_noise=_LOW_BURST),
    _app("streamcluster", "parsec", 106, 0, 29.5, 219, 45, 31, 18, "high",
         "Round-4K", "Round-4K"),
    _app("swaptions", "parsec", 4, 0, 0.0, 175, 180, 4, 5, "high",
         "Round-4K", "Round-4K"),
    _app("x264", "parsec", 1129, 0, 0.6, 84, 28, 17, 13, "low",
         "First-Touch", "Round-4K", burst_noise=_LOW_BURST),
    # ---------------------------------------------------------- NPB 3.3
    _app("bt.C", "npb", 698, 0, 1.2, 89, 8, 51, 35, "moderate",
         "First-Touch / Carrefour", "First-Touch / Carrefour"),
    _app("cg.C", "npb", 889, 0, 5.9, 7, 5, 11, 46, "low",
         "First-Touch", "First-Touch", burst_noise=_LOW_BURST),
    _app("dc.B", "npb", 39273, 175, 0.1, 45, 19, 10, 22, "low",
         "First-Touch", "Round-1G", burst_noise=_LOW_BURST),
    _app("ep.D", "npb", 49, 0, 0.0, 263, 116, 48, 9, "high",
         "Round-4K", "Round-4K"),
    _app("ft.C", "npb", 5156, 0, 0.3, 60, 19, 17, 46, "low",
         "Round-4K", "Round-4K", burst_noise=_LOW_BURST),
    _app("lu.C", "npb", 600, 0, 1.5, 47, 30, 18, 41, "low",
         "Round-4K", "First-Touch", burst_noise=_LOW_BURST),
    _app("mg.D", "npb", 27095, 0, 1.5, 8, 1, 12, 51, "low",
         "First-Touch", "First-Touch", burst_noise=_LOW_BURST),
    _app("sp.C", "npb", 869, 0, 2.0, 113, 4, 43, 58, "moderate",
         "Round-4K / Carrefour", "Round-4K / Carrefour"),
    _app("ua.C", "npb", 483, 0, 37.4, 5, 7, 14, 37, "low",
         "First-Touch", "First-Touch", burst_noise=_LOW_BURST),
    # ---------------------------------------------------------- Mosbench
    _app("wc", "mosbench", 16682, 0, 3.9, 101, 41, 18, 17, "moderate",
         "First-Touch / Carrefour", "Round-4K",
         churn_per_thread_s=20000.0),
    _app("wr", "mosbench", 19016, 1, 5.2, 110, 57, 18, 18, "moderate",
         "First-Touch", "Round-4K", churn_per_thread_s=20000.0),
    _app("wrmem", "mosbench", 11610, 5, 7.5, 135, 102, 10, 11, "high",
         "First-Touch", "Round-4K", churn_per_thread_s=WRMEM_CHURN),
    _app("pca", "mosbench", 5779, 0, 0.3, 235, 14, 52, 41, "high",
         "Round-4K", "Round-4K / Carrefour", churn_per_thread_s=2000.0),
    _app("kmeans", "mosbench", 4178, 0, 0.1, 251, 26, 61, 42, "high",
         "Round-4K", "Round-4K", churn_per_thread_s=2000.0),
    _app("psearchy", "mosbench", 28576, 54, 0.8, 19, 8, 6, 46, "low",
         "First-Touch", "Round-4K", churn_per_thread_s=20000.0,
         burst_noise=_LOW_BURST),
    _app("memcached", "mosbench", 2205, 0, 127.1, 85, 74, 13, 12, "low",
         "First-Touch", "Round-1G", churn_per_thread_s=5000.0,
         burst_noise=_LOW_BURST),
    # ---------------------------------------------------------- X-Stream
    _app("belief", "xstream", 12292, 234, 0.0, 206, 80, 19, 10, "high",
         "Round-4K", "Round-4K / Carrefour", shared_write_fraction=0.05),
    _app("bfs", "xstream", 12291, 236, 0.0, 190, 24, 17, 12, "high",
         "Round-4K", "Round-4K", shared_write_fraction=0.05),
    _app("cc", "xstream", 12291, 249, 0.0, 185, 31, 17, 11, "high",
         "Round-4K / Carrefour", "Round-4K / Carrefour",
         shared_write_fraction=0.05),
    _app("pagerank", "xstream", 12291, 240, 0.0, 183, 23, 17, 11, "high",
         "Round-4K / Carrefour", "Round-4K / Carrefour",
         shared_write_fraction=0.05),
    _app("sssp", "xstream", 12291, 261, 0.0, 193, 10, 17, 11, "high",
         "Round-4K / Carrefour", "Round-4K / Carrefour",
         shared_write_fraction=0.05),
    # ---------------------------------------------------------- YCSB
    _app("cassandra", "ycsb", 1111, 16, 10.7, 65, 50, 14, 14, "low",
         "First-Touch / Carrefour", "Round-1G", burst_noise=_LOW_BURST),
    _app("mongodb", "ycsb", 1092, 184, 14.6, 130, 95, 16, 14, "moderate",
         "First-Touch / Carrefour", "Round-1G"),
]

APP_NAMES: List[str] = [app.name for app in APPLICATIONS]

_BY_NAME: Dict[str, AppSpec] = {app.name: app for app in APPLICATIONS}


def get_app(name: str) -> AppSpec:
    """Look an application up by its paper name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise WorkloadError(
            f"unknown application {name!r}; known: {', '.join(APP_NAMES)}"
        ) from None

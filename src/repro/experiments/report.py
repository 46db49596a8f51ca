"""Generate EXPERIMENTS.md: paper claims vs measured results.

Runs every experiment and writes a markdown report with, for each table
and figure, the paper's quantitative claims next to what the simulation
measures. Usage::

    python -m repro.experiments.report [output.md]
"""

from __future__ import annotations

import argparse
from typing import List

from repro.experiments import (
    batching,
    fig1,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    io_micro,
    registry,
    table1,
    table3,
    table4,
)


def _row(claim: str, paper: str, measured: str) -> str:
    return f"| {claim} | {paper} | {measured} |"


def _scenario_section() -> List[str]:
    """The figure → scenario mapping, from the registry itself."""
    registry.load_all()
    lines = [
        "## Figure → scenario mapping",
        "",
        "Each experiment is a *scenario*: it declares the engine runs it",
        "needs as content-addressed requests and assembles its result from",
        "the resolved set. `python -m repro.experiments run <names> --store",
        ".runstore --jobs N` executes each distinct request once (across",
        "all named scenarios) and serves repeats from the store.",
        "",
        "| scenario | distinct runs | shares runs with | description |",
        "|---|---|---|---|",
    ]
    for scenario in registry.all_scenarios():
        unique = len({r.cache_key() for r in scenario.required_runs()})
        reuse = ", ".join(scenario.reuses) if scenario.reuses else "—"
        lines.append(
            f"| `{scenario.name}` | {unique} | {reuse} | {scenario.description} |"
        )
    lines.append("")
    return lines


HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``python -m repro.experiments.report``. Absolute completion
times are simulated units; the comparison targets are the paper's
*ratios* and *shapes* (who wins, by roughly what factor, where the
crossovers are). Microbenchmarks (Table 3, Figure 5, section 2.2) are
calibration points and match absolutely.

Regenerate any experiment with ``python -m repro.experiments run <name>``.
"""

TABLE_HEAD = "| claim | paper | measured |\n|---|---|---|"


def build_report() -> str:
    lines: List[str] = [HEADER]
    lines += _scenario_section()

    # ------------------------------------------------------- Table 3
    t3 = table3.SCENARIO.run(verbose=False)
    lines += ["## Table 3 — cache & memory latency (microbenchmark)", "", TABLE_HEAD]
    lines.append(_row("L1/L2/L3 latencies", "5 / 16 / 48 cycles",
                      " / ".join(f"{t3.cache_cycles[k]:.0f}" for k in ("L1", "L2", "L3")) + " cycles"))
    lines.append(_row("local latency, 1 vs 48 threads", "156 -> 697 cycles",
                      f"{t3.memory_cycles[('local', 1)]:.0f} -> {t3.memory_cycles[('local', 48)]:.0f} cycles"))
    lines.append(_row("2-hop latency, 1 vs 48 threads", "383 -> 863 cycles",
                      f"{t3.memory_cycles[('2hop', 1)]:.0f} -> {t3.memory_cycles[('2hop', 48)]:.0f} cycles"))
    lines.append(_row("max relative error", "—", f"{t3.max_relative_error() * 100:.1f}%"))

    # ------------------------------------------------------- Figure 5 / IO
    f5 = fig5.SCENARIO.run(verbose=False)
    io = io_micro.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 5 — IPI cost & section 2.2 — block reads", "", TABLE_HEAD]
    lines.append(_row("IPI cost native / guest", "0.9 us / 10.9 us",
                      f"{f5.totals['native'] * 1e6:.1f} us / {f5.totals['guest'] * 1e6:.1f} us"))
    from repro.vio.disk import IoMode
    lines.append(_row("4 KiB read native/PV/passthrough", "74 / 307 / 186 us",
                      " / ".join(f"{io.block_4k_seconds[m] * 1e6:.0f}" for m in (IoMode.NATIVE, IoMode.PARAVIRT, IoMode.PASSTHROUGH)) + " us"))

    # ------------------------------------------------------- Figure 1
    f1 = fig1.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 1 — overhead of Xen vs Linux", "", TABLE_HEAD]
    lines.append(_row("max overhead", "~700%", f"{f1.max_overhead * 100:.0f}% "
                      f"({max(f1.overheads, key=f1.overheads.get)})"))
    lines.append(_row("apps above 50%", "15 of 29", f"{f1.count_above(0.5)} of 29"))
    lines.append(_row("apps above 100%", "11 of 29", f"{f1.count_above(1.0)} of 29"))

    # ------------------------------------------------------- Figure 2
    f2 = fig2.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 2 — Linux NUMA policies vs first-touch", "", TABLE_HEAD]
    lines.append(_row("apps moved >25% best-vs-worst", "17 of 29",
                      f"{f2.count_spread_above(0.25)} of 29"))
    lines.append(_row("apps moved >50%", "12 of 29", f"{f2.count_spread_above(0.5)} of 29"))
    lines.append(_row("apps moved >100%", "5 of 29", f"{f2.count_spread_above(1.0)} of 29"))
    winners = {}
    for app, label in f2.best_combo.items():
        winners.setdefault(label, []).append(app)
    lines.append(_row("every combination wins somewhere", "yes",
                      "; ".join(f"{k}: {len(v)}" for k, v in sorted(winners.items()))))

    # ------------------------------------------------------- Table 1
    t1 = table1.SCENARIO.run(verbose=False)
    lines += ["", "## Table 1 — imbalance & interconnect load", "", TABLE_HEAD]
    lines.append(_row("low/moderate/high classification", "11 / 5 / 13 apps",
                      f"class matches paper for {t1.class_matches()} of {len(t1.rows)} apps"))
    by_app = {r.app: r for r in t1.rows}
    lines.append(_row("facesim first-touch imbalance", "253%",
                      f"{by_app['facesim'].ft_imbalance * 100:.0f}%"))
    lines.append(_row("facesim interconnect FT/R4K", "39% / 16%",
                      f"{by_app['facesim'].ft_interconnect * 100:.0f}% / "
                      f"{by_app['facesim'].r4k_interconnect * 100:.0f}%"))
    lines.append(_row("cg.C round-4K interconnect", "46%",
                      f"{by_app['cg.C'].r4k_interconnect * 100:.0f}%"))

    # ------------------------------------------------------- Figure 6
    f6 = fig6.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 6 — Linux / Xen / Xen+ vs LinuxNUMA", "", TABLE_HEAD]
    lines.append(_row("Xen+ apps above 25% overhead", "20 of 29",
                      f"{f6.count_above('xen+', 0.25)} of 29"))
    lines.append(_row("Xen+ apps above 50%", "14 of 29",
                      f"{f6.count_above('xen+', 0.5)} of 29"))
    lines.append(_row("Xen+ apps above 100%", "11 of 29",
                      f"{f6.count_above('xen+', 1.0)} of 29"))

    # ------------------------------------------------------- Figure 7
    f7 = fig7.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 7 — Xen policies vs Xen+ (single VM)", "", TABLE_HEAD]
    lines.append(_row("apps improved >100% by best policy", "9 of 29",
                      f"{f7.count_best_above(1.0)} of 29"))
    lines.append(_row("cg.C completion divided by", "6x",
                      f"{1 + f7.improvements['cg.C']['First-Touch']:.1f}x (first-touch)"))
    lines.append(_row("sp.C best (round-4K/Carrefour)", "+290%",
                      f"{f7.improvements['sp.C']['Round-4K / Carrefour'] * 100:+.0f}%"))
    lines.append(_row("ft.C best (round-4K)", "+315%",
                      f"{f7.improvements['ft.C']['Round-4K'] * 100:+.0f}%"))
    lines.append(_row("max loss replacing round-1G", "10%",
                      f"{f7.max_degradation_replacing_round1g() * 100:.0f}%"))
    disk_ft = min(f7.improvements[a]["First-Touch"] for a in ("dc.B", "bfs", "pagerank", "sssp"))
    lines.append(_row("first-touch on disk apps", "drastic degradation",
                      f"down to {disk_ft * 100:+.0f}% (passthrough forfeited)"))

    # ------------------------------------------------------- Figures 8-9
    f8 = fig8.SCENARIO.run(verbose=False)
    f9 = fig9.SCENARIO.run(verbose=False)
    lines += ["", "## Figures 8-9 — two-VM workloads", "", TABLE_HEAD]
    improved = f8.count_vm_improved_above(0.5) + f9.count_vm_improved_above(0.5)
    total = len(f8.pairs) + len(f9.pairs)
    lines.append(_row("configs with a VM improved >50%", "9 of 11",
                      f"{improved} of {total}"))
    lines.append(_row("best case", "+440% (cg.C with sp.C)",
                      f"{f8.max_improvement() * 100:+.0f}%"))
    lines.append(_row("max degradation", "10%",
                      f"{max(f8.max_degradation(), f9.max_degradation()) * 100:.0f}%"))

    # ------------------------------------------------------- Figure 10
    f10 = fig10.SCENARIO.run(verbose=False)
    lines += ["", "## Figure 10 — Xen+NUMA vs LinuxNUMA", "", TABLE_HEAD]
    lines.append(_row("apps degraded >50% (Xen+)", "14", str(f10.count_above("xen+", 0.5))))
    lines.append(_row("apps degraded >50% (Xen+NUMA)", "4", str(f10.count_above("xen+numa", 0.5))))
    worst = sorted(f10.overheads, key=lambda a: -f10.overheads[a]["xen+numa"])[:4]
    lines.append(_row("remaining stragglers", "memcached, cassandra, ua.C, psearchy",
                      ", ".join(worst)))

    # ------------------------------------------------------- Table 4
    t4 = table4.SCENARIO.run(verbose=False)
    lines += ["", "## Table 4 — best policies", "", TABLE_HEAD]
    n = len(t4.rows)
    lines.append(_row("Linux winner family agreement", "—",
                      f"{t4.linux_family_matches()} of {n}"))
    lines.append(_row("Xen+ winner family agreement", "—",
                      f"{t4.xen_family_matches()} of {n}"))

    # ------------------------------------------------------- Batching
    b = batching.SCENARIO.run(verbose=False)
    lines += ["", "## Sections 4.2.3-4.2.4 — hypercall batching", "", TABLE_HEAD]
    lines.append(_row("wrmem with hypercall per release", "divided by ~3",
                      f"divided by {b.unbatched_slowdown:.1f}"))
    lines.append(_row("flush time spent invalidating", "87.5%",
                      f"{b.invalidation_share * 100:.1f}%"))
    lines += [
        "",
        "## Known deviations",
        "",
        "* A few extreme master-slave applications (pca, kmeans, bt.C, ep.D,",
        "  facesim) show *negative* Figure 1 overhead: in the model, round-1G's",
        "  coarse chunks accidentally spread their multi-GiB master-allocated",
        "  region while native first-touch concentrates all of it on one node.",
        "  See DESIGN.md section 6.",
        "* cg.C's headline factor lands near 5x rather than the paper's 6x:",
        "  the latency model bounds single-node saturation by the calibrated",
        "  Table 3 contended values plus the linear over-demand tail.",
        "* Table 4 winners flip on near-ties; family-level agreement is the",
        "  reproduction target.",
        "",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description="Regenerate the paper-claims report.",
    )
    parser.add_argument(
        "output",
        nargs="?",
        default="EXPERIMENTS.md",
        help="file to write (default: EXPERIMENTS.md)",
    )
    args = parser.parse_args(argv)
    text = build_report()
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Table 4: best NUMA policies per application, Linux and Xen+.

Exact winners flip on near-ties; the benchmark checks that the *family*
of the winner (first-touch vs round-4K vs round-1G) agrees with the paper
for a solid majority, and that the paper's flagship winners hold.
"""

from conftest import run_once

from repro.experiments import table4


def test_table4_best_policies(benchmark):
    result = run_once(benchmark, lambda: table4.SCENARIO.run(verbose=False))
    n = len(result.rows)
    assert n == 29
    assert result.linux_family_matches() >= n // 2
    assert result.xen_family_matches() >= n // 2
    by_app = {r.app: r for r in result.rows}
    # Flagship winners named in the paper's text (section 3.5.1).
    assert "First-Touch" in by_app["cg.C"].best_linux
    assert "Round-4K" in by_app["kmeans"].best_linux
    assert "Round-4K" in by_app["facesim"].best_linux
    # The Mosbench churn apps flip from first-touch (Linux) to round-4K
    # (Xen+): the hypercall/fault cost of hypervisor first-touch.
    assert "First-Touch" in by_app["wrmem"].best_linux
    assert "Round-4K" in by_app["wrmem"].best_xen

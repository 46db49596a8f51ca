"""One scenario module per paper table and figure.

Every module registers a :class:`~repro.experiments.registry.Scenario`
(declared runs + assembly) as ``SCENARIO``; ``SCENARIO.run(apps=None,
verbose=True)`` returns a structured result and prints the same
rows/series the paper reports.

Command line::

    python -m repro.experiments list
    python -m repro.experiments run fig2 fig6 --jobs 8 --store .runstore

Names: fig1, fig2, table1, table2, table3, table4, fig5, io_micro (alias
io), fig6, fig7, fig8, fig9, fig10, batching, cluster_migration.
"""

from repro.experiments import common

__all__ = ["common"]

"""RPR002 determinism.

Every stochastic component in the reproduction draws from a seeded
``np.random.Generator`` handed down from ``SimConfig.rng_seed`` (the
pattern of :mod:`repro.hardware.counters`). Unseeded or process-global
randomness — the ``random`` module, ``np.random.*`` module-level
functions, ``np.random.default_rng()`` without a seed — and wall-clock
reads silently break run reproducibility; so does the builtin
:func:`hash` on strings, whose value changes with ``PYTHONHASHSEED``
(use :func:`repro.util.stable_hash` to derive seeds).
"""

from __future__ import annotations

import ast

from repro.lint.project import (
    CLOCK_CALLS,
    NP_RANDOM_ALLOWED,
    NP_RANDOM_PREFIXES,
)
from repro.lint.registry import register
from repro.lint.visitor import FileContext, Rule, call_name


@register
class DeterminismRule(Rule):
    rule_id = "RPR002"
    name = "determinism"
    description = (
        "Forbids unseeded/global randomness (the random module, "
        "np.random module-level functions, np.random.default_rng() with "
        "no seed), wall-clock reads (time.time, datetime.now) and the "
        "PYTHONHASHSEED-dependent builtin hash(); stochastic code must "
        "take a seeded np.random.Generator parameter."
    )

    # ------------------------------------------------------------------

    def visit_Import(self, node: ast.Import, ctx: FileContext):
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    "the random module is process-global, unseeded state; "
                    "take a seeded np.random.Generator parameter instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext):
        if node.module == "random" or (node.module or "").startswith("random."):
            yield self.finding(
                ctx,
                node,
                "the random module is process-global, unseeded state; "
                "take a seeded np.random.Generator parameter instead",
            )
            return
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        node,
                        f"from numpy.random import {alias.name} binds "
                        f"numpy's global random stream; draw from a seeded "
                        f"np.random.Generator instead",
                    )

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        name = call_name(node)
        if name is None:
            return
        if name in CLOCK_CALLS:
            yield self.finding(
                ctx,
                node,
                f"{name}() reads the wall clock; simulated time must come "
                f"from the engine, not the host",
            )
            return
        if name == "hash":
            yield self.finding(
                ctx,
                node,
                "builtin hash() is randomised per process via "
                "PYTHONHASHSEED; use repro.util.stable_hash for seeds",
            )
            return
        if name.split(".")[-1] == "default_rng" and not node.args:
            yield self.finding(
                ctx,
                node,
                "np.random.default_rng() without a seed is "
                "nondeterministic; seed it from SimConfig.rng_seed",
            )
            return
        if name.startswith(NP_RANDOM_PREFIXES):
            attr = name.split(".")[2]
            if attr not in NP_RANDOM_ALLOWED:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() uses numpy's global random stream; draw "
                    f"from a seeded np.random.Generator instead",
                )

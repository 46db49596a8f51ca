"""RPR011 reachability.

Every function in the shipped tree must be reachable from an entry point;
a function that only the test suite calls is dead weight in ``src/`` (a
reference implementation belongs beside the test that compares against
it). Reachability runs over a *reference* graph, not the call graph: a
``Name`` or ``Attribute`` load of a name inside a reachable body marks
every project function of that bare name reachable. Callbacks passed as
values (``placement_many=self.nodes_of_pages``), handlers bound in an
``__init__`` and properties all count as uses, so the rule over-
approximates and errs toward keeping code.

The roots are:

* module-level code of every module, class bodies, decorators and
  default values included (the scenario registry and the hypercall
  table are reached this way); imports and ``__all__`` are not loads,
  so they do not count as uses;
* dunders, and the dispatch the lint framework does by name
  (``visit_*``, ``check_project``);
* the ``main`` of each command-line package in :data:`CLI_PACKAGES`;
* :data:`EXTERNAL_ROOTS`, the qualified names that ``examples/``,
  ``benchmarks/`` and the CI workflow call, each mapped to the file that
  calls it. An entry that names no project function is reported, so the
  table cannot go stale. ``tests/`` is not a root.

The table describes this package. A tree in which no entry resolves (a
fixture, another project) is not that package and gets no RPR011
findings. Lint the whole package: a sub-package linted on its own lacks
its callers, so its functions would read as unreachable.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.findings import Finding
from repro.lint.project import FuncDef, ProjectContext, ProjectRule
from repro.lint.registry import register

#: Packages whose module-level ``main`` functions are command lines.
CLI_PACKAGES = ("repro.experiments", "repro.obs", "repro.lint", "repro.serve")

#: Bare method names that frameworks call by name, never by reference.
DISPATCH_NAMES = frozenset({"check_project"})
DISPATCH_PREFIXES = ("visit_",)

#: Qualified names of src functions called from outside src/ (examples,
#: benchmarks, the CI workflow), mapped to the file that calls each one.
#: A test checks that every cited file exists and mentions the
#: function's bare name.
EXTERNAL_ROOTS = {
    "repro.core.autoselect.make_xen_probe": "examples/auto_policy.py",
    "repro.experiments.io_micro.IoMicroResult.matches_paper": (
        "benchmarks/test_io_microbench.py"
    ),
    "repro.guest.pv_patch.PvNumaPatch.flush": "examples/iommu_conflict.py",
    "repro.hardware.iommu.Iommu.drain_error_log": "examples/iommu_conflict.py",
    "repro.lint.sanitizer.enable": ".github/workflows/ci.yml",
    "repro.sim.engine.run_app": "examples/quickstart.py",
    "repro.sim.engine.run_apps": "examples/consolidation.py",
    "repro.sim.environment.World.at_epoch": "examples/vcpu_migration.py",
    "repro.sim.environment.migrate_vcpu": "examples/vcpu_migration.py",
    "repro.sim.results.RunResult.total_migrations": (
        "examples/vcpu_migration.py"
    ),
    "repro.sim.runspec.RunRequest.describe": "benchmarks/e2e/harness.py",
    "repro.vio.drivers.PassthroughDriver.read_into": (
        "examples/iommu_conflict.py"
    ),
    "repro.workloads.patterns.imbalance_for_master_share": (
        "examples/policy_explorer.py"
    ),
}


def _loaded_names(root: ast.AST, enter_defs: bool = True) -> Set[str]:
    """Bare names loaded under ``root`` (``Name`` ids, ``Attribute`` attrs).

    With ``enter_defs`` False, nested function bodies are skipped but
    their decorators and default values, which run where the function
    is defined, are kept.
    """
    names: Set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
        elif isinstance(node, FuncDef) and not enter_defs:
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names


def _is_dispatch_root(name: str) -> bool:
    return (
        (name.startswith("__") and name.endswith("__"))
        or name in DISPATCH_NAMES
        or name.startswith(DISPATCH_PREFIXES)
    )


def _is_cli_module(module_name: str) -> bool:
    return any(
        module_name == pkg or module_name.startswith(pkg + ".")
        for pkg in CLI_PACKAGES
    )


@register
class ReachabilityRule(ProjectRule):
    rule_id = "RPR011"
    name = "reachability"
    description = (
        "Every function must be referenced, through a chain of name "
        "loads, from module-level code, a dunder or visit_* dispatch, a "
        "CLI main, or an EXTERNAL_ROOTS entry (what examples/, "
        "benchmarks/ and CI call); a function only tests reach belongs "
        "in the tests."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        roots = {key: project.resolve_function(key) for key in EXTERNAL_ROOTS}
        if not any(roots.values()):
            return []
        findings: List[Finding] = []
        by_name: Dict[str, List[str]] = {}
        for qname in project.functions:
            by_name.setdefault(qname.rsplit(".", 1)[-1], []).append(qname)

        pending: List[str] = []
        for qname, fn in project.functions.items():
            bare = fn.node.name
            if _is_dispatch_root(bare) or (
                bare == "main"
                and fn.class_name is None
                and _is_cli_module(fn.module.name)
            ):
                pending.append(qname)
        for key, resolved in sorted(roots.items()):
            if resolved is None:
                findings.append(
                    self.project_finding(
                        __file__,
                        None,
                        f"EXTERNAL_ROOTS entry {key!r} names no project "
                        f"function; drop the stale entry",
                    )
                )
            else:
                pending.append(resolved)
        reached: Set[str] = set()
        marked: Set[str] = set()
        for _, ctx in project.iter_contexts():
            marked |= _loaded_names(ctx.tree, enter_defs=False)
        for name in marked:
            pending.extend(by_name.get(name, ()))
        while pending:
            qname = pending.pop()
            if qname in reached:
                continue
            reached.add(qname)
            for name in _loaded_names(project.functions[qname].node):
                if name not in marked:
                    marked.add(name)
                    pending.extend(by_name.get(name, ()))

        for qname in sorted(project.functions):
            if qname in reached:
                continue
            fn = project.functions[qname]
            findings.append(
                self.project_finding(
                    fn.module.path,
                    fn.node,
                    f"function {fn.short_name} is unreachable: no "
                    f"module-level code, dispatch root, CLI main or "
                    f"EXTERNAL_ROOTS entry references it — delete it, or "
                    f"move it beside the tests that use it",
                )
            )
        return findings

"""RPR001 interface-encapsulation.

Paper sections 2.1 and 4.1: the hypervisor page table (p2m) and the Xen
heap are hypervisor-private; a NUMA policy manipulates memory exclusively
through the two functions of the internal interface (map a physical page
to a node, migrate a physical page). This rule freezes that boundary:
modules in the policy layer (path segments ``policies`` or ``carrefour``)
may not import hypervisor memory internals nor poke ``.p2m`` /
``.allocator`` attributes or frame-mutation methods directly.
"""

from __future__ import annotations

import ast

from repro.lint.registry import register
from repro.lint.visitor import FileContext, Rule

#: Path segments that mark a file as policy-layer code.
POLICY_SEGMENTS = frozenset({"policies", "carrefour"})

#: Hypervisor-internal modules the policy layer may not import.
FORBIDDEN_MODULES = (
    "repro.hypervisor.p2m",
    "repro.hypervisor.allocator",
    "repro.hardware.memory",
)

#: Names whose import reveals hypervisor memory internals.
FORBIDDEN_IMPORT_NAMES = frozenset(
    {"P2MTable", "XenHeapAllocator", "MachineMemory"}
)

#: Attribute accesses that reach through the interface.
FORBIDDEN_ATTRS = frozenset({"p2m", "allocator"})

#: Frame/p2m mutators a policy must never call directly — the sanctioned
#: spellings are InternalInterface.migrate_page / invalidate_page /
#: populate_*.
FORBIDDEN_CALLS = frozenset(
    {
        "set_entry",
        "remap",
        "write_protect",
        "unprotect",
        "invalidate",
        "alloc_page_on",
        "free_page",
        "alloc_frames",
        "free_frames",
    }
)


@register
class InterfaceEncapsulationRule(Rule):
    rule_id = "RPR001"
    name = "interface-encapsulation"
    description = (
        "Policy-layer modules (core/policies, carrefour) may only reach "
        "the hypervisor through the internal interface (migrate_page, "
        "invalidate_page, populate_*); importing p2m or "
        "allocator internals, or touching .p2m/.allocator attributes and "
        "frame mutators, breaks the paper's section 4.1 isolation."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return any(seg in POLICY_SEGMENTS for seg in ctx.parts)

    # ------------------------------------------------------------------

    def visit_Import(self, node: ast.Import, ctx: FileContext):
        if ctx.in_type_checking(node):
            return
        for alias in node.names:
            if alias.name.startswith(FORBIDDEN_MODULES):
                yield self.finding(
                    ctx,
                    node,
                    f"policy layer imports hypervisor internals "
                    f"({alias.name}); go through "
                    f"repro.core.interface.InternalInterface instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext):
        if ctx.in_type_checking(node):
            return
        module = node.module or ""
        if module.startswith(FORBIDDEN_MODULES):
            yield self.finding(
                ctx,
                node,
                f"policy layer imports hypervisor internals ({module}); "
                f"go through repro.core.interface.InternalInterface instead",
            )
            return
        for alias in node.names:
            if alias.name in FORBIDDEN_IMPORT_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"policy layer imports {alias.name}; hypervisor memory "
                    f"state is private to the internal interface",
                )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext):
        if node.attr in FORBIDDEN_ATTRS:
            yield self.finding(
                ctx,
                node,
                f"policy layer reaches hypervisor state via .{node.attr}; "
                f"use the internal interface (migrate_page/"
                f"invalidate_page/populate_*) instead",
            )

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_CALLS:
            yield self.finding(
                ctx,
                node,
                f"policy layer calls frame mutator .{func.attr}(); only "
                f"the internal interface may touch p2m entries and frames",
            )

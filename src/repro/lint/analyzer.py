"""File discovery + rule driving + report rendering.

Two rule populations run here: the per-file AST rules (RPR001-RPR005),
which see one :class:`FileContext` at a time, and the project-wide
dataflow rules (RPR006-RPR011), which need the cross-module
:class:`~repro.lint.project.ProjectContext` (symbol table, call graph,
effect summaries). Project rules are strict-mode machinery: the
analyzer builds the project context and runs them only when asked
(``--strict``, ``--baseline-update``, or an explicit ``--select``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from repro.lint import baseline as baseline_mod
from repro.lint.findings import FINDINGS_SCHEMA_VERSION, Finding
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import get_rules
from repro.lint.visitor import FileContext, Rule


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)
    #: Findings suppressed by the baseline (strict mode only).
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"error: {err}" for err in self.errors)
        noun = "file" if self.files_checked == 1 else "files"
        suffix = (
            f" ({self.baselined} baselined finding(s) suppressed)"
            if self.baselined
            else ""
        )
        if self.findings or self.errors:
            lines.append(
                f"{len(self.findings)} finding(s) in "
                f"{self.files_checked} {noun}{suffix}"
            )
        else:
            lines.append(
                f"all clean: {self.files_checked} {noun} checked{suffix}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "schema_version": FINDINGS_SCHEMA_VERSION,
                "files_checked": self.files_checked,
                "errors": self.errors,
                "baselined": self.baselined,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def discover(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__",)
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(found))


class Analyzer:
    """Runs a set of rules over a set of paths.

    Args:
        select: keep only these rules (ids or names); None keeps all.
        ignore: drop these rules (ids or names).
        project: run the project-wide dataflow rules too. When False
            (the default) only per-file rules run — the fast pre-strict
            mode; an explicit ``--select`` of a project rule implies it.
        baseline: allowed-findings signature counts (see
            :mod:`repro.lint.baseline`); matched findings are suppressed
            and counted in :attr:`LintReport.baselined`.
    """

    def __init__(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
        project: bool = False,
        baseline: Optional[Dict[baseline_mod.Key, int]] = None,
    ):
        rules = get_rules(select, ignore)
        selected_project = select is not None and any(
            issubclass(cls, ProjectRule)
            and (cls.rule_id in select or cls.name in select)
            for cls in rules
        )
        include_project = project or selected_project
        self.rule_classes: List[Type[Rule]] = [
            cls for cls in rules if not issubclass(cls, ProjectRule)
        ]
        self.project_rule_classes: List[Type[ProjectRule]] = (
            [cls for cls in rules if issubclass(cls, ProjectRule)]
            if include_project
            else []
        )
        self.baseline = baseline

    def run(self, paths: Sequence[str]) -> LintReport:
        report = LintReport()
        for path in paths:
            # A typo'd path must not read as "all clean" in CI.
            if not os.path.exists(path):
                report.errors.append(f"{path}: no such file or directory")
        contexts: List[FileContext] = []
        for path in discover(paths):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                ctx = FileContext(path, source)
            except (OSError, SyntaxError, ValueError) as exc:
                report.errors.append(f"{path}: {exc}")
                continue
            contexts.append(ctx)
            report.files_checked += 1
            for rule_cls in self.rule_classes:
                rule = rule_cls()
                if not rule.applies_to(ctx):
                    continue
                report.findings.extend(rule.check(ctx))
        if self.project_rule_classes and contexts:
            project = ProjectContext(contexts)
            by_path = project.context_by_path
            for rule_cls in self.project_rule_classes:
                rule = rule_cls()
                for finding in rule.check_project(project):
                    ctx = by_path.get(finding.path)
                    if ctx is not None and ctx.is_suppressed(
                        finding.line, rule.rule_id
                    ):
                        continue
                    report.findings.append(finding)
        report.findings.sort(key=lambda f: f.sort_key)
        if self.baseline is not None:
            report.findings, report.baselined = baseline_mod.apply_baseline(
                report.findings, self.baseline
            )
        return report

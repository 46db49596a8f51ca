"""The unit of analyzer output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

#: Version of the JSON finding schema emitted by ``--format json``.
#: Version 2 renamed ``path`` to ``file`` and added ``severity`` and the
#: top-level ``schema_version`` field.
FINDINGS_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: stable identifier ("RPR001").
        rule_name: human-readable rule slug ("interface-encapsulation").
        path: file the finding is in (as given to the analyzer).
        line: 1-based source line.
        col: 1-based source column.
        message: what is wrong and what the sanctioned pattern is.
        severity: "error" (gating) or "warning" (informational).
    """

    rule_id: str
    rule_name: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-ready representation (schema version 2 keys)."""
        return {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": self.severity,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: RULE [name] message`` — one line per finding."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )

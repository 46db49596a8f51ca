"""Metric definitions and report formatting."""

from repro.analysis.metrics import classify_imbalance
from repro.analysis.tables import format_table, format_percent

__all__ = [
    "classify_imbalance",
    "format_table",
    "format_percent",
]

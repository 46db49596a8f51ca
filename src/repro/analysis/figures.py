"""Plain-text bar charts, so the experiments can *show* the figures.

The paper's figures are per-application bar charts (overhead or
improvement). ``render_bars`` draws a horizontal ASCII version: one row
per label, negative values growing left from the axis, positive right —
enough to eyeball the same shapes the paper plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def render_bars(
    values: Dict[str, float],
    title: Optional[str] = None,
    width: int = 40,
    unit: str = "%",
    scale: float = 100.0,
) -> str:
    """Render a label -> value mapping as horizontal bars.

    Args:
        values: bar per entry, in input order.
        title: optional heading.
        width: character budget for the longest bar (per side).
        unit: suffix printed after each value.
        scale: multiplier applied before printing (fractions -> percent).
    """
    if not values:
        return title or ""
    label_width = max(len(label) for label in values)
    magnitudes = [abs(v) for v in values.values()]
    peak = max(magnitudes) or 1.0
    has_negative = any(v < 0 for v in values.values())
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for label, value in values.items():
        length = int(round(abs(value) / peak * width))
        bar = "#" * length
        amount = f"{value * scale:+.0f}{unit}"
        if has_negative:
            left = bar.rjust(width) if value < 0 else " " * width
            right = bar if value >= 0 else ""
            lines.append(
                f"{label.ljust(label_width)} {left}|{right.ljust(width)} {amount}"
            )
        else:
            lines.append(
                f"{label.ljust(label_width)} |{bar.ljust(width)} {amount}"
            )
    return "\n".join(lines)


def render_grouped_bars(
    groups: Dict[str, Dict[str, float]],
    title: Optional[str] = None,
    width: int = 30,
    unit: str = "%",
    scale: float = 100.0,
) -> str:
    """Render label -> {series -> value} as grouped bars.

    Used for the multi-series figures (Figure 2's four policies, Figure
    6's three configurations).
    """
    if not groups:
        return title or ""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    series_names = list(next(iter(groups.values())))
    series_width = max(len(s) for s in series_names)
    peak = max(
        (abs(v) for per in groups.values() for v in per.values()), default=1.0
    ) or 1.0
    for label, per_series in groups.items():
        lines.append(label)
        for series in series_names:
            value = per_series.get(series, 0.0)
            length = int(round(abs(value) / peak * width))
            bar = ("#" if value >= 0 else "-") * length
            lines.append(
                f"  {series.ljust(series_width)} |{bar.ljust(width)} "
                f"{value * scale:+.0f}{unit}"
            )
    return "\n".join(lines)

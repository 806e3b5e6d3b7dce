"""Text rendering of tables and figure analogs.

The paper's figures are stacked bar charts; the harness renders them as
aligned text tables plus ASCII bars, which is what the benchmark modules
print so the regenerated "figures" appear directly in the pytest output
and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(row))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart (one bar per label)."""
    if not values:
        return "(no data)"
    peak = max(values) or 1.0
    label_w = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(f"{label.rjust(label_w)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def stacked_time_bar(breakdown, normalize_to: float, width: int = 60) -> str:
    """One Figure-3(a)-style stacked bar: user/system/idle segments."""
    total = breakdown.total
    scale = width / normalize_to if normalize_to else 0.0
    seg_user = round(breakdown.user * scale)
    seg_sys = round(breakdown.system * scale)
    seg_idle = round(breakdown.idle * scale)
    return (
        "u" * seg_user + "s" * seg_sys + "." * seg_idle
        + f"  ({100 * total / normalize_to:.0f}%)"
    )


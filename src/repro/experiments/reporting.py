"""Plain-text rendering of experiment tables and series; JSON reports."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: list[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[float], *, unit: str = ""
) -> str:
    """Render one named (x, y) series as aligned columns."""
    lines = [f"{name}{f' [{unit}]' if unit else ''}:"]
    for x, y in zip(xs, ys):
        lines.append(f"  {str(x):>12} {y:12.3f}")
    return "\n".join(lines)


def write_report(result: Any, path: str) -> None:
    """Write a sweep result dataclass to ``path`` as a JSON report: its
    ``experiment`` name, then every field (rows included) via
    :func:`dataclasses.asdict`."""
    with open(path, "w") as fh:
        json.dump({"experiment": result.experiment, **asdict(result)}, fh, indent=2)
        fh.write("\n")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)

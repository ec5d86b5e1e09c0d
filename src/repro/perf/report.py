"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows the paper reports; these
helpers keep that output aligned and dependency-free.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "format_value"]


def format_value(value: Any, precision: int = 4) -> str:
    """Render one cell: floats compactly, everything else via ``str``."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        # ``g`` already switches to scientific notation outside the
        # comfortable range, so one format string covers every magnitude.
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], *, title: str | None = None
) -> str:
    """Render an aligned monospace table with a header rule."""
    str_rows = [[format_value(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

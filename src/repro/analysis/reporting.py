"""ASCII reporting helpers shared by the experiment harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_series", "print_table"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows: List[List[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_fmt.format(cell))
            else:
                cells.append(str(cell))
        str_rows.append(cells)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: Dict[str, Sequence[float]],
    title: Optional[str] = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render named y-series against shared x values."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [s[i] for s in series.values()])
    return format_table(headers, rows, title, float_fmt)


def print_table(*args, **kwargs) -> None:
    print(format_table(*args, **kwargs))

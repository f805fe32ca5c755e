"""Plain-text table rendering for benchmark reports.

The benchmark harness prints the same rows the paper's tables report; this
module renders them in aligned ASCII so outputs are diffable and readable in
CI logs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table"]

#: format spec of every float cell
FLOAT_FMT = ".4g"


def _fmt_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, FLOAT_FMT)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are formatted with :data:`FLOAT_FMT`; booleans render as yes/no.
    Returns the table as a single string (no trailing newline).
    """
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

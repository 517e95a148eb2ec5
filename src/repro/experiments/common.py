"""Shared experiment plumbing: result tables and text rendering.

Every experiment driver returns an :class:`ExperimentTable`; benchmarks
and ``python -m repro run EXP-*`` render it with :func:`render_table`
so the reproduced rows appear exactly once in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["ExperimentTable", "render_table", "format_cell", "metrics_footer"]


def format_cell(value) -> str:
    """Human-friendly cell formatting (floats to 4 significant digits)."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if 1e-3 <= magnitude < 1e6:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)


@dataclass(frozen=True)
class ExperimentTable:
    """A reproduced table or figure, as printable rows.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md identifier (e.g. ``"EXP-T1"``).
    title:
        One-line description referencing the paper artifact.
    headers:
        Column names.
    rows:
        Sequence of row tuples (any scalar types).
    notes:
        Free-form remarks (assertion outcomes, deviations, etc.).
    """

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


def metrics_footer() -> str:
    """Telemetry footer for experiment output (opt-in, ``--metrics``).

    Renders the span tree followed by the metric series recorded since
    the last ``obs.reset()``.  Returns ``""`` while the observability
    layer is disabled, so drivers can append it unconditionally.
    """
    from repro import obs

    if not obs.enabled():
        return ""
    return (
        "-- telemetry "
        + "-" * 47
        + "\n"
        + obs.render_trace()
        + "\n\n"
        + obs.render_metrics()
    )


def render_table(table: ExperimentTable) -> str:
    """Render an :class:`ExperimentTable` as aligned monospace text."""
    cells = [tuple(format_cell(v) for v in row) for row in table.rows]
    widths = [len(h) for h in table.headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(items: Sequence[str]) -> str:
        return "  ".join(item.rjust(widths[i]) for i, item in enumerate(items))

    lines = [
        f"== {table.experiment_id}: {table.title}",
        fmt_row(table.headers),
        fmt_row(tuple("-" * w for w in widths)),
    ]
    lines.extend(fmt_row(row) for row in cells)
    for note in table.notes:
        lines.append(f"   note: {note}")
    return "\n".join(lines)

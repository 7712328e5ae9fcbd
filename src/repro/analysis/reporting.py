"""Plain-text tables for reproducing the paper's artifacts.

Tables and figures alike are rendered as aligned grids (one row per
mechanism, one column per cell or sweep point), with optional
paper-reported reference values interleaved so EXPERIMENTS.md can be
assembled directly from experiment output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def _format_cell(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, str):
        return value
    number = float(value)
    if not np.isfinite(number):
        return "inf"
    if number == 0:
        return "0"
    magnitude = abs(number)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{number:.3e}"
    return f"{number:.4g}"


@dataclass
class Table:
    """A simple aligned text table."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, label: str, values: Sequence) -> None:
        """Append a row; ``values`` must match the non-label columns."""
        if len(values) != len(self.columns) - 1:
            raise ValidationError(
                f"row {label!r} has {len(values)} values for {len(self.columns) - 1} columns"
            )
        self.rows.append([label, *values])

    def render(self) -> str:
        """The table as aligned text."""
        cells = [[_format_cell(c) if i else str(c) for i, c in enumerate(row)] for row in self.rows]
        header = [str(c) for c in self.columns]
        widths = [
            max(len(header[j]), *(len(row[j]) for row in cells)) if cells else len(header[j])
            for j in range(len(header))
        ]
        lines = [self.title, ""]
        lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(header)))
        lines.append("  ".join("-" * widths[j] for j in range(len(header))))
        for row in cells:
            lines.append("  ".join(row[j].ljust(widths[j]) for j in range(len(header))))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Rows keyed by label (for programmatic assertions in tests)."""
        return {row[0]: row[1:] for row in self.rows}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()

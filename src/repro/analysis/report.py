"""Plain-text tabular reports.

The paper's evaluation is one figure and one worked example; the reproduction
regenerates them as text tables and series so no plotting stack is required.
``Table`` is a tiny column-aligned formatter used by every experiment driver;
its raw cells are also what each result's ``tables`` section serializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.exceptions import AnalysisError

Cell = Union[str, int, float]


def _format_cell(cell: Cell, float_digits: int) -> str:
    if isinstance(cell, bool):  # bool is an int subclass; keep it readable
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.{float_digits}f}"
    return str(cell)


@dataclass
class Table:
    """A simple column-aligned text table.

    ``title`` is optional provenance used when a table travels inside a
    structured experiment result (several tables per experiment need telling
    apart); the text renderer ignores it.
    """

    headers: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    float_digits: int = 4
    title: Optional[str] = None

    def add_row(self, *cells: Cell) -> None:
        """Append one row; the cell count must match the headers."""
        if len(cells) != len(self.headers):
            raise AnalysisError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append(tuple(cells))

    def render(self) -> str:
        """The table as aligned text."""
        return format_table(self.headers, self.rows, float_digits=self.float_digits)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> Dict[str, Any]:
        """The table as a JSON-ready dict with **raw** (unformatted) cells.

        Cell types survive a JSON round-trip unchanged: ``bool`` stays bool
        (not collapsed into int), floats keep full precision — formatting is
        applied only at :meth:`render` time.
        """
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "float_digits": self.float_digits,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Table":
        """Rebuild a table from :meth:`to_dict` output (validating shape)."""
        try:
            raw_headers = document["headers"]
            rows = document.get("rows", [])
            float_digits = int(document.get("float_digits", 4))
            title = document.get("title")
        except (KeyError, TypeError, ValueError) as error:
            raise AnalysisError(f"malformed table document: {error}") from error
        if isinstance(raw_headers, (str, bytes)) or not isinstance(raw_headers, Sequence):
            # A bare string would silently split into one column per character.
            raise AnalysisError(f"table headers must be a sequence, got {raw_headers!r}")
        headers = tuple(raw_headers)
        if not headers:
            raise AnalysisError("a table needs at least one column")
        if title is not None and not isinstance(title, str):
            raise AnalysisError(f"table title must be a string, got {title!r}")
        table = cls(headers=headers, float_digits=float_digits, title=title)
        for row in rows:
            if isinstance(row, (str, bytes)) or not isinstance(row, Sequence):
                raise AnalysisError(f"table row must be a sequence of cells, got {row!r}")
            table.add_row(*row)
        return table


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    *,
    float_digits: int = 4,
) -> str:
    """Format headers and rows as an aligned text table."""
    if not headers:
        raise AnalysisError("a table needs at least one column")
    formatted_rows = [
        [_format_cell(cell, float_digits) for cell in row] for row in rows
    ]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
    widths = [len(header) for header in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in formatted_rows
    ]
    return "\n".join([header_line, separator, *body])

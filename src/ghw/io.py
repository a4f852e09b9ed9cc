"""Matrix-file parsing, Betti-diagram rendering, and result documents.

Matrix files hold one row per line as space-separated 0/1 entries; blank
lines and lines starting with ``#`` are ignored.  Result documents are
JSON with a fixed key order so identical runs emit byte-identical output
(timings live under their own key and are excluded from comparisons).
"""

from __future__ import annotations

import json

from .errors import MatrixParseError
from .gf2 import BinaryMatrix, word_from_string

# The Betti-table helpers name resolution.BettiTable only in annotations,
# which are never evaluated, so reading a matrix does not load resolution.

SCHEMA_VERSION = 1


def parse_matrix_text(text: str) -> BinaryMatrix:
    """Parse MatrixFile content; errors carry 1-based line numbers."""
    rows: list[int] = []
    ncols = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries = line.split()
        if any(e not in ("0", "1") for e in entries):
            bad = next(e for e in entries if e not in ("0", "1"))
            raise MatrixParseError(line_no, f"entry {bad!r} is not 0 or 1")
        if ncols is None:
            ncols = len(entries)
        elif len(entries) != ncols:
            raise MatrixParseError(
                line_no, f"row has {len(entries)} entries, expected {ncols}")
        rows.append(word_from_string("".join(entries)))
    if not rows:
        raise MatrixParseError(0, "no matrix rows found")
    return BinaryMatrix(tuple(rows), ncols)


def load_matrix(path: str) -> BinaryMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise MatrixParseError(line_no, "not UTF-8 text")
    return parse_matrix_text(text)


def render_betti_diagram(table: BettiTable) -> str:
    """Render the table the way the worked diagrams print it.

    Columns are homological degrees i = 0..pd, rows are j - i = 0..max,
    the cell at (row r, column i) shows beta_{i, i+r}; zeros print as 0
    and the corner holds the leading 1.
    """
    pd = table.pd
    max_row = max((j - i for (i, j) in table.entries), default=0)
    width = max(
        (len(str(b)) for b in table.entries.values()), default=1)
    width = max(width, len(str(pd)), len(str(max_row)))
    header = " " * (len(str(max_row)) + 2) + " ".join(
        str(i).rjust(width) for i in range(pd + 1))
    lines = [header]
    for r in range(max_row + 1):
        cells = " ".join(
            str(table.beta(i, i + r)).rjust(width) for i in range(pd + 1))
        lines.append(f"{str(r).rjust(len(str(max_row)))} | {cells}")
    return "\n".join(lines)


def betti_triples(table: BettiTable) -> list[dict]:
    return [{"i": i, "j": j, "beta": b} for i, j, b in table.sorted_triples()]


def build_document(command: str, params: dict, code_info: dict | None,
                   result: dict, seconds: float, version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "ghw",
        "tool_version": version,
        "command": command,
        "params": params,
        "code": code_info,
        "result": result,
        "timing": {"seconds": round(seconds, 6)},
    }


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"

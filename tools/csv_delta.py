"""Cell-by-cell comparison of the CSV files in two output directories.

    python3 tools/csv_delta.py OLD_DIR NEW_DIR

For every ``*.csv`` in either directory it prints one line: ``identical``
when the bytes agree, a header or row-count mismatch, or the number of
differing cells followed by one line per column that differs, with the
largest absolute and relative difference of its numeric cells.  The
relative difference is taken against the old value (``inf`` where that is
0); differing cells that do not parse as numbers are counted as such.  A
file present in one directory only is reported as such.  The exit status is
1 when any file differs.  Only the standard library is used, and focklab is
never imported here.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> list[str]:
    """The report lines for one pair of CSV files."""
    if old.read_bytes() == new.read_bytes():
        return ["identical"]
    a, b = _rows(old), _rows(new)
    if a[:1] != b[:1]:
        return [f"header differs: {a[:1]} vs {b[:1]}"]
    if len(a) != len(b):
        return [f"row count differs: {len(a) - 1} vs {len(b) - 1}"]
    header = a[0] if a else []
    cells = 0
    cols: dict[int, dict] = {}  # column index -> counts and largest differences
    for row_a, row_b in zip(a[1:], b[1:]):
        if len(row_a) != len(row_b):
            return [f"row length differs: {row_a} vs {row_b}"]
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            cells += 1
            if x == y:
                continue
            col = cols.setdefault(j, {"cells": 0, "text": 0, "abs": 0.0, "rel": 0.0})
            col["cells"] += 1
            u, v = _number(x), _number(y)
            if u is None or v is None:
                col["text"] += 1
                continue
            diff = abs(v - u)
            col["abs"] = max(col["abs"], diff)
            col["rel"] = max(col["rel"], diff / abs(u) if u else math.inf)
    lines = [f"{sum(c['cells'] for c in cols.values())} of {cells} cells differ"]
    for j, c in sorted(cols.items()):
        parts = [f"{c['cells']} cells"]
        if c["cells"] > c["text"]:
            parts.append(f"max abs {c['abs']:.3g}, max rel {c['rel']:.3g}")
        if c["text"]:
            parts.append(f"{c['text']} not numeric")
        lines.append(f"  {header[j] if j < len(header) else j}: {', '.join(parts)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/csv_delta.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(p) for p in args)
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    differs = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not old.exists() or not new.exists():
            lines = [f"only in {old_dir if old.exists() else new_dir}"]
        else:
            lines = compare(old, new)
        differs |= lines != ["identical"]
        print(f"{name}: {lines[0]}")
        for line in lines[1:]:
            print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

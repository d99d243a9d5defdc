"""tools/csv_delta.py on two small output directories."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_delta.py"


def _tool():
    spec = importlib.util.spec_from_file_location("csv_delta", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_csv_delta_reports_each_kind_of_difference(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    files = {
        "same.csv": ("N,x\n2,0.5\n", "N,x\n2,0.5\n"),
        "cells.csv": ("N,x,y,kind\n2,0.5,0,a\n4,1.0,3,b\n", "N,x,y,kind\n2,0.5,1e-20,a\n4,1.5,3,c\n"),
        "header.csv": ("N,x\n2,0.5\n", "N,y\n2,0.5\n"),
        "rows.csv": ("N,x\n2,0.5\n", "N,x\n2,0.5\n4,1.0\n"),
    }
    for name, (a, b) in files.items():
        (old / name).write_text(a)
        (new / name).write_text(b)
    (old / "gone.csv").write_text("N\n1\n")
    assert _tool().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "cells.csv: 3 of 8 cells differ",
        "  x: 1 cells, max abs 0.5, max rel 0.5",
        "  y: 1 cells, max abs 1e-20, max rel inf",
        "  kind: 1 cells, 1 not numeric",
        f"gone.csv: only in {old}",
        "header.csv: header differs: [['N', 'x']] vs [['N', 'y']]",
        "rows.csv: row count differs: 1 vs 2",
        "same.csv: identical",
    ]
    assert _tool().main([str(old), str(old)]) == 0

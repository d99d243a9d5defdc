"""tools/bench_pairs.py's summary of synthetic runs, with no subprocess."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.05},
    {"name": "ok_frac", "better": "higher", "bound": 0.02},
]}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload, parent_walls, change_walls, parent_ok=1.0, change_ok=1.0):
    return [
        {"workload": workload, "seed": i, "first": "parent",
         "parent": {"wall_s": p, "ok_frac": parent_ok}, "change": {"wall_s": c, "ok_frac": change_ok}}
        for i, (p, c) in enumerate(zip(parent_walls, change_walls))
    ]


def test_end_to_end_quartiles_wins_and_resolution(capsys):
    tool = _tool()
    runs = (
        # a narrow parent spread: resolved whatever the change does
        _runs("steady", [1.0, 1.01, 1.02, 1.0, 1.01], [0.8, 0.81, 1.05, 0.8, 0.82])
        # a wide parent spread, every change run better than every parent run
        + _runs("noisy-clear", [1.0, 1.4, 1.2, 1.6, 1.1], [0.6, 0.7, 0.65, 0.9, 0.8])
        # a wide parent spread and overlapping runs
        + _runs("noisy-overlap", [1.0, 1.4, 1.2, 1.6, 1.1], [0.9, 1.3, 1.0, 1.5, 1.05], change_ok=0.9)
        + [{"workload": "crashed", "seed": 0, "first": "parent",
            "parent": {"exit": 1, "error": "boom"}, "change": {"wall_s": 1.0, "ok_frac": 1.0}}]
    )
    table = tool.end_to_end(runs, SPEC)
    assert set(table) == {"steady", "noisy-clear", "noisy-overlap"}  # no complete pair: no row

    steady = table["steady"]["wall_s"]
    assert steady["parent"] == {"median": 1.01, "q1": 1.0, "q3": 1.01}
    assert steady["change"]["median"] == 0.81
    assert steady["change_vs_parent"] == pytest.approx(0.81 / 1.01 - 1.0)
    assert steady["worse_by"] == steady["change_vs_parent"]
    assert steady["change_wins"] == 4 and steady["pairs"] == 5
    assert steady["parent_spread"] == pytest.approx(0.01 / 1.01)
    assert steady["within_bound"] and steady["resolved"]

    clear = table["noisy-clear"]["wall_s"]
    assert clear["parent_spread"] > SPEC["end_to_end"][0]["bound"]
    assert clear["change_wins"] == 5 and clear["resolved"]

    overlap = table["noisy-overlap"]["wall_s"]
    assert overlap["change_wins"] == 5 and overlap["within_bound"]
    assert not overlap["resolved"]  # 1.3 and 1.5 read worse than the parent's 1.0 and 1.1
    # higher is better: a lower ok_frac is worse, beyond its bound
    ok = table["noisy-overlap"]["ok_frac"]
    assert ok["worse_by"] == pytest.approx(0.1) and not ok["within_bound"]
    assert ok["change_wins"] == 0 and ok["resolved"]  # no parent spread

    lines = tool.verdicts(table)
    assert len(lines) == 6
    assert lines[0].split()[:2] == ["steady", "wall_s"]
    assert "wins 4/5" in lines[0] and "resolved True" in lines[0]
    assert "resolved False" in lines[4]


def test_claim_met_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    tool = _tool()
    parent = [1.0, 1.2] * 5  # median 1.1, quartiles 1.0 and 1.2
    runs = (
        # 9 of 10 wins, median 0.8: better by 0.3, beyond the IQR of 0.2
        _runs("met", parent, [0.8] * 9 + [1.3])
        # 10 of 10 wins, median 1.05: better by 0.05 only
        + _runs("unmet", parent, [0.95, 1.15] * 5)
    )
    table = tool.end_to_end(runs, SPEC)
    met, unmet = table["met"]["wall_s"], table["unmet"]["wall_s"]
    assert met["change_wins"] == 9 and met["claim_met"]
    assert unmet["change_wins"] == 10 and not unmet["claim_met"]
    assert not table["met"]["ok_frac"]["claim_met"]  # ties win no pair
    lines = tool.verdicts(table)
    assert lines[0].endswith("claim_met True") and lines[2].endswith("claim_met False")


def test_second_worse_counts_pairs_whose_later_run_reads_worse():
    tool = _tool()
    runs = _runs("order", [1.0, 1.2, 1.0, 1.2], [1.2, 1.0, 1.1, 1.3], change_ok=0.9)
    for i, run in enumerate(runs):
        run["first"] = ("parent", "change")[i % 2]
    table = tool.end_to_end(runs, SPEC)["order"]
    # the later run is slower in pairs 0, 1 and 2, whichever side it was
    assert table["wall_s"]["second_worse"] == 3
    # higher is better: the change's lower ok_frac is worse when it runs second
    assert table["ok_frac"]["second_worse"] == 2
    lines = tool.verdicts({"order": table})
    assert "second_worse 3/4" in lines[0] and "second_worse 2/4" in lines[1]

"""Alternating parent/change benchmark pairs, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --seeds 71-80 \
        --out BENCH_13.json

For each workload and seed, each side's ``src``, ``perfbench``, ``configs``
and ``BENCHMARK.json`` are copied, without bytecode caches, into a fresh
temporary directory, and ``python3 perfbench/run.py --workload W --seed S
--seconds R --trace 0`` runs there, R the ``run_seconds`` of the change's
``BENCHMARK.json``; the side that runs first alternates
from pair to pair, the parent first in the first pair.  The last line of
each run (the result object) gives the end-to-end metrics and the line
before it the timed passes.

The output gets a ``runs`` block, every run of every pair, and an
``end_to_end`` block: per workload and metric, each side's median and
quartiles, ``change_vs_parent`` (change median over parent median, minus 1),
``worse_by`` (the same, sign-flipped for a metric where higher is better),
the ``BENCHMARK.json`` bound, ``within_bound``, ``change_wins`` (pairs the
change wins strictly), ``parent_spread`` (the parent's interquartile
distance over its median), ``resolved``: a metric whose parent spread
exceeds its bound is unresolved unless every change run beats every parent
run, and ``claim_met``: the change wins at least 9 of 10 pairs and its
median is better than the parent's by more than the parent's interquartile
distance, the test a claimed gain must pass, and ``second_worse``: the pairs
in which the side that ran second reads worse than the side that ran
first, whichever side that was; with no order effect it sits near half the
pairs.  Keys of an existing output file other than these blocks are kept, so
notes added by hand survive a rerun.  The file is rewritten after every
pair, and at the end one verdict line per workload and metric is printed.
Only the standard library is used, and focklab is never imported here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COPIED = ("src", "perfbench", "configs", "BENCHMARK.json")
RUN_TIMEOUT_S = 300


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _fresh_copy(tree: Path, into: Path) -> Path:
    root = into / "tree"
    root.mkdir()
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench")
    for name in COPIED:
        src = tree / name
        if src.is_dir():
            shutil.copytree(src, root / name, ignore=skip)
        else:
            shutil.copy2(src, root / name)
    return root


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run of ``tree`` in a fresh copy: its metrics, gate
    verdict, timed passes and exit code."""
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as work:
        root = _fresh_copy(tree, Path(work))
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "error": (proc.stderr or proc.stdout)[-2000:]}
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(correct=result["correct"], passes=record.get("passes"), exit=proc.returncode)
    return out


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the
    relative change of the medians and the pairs the change wins."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload
                 and "error" not in r["parent"] and "error" not in r["change"]]
        if not pairs:
            continue
        table = out[workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            parent = [r["parent"][name] for r in pairs]
            change = [r["change"][name] for r in pairs]
            p, c = _quartiles(parent), _quartiles(change)
            rel = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
            spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
            wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
            # each pair's (first run, second run)
            in_order = [(r[r["first"]][name], r["change" if r["first"] == "parent" else "parent"][name])
                        for r in pairs]
            table[name] = {
                "bound": metric["bound"], "parent": p, "change": c,
                "change_vs_parent": rel, "worse_by": sign * rel,
                "within_bound": sign * rel <= metric["bound"],
                "change_wins": wins,
                "second_worse": sum(sign * (b - a) > 0 for a, b in in_order),
                "pairs": len(pairs),
                "parent_spread": spread,
                # every change run better than every parent run
                "resolved": spread <= metric["bound"]
                or max(sign * x for x in change) < min(sign * x for x in parent),
                "claim_met": 10 * wins >= 9 * len(pairs)
                and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
            }
    return out


def verdicts(table: dict) -> list[str]:
    """One line per workload and metric of an ``end_to_end`` block."""
    lines = []
    for workload, metrics in table.items():
        for name, m in metrics.items():
            lines.append(
                f"{workload:12s} {name:12s} parent {m['parent']['median']:.4g} change {m['change']['median']:.4g}"
                f" change_vs_parent {m['change_vs_parent']:+.1%} wins {m['change_wins']}/{m['pairs']}"
                f" second_worse {m['second_worse']}/{m['pairs']}"
                f" parent_spread {m['parent_spread']:.1%} within_bound {m['within_bound']}"
                f" resolved {m['resolved']} claim_met {m['claim_met']}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="the changed tree")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload of the change's BENCHMARK.json")
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="one seed per pair: 71-80 or 3,5,8")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
    doc["protocol"] = (
        f"{len(args.seeds)} pairs per workload, seeds {args.seeds[0]}-{args.seeds[-1]}, one seed "
        "per pair; the parent runs first in the first pair and the sides alternate after it; "
        "every run in a fresh copy of its tree (" + ", ".join(COPIED) + ", no bytecode caches), "
        "sequentially on one machine; quartiles by statistics.quantiles(method='inclusive')"
    )
    runs = []
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {pair[side].get('wall_s', pair[side].get('error'))}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
            doc["runs"] = runs
            doc["end_to_end"] = end_to_end(runs, spec)
            doc["all_runs_correct"] = {
                w: all(r[s].get("correct", False) for r in runs if r["workload"] == w
                       for s in ("parent", "change"))
                for w in dict.fromkeys(r["workload"] for r in runs)
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(verdicts(doc["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

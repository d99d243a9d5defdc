"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads rate-scan fluctuation --seeds 1-10 --seconds 15
    python3 perfbench/spread.py --workloads coefficient --seeds 1-2 --trace 1 --json out.json

Each run is one ``run.py`` invocation.  For every metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median.  ``--json`` writes
every run's values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,9")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write runs and summary to this file")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(dict(result, seed=seed, run_s=took))
            print(f"{workload} seed {seed} ({took:.1f} s): correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if args.trace == 0 or not k.endswith("_s")), flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if args.trace == 0:
                print(f"{workload:12s} {name:14s} median {s['median']:.6g}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""focklab benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload rate-scan --seed 3 --seconds 15 --trace 0

Drives focklab only through ``focklab.cli.main`` on a config generated from
``configs/desk.json`` and the seed.  Every measured process is fresh and has
its BLAS pinned to one thread.  With ``--trace 0`` it reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``, ``ok_frac``); with
``--trace 1`` it runs the workload once untraced and once traced and reports
the per-layer table plus ``trace.overhead_s``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it records the seed, the environment and every
gate check.  Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_SAMPLES = 7          # fresh processes per run timing import + load_config
RUN_LIMIT_S = 170          # every child ends by then, inside the 180 s a run may take
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "blas_threads": 1,
    }


def _child(work: Path, tag: str, deadline: float, base_job: dict, **overrides) -> dict:
    job = dict(base_job, **overrides)
    job["result"] = str(work / f"{tag}.result.json")
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **PINNED)
    log_path = work / f"{tag}.log"
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{tag}: worker exited {proc.returncode}\n{tail}")
    return json.loads(Path(job["result"]).read_text())


def _outcome(result: dict) -> tuple[bool, int, int]:
    cells, checks = result["cells"], result["checks"]
    failed = sum(1 for c in cells if not c[2]) + sum(1 for c in checks if not c["ok"])
    correct = bool(checks) and all(c["ok"] for c in checks) and not result["crashes"]
    return correct, len(cells) + len(checks), failed


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "focklab" / "__init__.py").is_file():
        raise BenchError(f"no focklab sources under {ROOT / 'src'}")
    if not (ROOT / "configs" / "desk.json").is_file():
        raise BenchError(f"no desk config at {ROOT / 'configs' / 'desk.json'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(make_config(ROOT, args.workload, args.seed), indent=1))
        job = {
            "root": str(ROOT), "config": str(config_path), "workload": args.workload,
            "suites": WORKLOADS[args.workload]["suites"], "seconds": args.seconds,
            "out": str(work / "out"), "setup_only": False, "trace": False, "gate": True,
            "max_passes": 1000, "spans": str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"),
        }
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": _environment()}
        if args.trace:
            plain = _child(work, "untraced", deadline, job, max_passes=1, gate=False)
            traced = _child(work, "traced", deadline, job, max_passes=1, trace=True)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["passes"][0] - plain["passes"][0]
            result = traced
            record["untraced_wall_s"] = plain["passes"][0]
        else:
            # set-up samples before and after the main process, so that one
            # slow stretch of the machine does not set the median alone
            setups = [_child(work, f"setup{i}", deadline, job, setup_only=True)["setup_s"]
                      for i in range(SETUP_SAMPLES // 2)]
            result = _child(work, "main", deadline, job)
            setups.append(result["setup_s"])
            setups += [_child(work, f"setup{i}", deadline, job, setup_only=True)["setup_s"]
                       for i in range(len(setups), SETUP_SAMPLES)]
        correct, attempted, failed = _outcome(result)
        if not args.trace:
            metrics = {
                "wall_s": statistics.median(result["passes"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
                "ok_frac": 1.0 - failed / attempted,
            }
            record.update(passes=result["passes"], pass_cpu_s=result["pass_cpu_s"],
                          setup_samples=setups, failed_frac=failed / attempted)
        record.update(correct=correct, attempted=attempted, failed=failed,
                      checks=result["checks"], crashes=result["crashes"],
                      failed_cells=[c for c in result["cells"] if not c[2]])
        return record, {"correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record, out = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        from tracer import per_layer_metrics

        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        units = UNITS
        print(f"failed_frac = {record['failed_frac']:.6g} ratio "
              f"({out['failed']} of {out['attempted']} operations)")
    for name, value in out["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"GATE MISS {check['name']}: {check['detail']}")
    print(json.dumps(record))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in out["metrics"].items()}
    print(json.dumps(dict(out, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

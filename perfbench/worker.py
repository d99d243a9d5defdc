"""One fresh benchmark process: set-up sample, timed suite passes, gate.

Run by ``run.py`` as ``python3 perfbench/worker.py <job.json>`` with the BLAS
thread count already pinned in the environment.  The job file names the
generated config, the suites, the time to measure and where to write the
result; nothing here imports focklab before the set-up clock starts.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))

    start = perf_counter()
    import focklab
    from focklab.config import load_config

    config = load_config(job["config"])
    setup_s = perf_counter() - start
    if not Path(focklab.__file__).resolve().is_relative_to(root.resolve()):
        raise RuntimeError(f"focklab imported from {focklab.__file__}, outside {root}")
    result = {"setup_s": setup_s}
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from focklab import cli
    import gate
    from tracer import Tracer
    from workloads import suite_cells

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    out_root = Path(job["out"])
    passes, cpu, cells, crashes = [], [], [], []
    budget = float(job["seconds"])
    elapsed = 0.0
    while True:
        out = out_root / f"pass{len(passes)}"
        codes = {}
        c0 = process_time()
        t0 = perf_counter()
        for suite in job["suites"]:
            try:
                codes[suite] = cli.main([suite, "--config", job["config"], "--out", str(out)])
            except Exception:  # a crash fails the suite's cells and the gate
                codes[suite] = -1
                crashes.append(traceback.format_exc())
        wall = perf_counter() - t0
        cpu.append(process_time() - c0)
        passes.append(wall)
        elapsed += wall
        for suite in job["suites"]:
            try:
                cells += suite_cells(suite, out, config, codes[suite])
            except (OSError, KeyError, ValueError, csv.Error):  # malformed CSV output
                cells.append((suite, "output", False))
                crashes.append(traceback.format_exc())
        if len(passes) >= job["max_passes"] or elapsed >= budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    checks = [] if not job["gate"] else gate.run(job["workload"], config, out, crashed=bool(crashes))
    result.update(
        passes=passes,
        pass_cpu_s=cpu,
        peak_rss_mb=peak_rss_mb,
        cells=cells,
        checks=checks,
        crashes=crashes,
    )
    if tracer is not None:
        layers = tracer.summary()
        layers["experiments.cells"] = len(cells)
        layers["experiments.cells_failed"] = sum(1 for c in cells if not c[2])
        result["layers"] = layers
        tracer.write_spans(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

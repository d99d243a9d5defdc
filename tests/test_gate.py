"""The benchmark's correctness gate (perfbench/gate.py) run on the package.

gate.py checks a workload's CSVs against independent routes, which it
imports from the package by name.  Running every check of the three
workloads on a tiny config makes a package change that breaks one of those
routes fail here, not only when the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

from focklab.cli import main
from focklab.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _gate_module():
    sys.path.insert(0, str(PERFBENCH))  # gate.py imports read_rows from workloads.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_gate_passes_on_focklab_all(tmp_path):
    # fluctuation_dt 0.01: the moments check compares the suite with a run
    # at dt/4; the midpoint step error reads 9.7e-6 here, against 8.7e-5 at
    # dt 0.03, which is too close to the 1e-4 bound for a guard
    cfg = {
        "model": {"d": 2, "potential": {"kind": "contact", "strength": 1.0}},
        "initial_phi": {"preset": "geometric", "ratio": 0.5},
        "time": {"t_max": 0.3, "dt": 0.002, "samples": [0.0, 0.3], "fluctuation_dt": 0.01},
        "scan": {"n_values": [2, 3, 4]},
        "coefficients": {"n_values": [1, 2], "remainder_n_values": [2]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 0
    gate, config = _gate_module(), load_config(path)
    for workload in ("rate-scan", "fluctuation", "coefficient"):
        checks = gate.run(workload, config, out)
        assert checks
        for check in checks:
            assert check["ok"], f"{workload} {check['name']}: {check['detail']}"

"""Smoke test of the benchmark tracer (perfbench/tracer.py) on the package.

The tracer wraps package functions by name, so a renamed hook raises
TraceTargetMissing here rather than only when the benchmark runs.  The
counts pin the shared work: each fluctuation segment evolved once (every
midpoint column in one stacked evolution, the full kind's by one static
apply), one stacked evolution per remainder probe, and one static apply per
rate-scan segment.
"""

import importlib.util
import json
from pathlib import Path

from focklab.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_config(tmp_path, n_values, samples, remainder_n):
    cfg = {
        "model": {"d": 2, "potential": {"kind": "contact", "strength": 1.0}},
        "initial_phi": {"preset": "geometric", "ratio": 0.5},
        "time": {"t_max": 0.3, "dt": 0.002, "samples": samples, "fluctuation_dt": 0.03},
        "scan": {"n_values": n_values},
        "coefficients": {"n_values": [1, 2], "remainder_n_values": remainder_n},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _traced(path, out, suites):
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()  # raises TraceTargetMissing when a hooked name is gone
        for suite in suites:
            assert main([suite, "--config", str(path), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_tracer_installs_and_counts_shared_evolutions(tmp_path):
    n_values, samples, remainder_n = [2, 3], [0.0, 0.15, 0.3], [2]
    path = _write_config(tmp_path, n_values, samples, remainder_n)
    m = _traced(path, tmp_path / "out", ("fluctuation-suite", "coeff-suite"))
    segments = len(samples) - 1  # t=0 needs no evolution
    # every N's reduced state and the limiting state walk as the columns of
    # one stacked evolution per segment, and each remainder probe's two
    # states as one more; full is one static apply per N and segment
    expected = segments + len(remainder_n)
    assert m["fluctuations.evolutions"] == expected
    assert m["fluctuations.evolutions_distinct"] == expected
    assert m["decomposition.remainder_evolutions"] == len(remainder_n)
    assert m["propagate.static_applies"] == len(n_values) * segments
    # one Hartree flow per suite, and every ladder built with its basis
    assert m["hartree.flows"] == 2
    assert m["basis.ladder_builds"] == 0
    # one coherent state per reconstruction cell (every N is below the
    # cutoff): gauge covariance gives every quadrature node from it; the
    # fluctuation suite builds none
    assert m["weyl.coherent_states"] == len(n_values)


def test_tracer_names_rate_cells_and_counts_one_apply_per_segment(tmp_path):
    n_values, samples = [2, 3], [0.0, 0.15, 0.3]
    path = _write_config(tmp_path, n_values, samples, [2])
    m = _traced(path, tmp_path / "out", ("product-scan", "coherent-scan"))
    assert m["experiments.cell_s.product"] > 0
    assert m["experiments.cell_s.coherent"] > 0
    segments = len(samples) - 1  # t=0 needs no apply
    assert m["propagate.static_applies"] == 2 * len(n_values) * segments


def test_fluctuation_suite_runs_on_one_basis(tmp_path):
    # every probe is read off the trajectories on the suite's one basis: no
    # second basis for the conjugation residual, and one Fock Hamiltonian
    # and static propagator per N, for its full trajectory
    n_values = [2, 3]
    path = _write_config(tmp_path, n_values, [0.0, 0.15, 0.3], [2])
    m = _traced(path, tmp_path / "out", ("fluctuation-suite",))
    assert m["basis.builds"] == 1
    assert m["model.fock_h_builds"] == m["propagate.static_builds"] == len(n_values)

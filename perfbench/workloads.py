"""Workload definitions: seeded config generation and the expected suite cells.

Every workload starts from ``configs/desk.json``.  The seed draws the per-site
phases of the desk's geometric orbital (site 0 keeps phase 0; seed 0 is the
desk orbital itself), so the program only ever sees a generated config file.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from pathlib import Path

# Why each workload exists is recorded in BENCHMARK.json; in short:
#   rate-scan    static Krylov on the 12341-state space, no time-dependent
#                generator (the bypass workload for fluctuation changes);
#   fluctuation  generator assembly + midpoint Magnus at large dimension,
#                plus the Weyl-conjugation cells;
#   coefficient  the remainder probe at small dimension, where per-call
#                overhead dominates, plus exact-integer tables.
WORKLOADS = {
    "rate-scan": {
        "suites": ["hartree", "product-scan", "coherent-scan"],
        "overrides": {},
    },
    "fluctuation": {
        "suites": ["fluctuation-suite"],
        "overrides": {"time": {"t_max": 0.25, "samples": [0.0625, 0.125, 0.25]}},
    },
    "coefficient": {
        "suites": ["coeff-suite"],
        "overrides": {"coefficients": {"remainder_n_values": [2]}},
    },
}

SUITE_FILES = {
    "hartree": ["trajectory.csv"],
    "product-scan": ["product_rate.csv"],
    "coherent-scan": ["coherent_rate.csv"],
    "fluctuation-suite": ["moments.csv", "gaps.csv", "parity.csv", "conjugation.csv", "limiting.csv"],
    "coeff-suite": ["coefficients.csv", "parseval.csv", "reconstruction.csv", "remainder.csv"],
}


def seeded_orbital(d: int, ratio: float, seed: int) -> list[list[float]]:
    """Geometric amplitudes ratio**x with seeded phases, as [re, im] pairs."""
    rng = random.Random(seed)
    phases = [0.0] * d
    if seed != 0:
        phases[1:] = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(d - 1)]
    return [[ratio**x * math.cos(p), ratio**x * math.sin(p)] for x, p in enumerate(phases)]


def make_config(root: Path, workload: str, seed: int) -> dict:
    """The desk config with the workload's overrides and the seeded orbital."""
    raw = json.loads((root / "configs" / "desk.json").read_text())
    cfg = copy.deepcopy(raw)
    for group, values in WORKLOADS[workload]["overrides"].items():
        cfg.setdefault(group, {}).update(values)
    phi = cfg.get("initial_phi", {})
    if not (isinstance(phi, dict) and phi.get("preset") == "geometric"):
        raise ValueError("configs/desk.json must use the geometric initial_phi preset")
    cfg["initial_phi"] = seeded_orbital(int(cfg["model"]["d"]), float(phi.get("ratio", 0.6)), seed)
    return cfg


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _n_rows(rows, n, column="N"):
    return [r for r in rows if int(r[column]) == n]


def suite_cells(suite: str, out: Path, config, exit_code: int) -> list[tuple[str, str, bool]]:
    """(probe, cell, ok) for every cell the suite was asked to produce.

    A cell is one N of a rate scan, one probe x N of a suite, or the limiting
    scan.  A cell fails when its rows are missing (the suite recorded a
    failure), when a rate row is flagged for truncation loss, or when the
    whole suite call ended in a config or capacity error.
    """
    n_values = list(config.n_values)
    n_t = len(config.t_samples)
    files = {name: out / name for name in SUITE_FILES[suite]}
    crashed = exit_code not in (0, 3) or not all(p.exists() for p in files.values())

    def rows(name):
        return [] if crashed else read_rows(files[name])

    cells = []
    if suite == "hartree":
        ok = len(rows("trajectory.csv")) == n_t * config.model.d
        cells.append(("hartree", "trajectory", ok))
    elif suite in ("product-scan", "coherent-scan"):
        table = rows(SUITE_FILES[suite][0])
        probe = suite.split("-")[0]
        for n in n_values:
            mine = _n_rows(table, n)
            flagged = any(float(r["truncation_loss"]) >= config.truncation_loss_tol for r in mine)
            cells.append((probe, f"N={n}", len(mine) == n_t and not flagged))
    elif suite == "fluctuation-suite":
        expect = {"moments.csv": n_t, "gaps.csv": len(set(config.t_samples)),
                  "parity.csv": 1, "conjugation.csv": 1}
        for name, count in expect.items():
            table = rows(name)
            for n in n_values:
                cells.append((name[:-4], f"N={n}", len(_n_rows(table, n)) == count))
        cells.append(("limiting", "scan", len(rows("limiting.csv")) == len(n_values)))
    elif suite == "coeff-suite":
        parseval = rows("parseval.csv")
        for n in config.coeff_n_values:
            cells.append(("coefficients", f"N={n}", len(_n_rows(parseval, n)) == 1))
        recon = rows("reconstruction.csv")
        for n in [n for n in n_values if n <= _suite_m_max(config)]:
            cells.append(("reconstruction", f"N={n}", len(_n_rows(recon, n)) == 1))
        remainder = rows("remainder.csv")
        for n in config.remainder_n_values:
            cells.append(("remainder", f"N={n}", len(_n_rows(remainder, n)) == config.model.d))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return cells


def _suite_m_max(config) -> int:
    from focklab.weyl import minimal_cutoff

    if isinstance(config.m_max, str):
        return minimal_cutoff(float(max(config.n_values)), config.eps_trunc)
    return config.m_max

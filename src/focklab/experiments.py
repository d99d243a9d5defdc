"""Experiment orchestration: rate scans, fluctuation and coefficient suites,
slope fitting, and deterministic CSV emission.

Work is split into independent cells (one per scanned N, or per probe) that
may run on a thread pool; results are merged in a fixed key order before
anything is written, so identical configurations produce bit-identical CSV
files regardless of the thread count.
"""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .basis import FockVector, build_basis, number_moment
from .config import ExperimentConfig
from .decomposition import (
    expansion_coefficients,
    parseval_identity_check,
    product_norm_constant,
    reconstruct_product,
    remainder_probe,
    scaled_from_r,
)
from .errors import FockLabError, TruncationError
from .fluctuations import FluctuationOperators, displacement_residual, fluctuation_trajectory, parity_element
from .hartree import HartreeFlow, evolve_hartree, trajectory_csv_rows
from .marginals import hs_distance, marginal_from_fock, marginal_from_sector, rank_one, trace_distance
from .model import build_fock_hamiltonian, build_sector_hamiltonian, embed_product_state
from .propagate import PropagationBudget, StaticPropagator, through_times
from .weyl import coherent_state, displacement_floor, minimal_cutoff, poisson_tail

SLOPE_FLOOR = 1e-13


def _unit(phi: np.ndarray) -> np.ndarray:
    """Strip the integrator's residual mass drift before building projectors."""
    return phi / np.linalg.norm(phi)


@dataclass
class SlopeFit:
    slope: float | None
    intercept: float | None
    residual: float | None
    exact: bool
    points_used: int


def fit_loglog_slope(points) -> SlopeFit:
    """Least squares on (log N, log value); values at or below SLOPE_FLOOR
    are excluded, and an all-floor series is reported as exact rather than fit."""
    usable = [(n, v) for n, v in points if v > SLOPE_FLOOR]
    if not usable:
        return SlopeFit(None, None, None, True, 0)
    if len(usable) < 3:
        raise FockLabError(f"slope fit needs >= 3 usable points, got {len(usable)}")
    x = np.log([float(n) for n, _ in usable])
    y = np.log([float(v) for _, v in usable])
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
    return SlopeFit(float(coeffs[0]), float(coeffs[1]), rms, False, len(usable))


@dataclass
class RateScanRow:
    n: int
    t: float
    trace_distance: float
    hs_distance: float
    fitted_slope: float | None
    truncation_loss: float


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def write_csv(path: str | Path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _run_cells(cells, threads: int):
    """Evaluate callables, possibly in parallel, preserving order."""
    if threads <= 1:
        return [cell() for cell in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(cell) for cell in cells]
        return [f.result() for f in futures]


def _guarded(probe: str, label: str, fn, shared=()):
    """Suite cell of ``probe`` and of the probes that share its work: it
    returns (fn's rows by table, []), or ({}, one failure per probe) when fn
    raises a package error."""
    def run():
        try:
            return fn(), []
        except FockLabError as exc:
            msg = f"{type(exc).__name__}: {exc}"
            return {}, [(p, label, msg) for p in (probe, *shared)]

    return run


def _merge_cells(tables: dict, cells, threads: int) -> list[tuple[str, str, str]]:
    """Run guarded cells, append their rows to ``tables`` in cell order, and
    return their failures in the same order."""
    failures = []
    for rows, failed in _run_cells(cells, threads):
        for table, table_rows in rows.items():
            tables[table] += table_rows
        failures += failed
    return failures


@dataclass
class SuiteResult:
    tables: dict
    failures: list[tuple[str, str, str]]  # (probe, cell, message)

    @property
    def ok(self) -> bool:
        return not self.failures


def _rate_scan(config: ExperimentConfig, probe: str, start) -> SuiteResult:
    """Evolve each N's initial state once through the sorted sample times,
    compare its one-particle marginal with the Hartree projector, and fit
    each sample time's slope across N.

    ``start(n)`` returns the state at t = 0, its ``StaticPropagator``, the
    map from an evolved state to its marginal, and the truncation loss every
    row of that N carries.  Rows follow ``config.t_samples`` in order and
    multiplicity.  Each N is one cell.  An N whose loss reaches
    ``tolerances.truncation_loss`` keeps its rows and is one failure; a fit
    that raises leaves its time's slopes empty and is one failure."""
    flow = HartreeFlow(config.phi0, config.model, config.hartree_dt)
    targets = {t: rank_one(_unit(flow.at(t))) for t in config.t_samples}

    def cell(n):
        psi, prop, marginal, loss = start(n)
        distances = {}
        for t, psi_t in through_times(lambda psi, s, t: prop.apply(psi, t - s), psi, config.t_samples):
            gamma = marginal(psi_t)
            td = trace_distance(gamma, targets[t])
            hd = hs_distance(gamma, targets[t])
            if td > 2.0 * hd + 1e-9:  # rank-one comparisons keep the trace norm within twice the HS norm
                raise FockLabError(f"emitted distances violate trace <= 2*HS: {td} vs {hd}")
            distances[t] = (td, hd)
        return {"rate": [RateScanRow(n, t, *distances[t], None, loss) for t in config.t_samples]}

    def fit(at_t):
        slope = fit_loglog_slope([(r.n, r.trace_distance) for r in at_t]).slope
        for r in at_t:
            r.fitted_slope = slope
        return {}

    tables = {"rate": []}
    cells = [_guarded(probe, f"N={n}", lambda n=n: cell(n)) for n in config.n_values]
    failures = _merge_cells(tables, cells, config.threads)
    rows, tol = tables["rate"], config.truncation_loss_tol
    failures += [
        (probe, f"N={r.n}", f"truncation_loss {r.truncation_loss:.3g} reaches tolerances.truncation_loss {tol:.3g}")
        for r in rows[:: len(config.t_samples)]  # the first row of each N
        if r.truncation_loss >= tol
    ]
    for t in dict.fromkeys(config.t_samples):
        at_t = [r for r in rows if r.t == t]
        if len(at_t) >= 3:
            failures += _guarded(probe, f"t={t}", lambda: fit(at_t))()[1]
    return SuiteResult(tables, failures)


def run_product_rate_scan(config: ExperimentConfig) -> SuiteResult:
    """Evolve embedded product states sector by sector and compare their
    one-particle marginals with the Hartree projector."""
    model = config.model
    budget = PropagationBudget(tol=config.propagation_tol)

    def start(n):
        basis = build_basis(model.d, n, capacity=config.capacity)
        sl = basis.sector_slice(n)
        sector = build_sector_hamiltonian(model, n, capacity=config.capacity)

        def marginal(amp_sector):
            amp = np.zeros(basis.size, dtype=complex)
            amp[sl] = amp_sector
            return marginal_from_sector(FockVector(basis, amp))

        psi = embed_product_state(config.phi0, n, basis).amp[sl]
        return psi, StaticPropagator(sector.matrix, budget), marginal, 0.0

    return _rate_scan(config, "product", start)


def run_coherent_rate_scan(config: ExperimentConfig) -> SuiteResult:
    """Evolve coherent states of amplitude sqrt(N) phi0 under the full
    Hamiltonian and compare marginals with the Hartree projector.

    An N's Poisson tail beyond the cutoff is its rows' truncation loss: the
    scan builds the state whatever that tail is, reports it, and records a
    failure for the N when it reaches ``tolerances.truncation_loss``.  H
    conserves particle number, so every sector keeps its weight in time and
    the tail is the loss at every t.  Each N builds its basis on
    ``_cutoff(config, N)`` inside its cell: under ``m_max = "auto"`` that is
    ``minimal_cutoff(N, eps_trunc)``, where the tail is below ``eps_trunc``.
    An N above its cutoff is a ``TruncationError``."""
    model = config.model
    budget = PropagationBudget(tol=config.propagation_tol)

    def start(n):
        m_max = _cutoff(config, n)
        if n > m_max:
            raise TruncationError(f"N={n} exceeds the basis cutoff m_max={m_max}")
        basis = build_basis(model.d, m_max, capacity=config.capacity)
        loss = poisson_tail(float(n), m_max)
        psi = coherent_state(np.sqrt(n) * config.phi0, basis, eps_trunc=1.0)  # any tail: the rows report it
        prop = StaticPropagator(
            build_fock_hamiltonian(model, n, basis).matrix, budget, sectors=basis.sector_offsets
        )
        return psi, prop, marginal_from_fock, loss

    return _rate_scan(config, "coherent", start)


def _cutoff(config: ExperimentConfig, n: int) -> int:
    """The cutoff of a basis for N: the integer ``fock.m_max``, or else
    ``minimal_cutoff(N, eps_trunc)``."""
    if isinstance(config.m_max, str):
        return minimal_cutoff(float(n), config.eps_trunc)
    return config.m_max


def run_fluctuation_suite(config: ExperimentConfig) -> SuiteResult:
    """Number-growth moments, full-vs-reduced gaps, parity defects, the
    conjugation-identity residual with its truncation floor, and the
    limiting-dynamics gap, across the configured N scan.

    Each (kind, N) trajectory is evolved once from the vacuum through the
    sample times, on one basis: full and reduced once per N, limiting once
    per run, all along one shared Hartree flow.  The limiting state at
    t_end is taken before the cell pool; every probe is a reduction over
    those states, the conjugation residual (``displacement_residual``) over
    the full state at t_end, with its floor at the suite's cutoff.  A failed
    cell flags every probe it serves, and the suite continues; a blow-up of
    the flow stops it."""
    model = config.model
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    basis = build_basis(model.d, _cutoff(config, max(config.n_values)), capacity=config.capacity)
    ops = FluctuationOperators(model, basis)
    flow = HartreeFlow(config.phi0, model, config.hartree_dt)
    repeats = Counter(float(t) for t in config.t_samples)
    t_end = max(repeats)
    flow.at(t_end)  # a blow-up of the shared flow stops the suite here, outside every cell
    tables = {"moments": [], "gaps": [], "parity": [], "conjugation": [], "limiting": []}

    def limiting_state():
        for _, u_lim in fluctuation_trajectory(ops, "limiting", 1, flow, repeats, budget):
            pass  # only the state at t_end is kept
        return {"u_lim": u_lim}

    # the limiting trajectory does not depend on N: evolve it once, before the
    # pool; a partial trajectory gives no gap
    lim, failures = _guarded("limiting", "scan", limiting_state)()
    u_lim = lim.get("u_lim")

    def trajectory_cell(n):
        full = fluctuation_trajectory(ops, "full", n, flow, repeats, budget)
        reduced = fluctuation_trajectory(ops, "reduced", n, flow, repeats, budget)
        moments, gaps = [], []
        for (t, psi_f), (_, psi_r) in zip(full, reduced):
            moments += [("full", n, 1, t, number_moment(psi_f, 1))] * repeats[t]
            gaps.append(("full-vs-reduced", n, "", t, float(np.linalg.norm(psi_f.amp - psi_r.amp))))
        rows = {"moments": moments, "gaps": gaps, "parity": [("reduced", n, "", t_end, parity_element(psi_r))]}
        res = displacement_residual(np.sqrt(n) * flow.at(t_end), psi_f)
        rows["conjugation"] = [("conjugation", n, "", t_end, res, displacement_floor(n, basis.m_max))]
        if u_lim is not None:
            gap = float(np.linalg.norm(psi_f.amp - u_lim.amp))
            rows["limiting"] = [("full-vs-limiting", n, "", t_end, gap)]
        return rows

    cells = [
        _guarded("moments", f"N={n}", lambda n=n: trajectory_cell(n), ("gaps", "parity", "conjugation", "limiting"))
        for n in config.n_values
    ]
    failures += _merge_cells(tables, cells, config.threads)
    return SuiteResult(tables, failures)


def run_coefficient_suite(config: ExperimentConfig) -> SuiteResult:
    """Coefficient tables, the partial-sum identity, product-state
    reconstruction by phase quadrature, and the one-particle remainder.
    Each reconstruction and remainder N is one cell; a failed cell flags
    its probe, and the suite continues."""
    model = config.model
    tables = {"coefficients": [], "parseval": [], "reconstruction": [], "remainder": []}

    for n in config.coeff_n_values:
        rep = parseval_identity_check(n)
        tables["parseval"].append((n, rep.m_reached, rep.rel_error, rep.decay_constant, rep.converged))
        dn2 = product_norm_constant(n).squared
        partial = 0.0
        for m, r in enumerate(expansion_coefficients(n, min(rep.m_reached, 40))):
            am = scaled_from_r(n, m, r)
            partial += am * am
            tables["coefficients"].append((n, m, str(r), am, abs(partial - dn2) / dn2))

    basis = build_basis(model.d, _cutoff(config, max(config.n_values)), capacity=config.capacity)
    k_points = basis.m_max + 1  # the smallest alias-free quadrature
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    t_rem = max(config.t_samples)
    flow = HartreeFlow(config.phi0, model, config.hartree_dt)
    flow.at(t_rem)  # a blow-up of the shared flow stops the suite here, outside every cell

    def reconstruction_cell(n):
        _, err = reconstruct_product(config.phi0, n, k_points, basis, config.eps_trunc)
        return {"reconstruction": [(n, k_points, err)]}

    def remainder_cell(n):
        m_fn = minimal_cutoff(float(n), config.eps_trunc)
        rep = remainder_probe(flow, n, t_rem, build_basis(model.d, m_fn, capacity=config.capacity), budget)
        return {"remainder": [(n, t_rem, x, float(val), rep.total_square) for x, val in enumerate(rep.site_abs)]}

    cells = [_guarded("reconstruction", f"N={n}", lambda n=n: reconstruction_cell(n)) for n in config.n_values]
    cells += [_guarded("remainder", f"N={n}", lambda n=n: remainder_cell(n)) for n in config.remainder_n_values]
    return SuiteResult(tables, _merge_cells(tables, cells, config.threads))


def run_hartree_trajectory(config: ExperimentConfig):
    return evolve_hartree(config.phi0, config.model, config.hartree_dt, config.t_samples)


RATE_HEADER = ["N", "t", "trace_distance", "hs_distance", "fitted_slope", "truncation_loss"]

FLUCTUATION_FILES = {
    "moments": ("moments.csv", ["kind", "N", "j", "t", "moment"]),
    "gaps": ("gaps.csv", ["kind", "N", "j", "t", "gap"]),
    "parity": ("parity.csv", ["kind", "N", "j", "t", "defect"]),
    "conjugation": ("conjugation.csv", ["kind", "N", "j", "t", "residual", "floor"]),
    "limiting": ("limiting.csv", ["kind", "N", "j", "t", "gap"]),
}

COEFFICIENT_FILES = {
    "coefficients": ("coefficients.csv", ["N", "m", "R_m", "A_m", "partial_sum_residual"]),
    "parseval": ("parseval.csv", ["N", "m_reached", "rel_error", "decay_constant", "converged"]),
    "reconstruction": ("reconstruction.csv", ["N", "K", "error"]),
    "remainder": ("remainder.csv", ["N", "t", "site", "abs_value", "total_square"]),
}


def emit_rate_csv(path, rows: list[RateScanRow]):
    # a row's fields are the CSV's columns, in order
    write_csv(path, RATE_HEADER, [astuple(r) for r in sorted(rows, key=lambda r: (r.t, r.n))])


def emit_suite_csvs(out_dir, result: SuiteResult, files: dict[str, tuple[str, list[str]]]):
    # cell results arrive in submission order, so rows are already deterministic
    out = Path(out_dir)
    for table, (filename, header) in files.items():
        write_csv(out / filename, header, result.tables[table])


def emit_trajectory_csv(path, samples):
    write_csv(path, ["t", "site", "re_phi", "im_phi", "mass", "energy"], trajectory_csv_rows(samples))

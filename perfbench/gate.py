"""Correctness gate: each workload's CSVs against the repo's independent routes.

Runs after the timed passes, at the smallest scanned N (the cheapest cell
that still exercises every route).  Each check returns a dict with its
name, the measured deviation, the tolerance and whether it passed.
Tolerances compare numbers, never bytes: outputs move by ~1e-13 between
BLAS thread counts.

Tolerances, and why:
* hartree-fine-dt 1e-9: RK4 at dt and dt/4 differ by ~1e-12 at t <= 1.
* product-fock-krylov, coherent-sector-dense 1e-8: both routes are
  converged to the 1e-10 propagation tolerance and the coherent route's
  Poisson tail below eps_trunc=1e-10; the distances are O(1e-1).
* parity-defect 1e-10: exact by construction, the measured elements sit at
  the floating-point floor.
* moments-fine-dt 1e-4: midpoint Magnus at fluctuation_dt has a documented
  state error of 3.3e-5 (dt=0.01, t=1), so the moment of a correct
  second-order run moves by up to a few 1e-5 against a dt/4 reference; a
  more accurate integrator lands closer and passes too.
* rm-closed-forms, parseval: exact integers compared with ==; Parseval
  partial sums converge below the suite's own 1e-8.
* reconstruction 1e-8: the phase quadrature is exact once K > m_max; what
  remains is the coherent states' Poisson tail.
* remainder-theta0 1e-9: by gauge covariance every quadrature node of the
  remainder average equals the theta=0 term, so two evolutions reproduce
  the K-node average to round-off.
"""

from __future__ import annotations

from math import sqrt
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from workloads import read_rows


def _check(name, deviation, tol, detail=""):
    ok = bool(np.isfinite(deviation) and deviation <= tol)
    return {"name": name, "deviation": float(deviation), "tol": tol, "ok": ok,
            "detail": detail or f"deviation {deviation:.3e} against tolerance {tol:.1e}"}


def _missing(name, detail):
    return {"name": name, "deviation": float("inf"), "tol": 0.0, "ok": False, "detail": detail}


def _at(rows, n, t):
    return [r for r in rows if int(r["N"]) == n and abs(float(r["t"]) - t) < 1e-12]


def _fine_flow(config):
    from focklab.hartree import HartreeFlow

    return HartreeFlow(config.phi0, config.model, config.hartree_dt / 4)


def _unit(phi):
    return phi / np.linalg.norm(phi)


def hartree_fine_dt(config, out: Path):
    rows = read_rows(out / "trajectory.csv")
    t = max(config.t_samples)
    mine = sorted((r for r in rows if abs(float(r["t"]) - t) < 1e-12), key=lambda r: int(r["site"]))
    if len(mine) != config.model.d:
        return _missing("hartree-fine-dt", f"trajectory.csv has no full row set at t={t}")
    phi = np.array([complex(float(r["re_phi"]), float(r["im_phi"])) for r in mine])
    ref = _fine_flow(config).at(t)
    mass = max(abs(float(r["mass"]) - 1.0) for r in rows)
    return _check("hartree-fine-dt", max(float(np.max(np.abs(phi - ref))), mass), 1e-9)


def product_fock_krylov(config, out: Path, n0: int):
    """Sector marginal + dense propagation (the suite) against the Fock
    marginal + Krylov propagation of the same embedded product state."""
    from focklab.basis import FockVector, build_basis
    from focklab.marginals import marginal_from_fock, rank_one, trace_distance
    from focklab.model import build_fock_hamiltonian, embed_product_state
    from focklab.propagate import PropagationBudget, expm_apply

    rows = read_rows(out / "product_rate.csv")
    basis = build_basis(config.model.d, n0)
    psi = embed_product_state(config.phi0, n0, basis)
    h = build_fock_hamiltonian(config.model, n0, basis).matrix
    budget = PropagationBudget(tol=config.propagation_tol)
    flow = _fine_flow(config)
    worst = 0.0
    for t in config.t_samples:
        row = _at(rows, n0, t)
        if len(row) != 1:
            return _missing("product-fock-krylov", f"product_rate.csv lacks N={n0}, t={t}")
        amp = expm_apply(h, psi.amp, t, budget) if t else psi.amp
        td = trace_distance(marginal_from_fock(FockVector(basis, amp)), rank_one(_unit(flow.at(t))))
        worst = max(worst, abs(td - float(row[0]["trace_distance"])))
    return _check("product-fock-krylov", worst, 1e-8)


def coherent_sector_dense(config, out: Path, n0: int):
    """Fock marginal + Krylov on the whole space (the suite) against sector
    marginals of a sector-by-sector dense evolution on a smaller cutoff."""
    from focklab.basis import FockVector, build_basis
    from focklab.marginals import DensityMatrix, marginal_from_sector, rank_one, trace_distance
    from focklab.model import build_fock_hamiltonian
    from focklab.weyl import coherent_state, minimal_cutoff

    rows = read_rows(out / "coherent_rate.csv")
    basis = build_basis(config.model.d, minimal_cutoff(float(n0), config.eps_trunc))
    psi0 = coherent_state(sqrt(n0) * config.phi0, basis, config.eps_trunc).amp
    h = build_fock_hamiltonian(config.model, n0, basis).matrix.tocsr()
    blocks = {}
    for k in range(1, basis.m_max + 1):
        sl = basis.sector_slice(k)
        w, u = eigh(h[sl, sl].toarray())
        blocks[k] = (sl, w, u, u.conj().T @ psi0[sl])
    flow = _fine_flow(config)
    worst = 0.0
    for t in config.t_samples:
        row = _at(rows, n0, t)
        if len(row) != 1:
            return _missing("coherent-sector-dense", f"coherent_rate.csv lacks N={n0}, t={t}")
        gamma = np.zeros((config.model.d, config.model.d), dtype=complex)
        mean_n = 0.0
        for k, (sl, w, u, coef) in blocks.items():
            amp_k = u @ (np.exp(-1j * w * t) * coef)
            weight = float(np.vdot(amp_k, amp_k).real)
            if weight < 1e-300:
                continue
            vec = np.zeros(basis.size, dtype=complex)
            vec[sl] = amp_k / sqrt(weight)
            gamma += k * weight * marginal_from_sector(FockVector(basis, vec)).mat
            mean_n += k * weight
        td = trace_distance(DensityMatrix(gamma / mean_n), rank_one(_unit(flow.at(t))))
        worst = max(worst, abs(td - float(row[0]["trace_distance"])))
    return _check("coherent-sector-dense", worst, 1e-8)


def parity_defect(out: Path, n_values):
    rows = read_rows(out / "parity.csv")
    if {int(r["N"]) for r in rows} != set(n_values):
        return _missing("parity-defect", "parity.csv lacks some scanned N")
    return _check("parity-defect", max(float(r["defect"]) for r in rows), 1e-10)


def moments_fine_dt(config, out: Path, n0: int):
    """<N> along the full fluctuation dynamics at N=n0 against a reference
    with a quarter of the time step, on the cutoff sized for N=n0."""
    from focklab.basis import build_basis
    from focklab.fluctuations import number_growth_probe
    from focklab.propagate import PropagationBudget
    from focklab.weyl import minimal_cutoff

    rows = read_rows(out / "moments.csv")
    basis = build_basis(config.model.d, minimal_cutoff(float(n0), config.eps_trunc))
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt / 4)
    ref = number_growth_probe("full", config.model, n0, config.phi0, 1, config.t_samples,
                              budget, basis=basis, hartree_dt=config.hartree_dt)
    worst = 0.0
    for _, _, _, t, moment in ref:
        row = _at(rows, n0, t)
        if len(row) != 1:
            return _missing("moments-fine-dt", f"moments.csv lacks N={n0}, t={t}")
        worst = max(worst, abs(float(row[0]["moment"]) - moment))
    return _check("moments-fine-dt", worst, 1e-4)


def rm_closed_forms(config, out: Path):
    from focklab.decomposition import coeff_binomial_form, coeff_leibniz_form, expansion_coefficient

    rows = read_rows(out / "coefficients.csv")
    bad = 0
    for n in config.coeff_n_values:
        for m in range(n):
            bad += coeff_binomial_form(n, m) != coeff_leibniz_form(n, m)
    for r in rows:
        bad += int(r["R_m"]) != expansion_coefficient(int(r["N"]), int(r["m"]))
    if not rows:
        return _missing("rm-closed-forms", "coefficients.csv is empty")
    return _check("rm-closed-forms", bad, 0, f"{bad} mismatched R_m values")


def parseval(config, out: Path):
    rows = read_rows(out / "parseval.csv")
    if {int(r["N"]) for r in rows} != set(config.coeff_n_values):
        return _missing("parseval", "parseval.csv lacks some coefficient N")
    unconverged = sum(r["converged"] != "true" for r in rows)
    worst = max(float(r["rel_error"]) for r in rows)
    return _check("parseval", worst if not unconverged else float("inf"), 1e-8,
                  f"{unconverged} unconverged rows, worst relative error {worst:.3e}")


def reconstruction(out: Path):
    rows = read_rows(out / "reconstruction.csv")
    if not rows:
        return _missing("reconstruction", "reconstruction.csv is empty")
    return _check("reconstruction", max(float(r["error"]) for r in rows), 1e-8)


def remainder_theta0(config, out: Path, n0: int):
    """remainder.csv (the K-node phase average) against its theta=0 node."""
    from focklab.basis import FockVector, build_basis
    from focklab.decomposition import displaced_product_profile
    from focklab.fluctuations import FluctuationOperators, generator_family
    from focklab.hartree import HartreeFlow
    from focklab.propagate import PropagationBudget, evolve_timedep
    from focklab.weyl import minimal_cutoff

    rows = sorted((r for r in read_rows(out / "remainder.csv") if int(r["N"]) == n0),
                  key=lambda r: int(r["site"]))
    if len(rows) != config.model.d:
        return _missing("remainder-theta0", f"remainder.csv lacks N={n0}")
    model = config.model
    basis = build_basis(model.d, minimal_cutoff(float(n0), config.eps_trunc))
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    t = max(config.t_samples)
    flow = HartreeFlow(config.phi0, model, config.hartree_dt)
    gen = generator_family(FluctuationOperators(model, basis), "full", n0, flow)
    psi = displaced_product_profile(config.phi0, n0, 0.0, basis, budget)
    fwd_psi = evolve_timedep(gen, psi, 0.0, t, budget)
    fwd_vac = evolve_timedep(gen, FockVector.vacuum(basis), 0.0, t, budget)
    f = [abs(np.vdot(fwd_psi.amp, basis.annihilator(x) @ fwd_vac.amp)) for x in range(model.d)]
    worst = max(abs(float(r["abs_value"]) - f[int(r["site"])]) for r in rows)
    return _check("remainder-theta0", worst, 1e-9)


def run(workload: str, config, out: Path, crashed: bool = False) -> list[dict]:
    """Every check of the workload; a check that raises is a miss."""
    n0 = min(config.n_values)
    checks = {
        "rate-scan": [("hartree-fine-dt", lambda: hartree_fine_dt(config, out)),
                      ("product-fock-krylov", lambda: product_fock_krylov(config, out, n0)),
                      ("coherent-sector-dense", lambda: coherent_sector_dense(config, out, n0))],
        "fluctuation": [("parity-defect", lambda: parity_defect(out, config.n_values)),
                        ("moments-fine-dt", lambda: moments_fine_dt(config, out, n0))],
        "coefficient": [("rm-closed-forms", lambda: rm_closed_forms(config, out)),
                        ("parseval", lambda: parseval(config, out)),
                        ("reconstruction", lambda: reconstruction(out)),
                        ("remainder-theta0",
                         lambda: remainder_theta0(config, out, min(config.remainder_n_values)))],
    }[workload]
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a gate that cannot run is a miss, not a crash
            results.append(_missing(name, f"{type(exc).__name__}: {exc}"))
    if crashed:
        results.append(_missing("no-crash", "a suite call raised an unexpected exception"))
    return results

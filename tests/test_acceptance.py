"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Shared scan parameters use the package's default initial profile
(geometric, ratio 0.6) and a unit-strength contact potential.
"""

import math
import time

import numpy as np

import focklab as fl
from focklab.decomposition import (
    scaled_coefficient,
    product_norm_constant,
    remainder_probe,
    parseval_identity_check,
    coeff_leibniz_form,
    coeff_binomial_form,
    reconstruct_product,
)
from focklab.config import ExperimentConfig
from focklab.experiments import fit_loglog_slope, run_coherent_rate_scan
from focklab.fluctuations import (
    FluctuationOperators,
    dynamics_gap,
    evolve_fluctuation,
    conjugation_identity_residual,
    number_growth_probe,
    parity_defect,
)
from focklab.hartree import HartreeFlow, evolve_hartree
from focklab.model import Potential
from focklab.propagate import PropagationBudget, StaticPropagator
from focklab.weyl import annihilation_of, minimal_cutoff
from oracles import laguerre_times_factorial


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _geometric(d, ratio=0.6):
    phi = ratio ** np.arange(d) + 0j
    return phi / np.linalg.norm(phi)


def _contact_model(d, strength=1.0):
    return fl.LatticeModel(d, Potential.contact(d, strength))


def test_criterion_1_fock_algebra_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    basis = fl.build_basis(3, 8)
    d = basis.d
    low = basis.sector_offsets[basis.m_max - 1]  # states in sectors <= m_max - 2
    batch = rng.standard_normal((basis.size, 1000)) + 1j * rng.standard_normal((basis.size, 1000))
    batch[low:, :] = 0.0
    batch /= np.linalg.norm(batch, axis=0)

    worst_ccr = 0.0
    for x in range(d):
        ax = basis.annihilator(x)
        for y in range(d):
            ady = basis.creator(y)
            comm = ax @ (ady @ batch) - ady @ (ax @ batch)
            if x == y:
                comm = comm - batch
            worst_ccr = max(worst_ccr, float(np.max(np.abs(comm))))

    num = basis.number_diagonal()[:, None]
    worst_pull = 0.0
    for x in range(d):
        ax = basis.annihilator(x)
        worst_pull = max(
            worst_pull, float(np.max(np.abs(ax @ (num * batch) - (num + 1.0) * (ax @ batch))))
        )

    sqrt_n = np.sqrt(basis.number_diagonal())[:, None]
    sqrt_n1 = np.sqrt(basis.number_diagonal() + 1.0)[:, None]
    worst_bound = -np.inf
    for _ in range(10):
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a_f = annihilation_of(f, basis)
        nf = np.linalg.norm(f)
        lhs_a = np.linalg.norm(a_f @ batch, axis=0)
        lhs_ad = np.linalg.norm(a_f.conj().T @ batch, axis=0)
        lhs_phi = np.linalg.norm(a_f @ batch + a_f.conj().T @ batch, axis=0)
        rhs_n = nf * np.linalg.norm(sqrt_n * batch, axis=0)
        rhs_n1 = nf * np.linalg.norm(sqrt_n1 * batch, axis=0)
        worst_bound = max(
            worst_bound,
            float(np.max(lhs_a - rhs_n)),
            float(np.max(lhs_ad - rhs_n1)),
            float(np.max(lhs_phi - 2.0 * rhs_n1)),
        )
    elapsed = time.monotonic() - start
    ok = worst_ccr < 1e-12 and worst_pull < 1e-12 and worst_bound < 1e-12 and elapsed < 10.0
    _report(
        1,
        ok,
        f"CCR {worst_ccr:.2e}, pull-through {worst_pull:.2e}, "
        f"worst ladder-bound excess {worst_bound:.2e} (negative = satisfied), "
        f"{elapsed:.1f}s (< 10 s) on 1000 states",
    )


def test_criterion_2_weyl_coherent_suite():
    start = time.monotonic()
    basis = fl.build_basis(2, 30)
    budget = PropagationBudget(tol=1e-12)
    rng = np.random.default_rng(7)
    vac = fl.FockVector.vacuum(basis)
    worst = 0.0
    for trial in range(6):
        scale_f, scale_g = rng.uniform(0.5, 1.5, size=2)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f *= scale_f / np.linalg.norm(f)
        g *= scale_g / np.linalg.norm(g)

        psi_f = fl.weyl_apply(f, vac, budget)
        psi_g = fl.weyl_apply(g, vac, budget)

        # i) composition law
        lhs = fl.weyl_apply(f, psi_g, budget)
        rhs = np.exp(-1j * np.imag(np.vdot(f, g))) * fl.weyl_apply(f + g, vac, budget).amp
        worst = max(worst, float(np.linalg.norm(lhs.amp - rhs)))
        # ii) unitarity and W(f)* = W(-f)
        worst = max(worst, abs(psi_f.norm() - 1.0))
        worst = max(worst, float(np.linalg.norm(fl.weyl_apply(-f, psi_f, budget).amp - vac.amp)))
        # iii) conjugation shifts the annihilator
        probe = fl.coherent_state(0.3 * g, basis)
        for x in range(2):
            shifted = fl.weyl_apply(
                -f, fl.annihilate(x, fl.weyl_apply(f, probe, budget)), budget
            )
            direct = fl.annihilate(x, probe).amp + f[x] * probe.amp
            worst = max(worst, float(np.linalg.norm(shifted.amp - direct)))
        # iv) coherent states are annihilation eigenvectors
        eig = annihilation_of(g, basis) @ psi_f.amp - np.vdot(g, f) * psi_f.amp
        worst = max(worst, float(np.linalg.norm(eig)))
        # v) Poisson mean and variance
        lam = float(np.vdot(f, f).real)
        mean = fl.number_moment(psi_f, 1)
        var = fl.number_moment(psi_f, 2) - mean**2
        worst = max(worst, abs(mean - lam), abs(var - lam))
        # vi) overlap law
        ov = abs(psi_f.inner(psi_g)) - math.exp(-0.5 * np.linalg.norm(f - g) ** 2)
        worst = max(worst, abs(ov))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _report(2, ok, f"six displacement-operator laws, worst deviation {worst:.2e}, {elapsed:.1f}s (< 30 s)")


def test_criterion_3_hamiltonian_consistency():
    worst = 0.0
    structure_ok = True
    for d in (2, 3, 4):
        model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 1.1))
        basis = fl.build_basis(d, 6)
        for n in range(1, 7):
            fock = fl.build_fock_hamiltonian(model, n, basis)
            sl = basis.sector_slice(n)
            block = fock.matrix[sl, :][:, sl].toarray()
            sector = fl.build_sector_hamiltonian(model, n).matrix.toarray()
            worst = max(worst, float(np.max(np.abs(block - sector))))
            structure_ok &= bool(np.array_equal(block != 0.0, sector != 0.0))
    ok = worst < 1e-13 and structure_ok
    _report(
        3,
        ok,
        f"sector blocks of the second-quantized form match the direct assembly to {worst:.2e} "
        "(machine precision) with identical sparsity, d <= 4, N <= 6",
    )


def test_criterion_4_hartree_solver():
    model = _contact_model(8, 1.0)
    phi0 = _geometric(8)
    samples = evolve_hartree(phi0, model, 1e-3, np.linspace(0.0, 2.0, 9))
    mass_drift = max(abs(s.mass - 1.0) for s in samples)
    e0 = samples[0].energy.total
    energy_drift = max(abs(s.energy.total - e0) for s in samples)

    ref = HartreeFlow(phi0, model, 1e-4).at(1.0)
    err_h = np.linalg.norm(HartreeFlow(phi0, model, 0.02).at(1.0) - ref)
    err_h2 = np.linalg.norm(HartreeFlow(phi0, model, 0.01).at(1.0) - ref)
    ratio = err_h / err_h2
    ok = mass_drift < 1e-10 and energy_drift < 1e-8 and abs(ratio - 16.0) <= 4.0
    _report(
        4,
        ok,
        f"mass drift {mass_drift:.2e} (< 1e-10), energy drift {energy_drift:.2e} (< 1e-8), "
        f"halving ratio {ratio:.1f} (16 +- 4) at d=8, dt=1e-3, t in [0,2]",
    )


def test_criterion_5_marginal_equivalence():
    basis = fl.build_basis(3, 4)
    rng = np.random.default_rng(11)
    sl = basis.sector_slice(3)
    worst = 0.0
    remark3_ok = True
    target = fl.rank_one(_geometric(3))
    for _ in range(100):
        amp = np.zeros(basis.size, complex)
        block = rng.standard_normal(sl.stop - sl.start) + 1j * rng.standard_normal(sl.stop - sl.start)
        amp[sl] = block / np.linalg.norm(block)
        psi = fl.FockVector(basis, amp)
        g_trace = fl.marginal_from_sector(psi)
        g_ladder = fl.marginal_from_fock(psi)
        worst = max(worst, float(np.max(np.abs(g_trace.mat - g_ladder.mat))))
        td = fl.trace_distance(g_trace, target)
        hd = fl.hs_distance(g_trace, target)
        remark3_ok &= td <= 2.0 * hd + 1e-12
    ok = worst < 1e-12 and remark3_ok
    _report(
        5,
        ok,
        f"partial trace vs ladder kernel agree to {worst:.2e} (< 1e-12) on 100 random sector "
        "states; trace norm <= 2 x Hilbert-Schmidt on every difference",
    )


def test_criterion_6_conjugation_identity():
    start = time.monotonic()
    m_max = 32
    # Premise: the truncated algebra can resolve the identity at this cutoff.
    # On the d-site basis a(phi0) - sqrt(N) is unitarily equivalent to the
    # single-mode a - sqrt(N) cut at m_max, and at t = 0 its smallest singular
    # value, divided by sum_x |phi0(x)|, bounds the residual from below for any
    # implementation of the displacement.  At m_max = 18 sigma_min is 7.8e-4.
    single_mode = np.diag(np.sqrt(np.arange(1.0, m_max + 1)), 1) - math.sqrt(4) * np.eye(m_max + 1)
    floor = np.linalg.svd(single_mode, compute_uv=False)[-1]
    assert floor < 1e-8, f"criterion 6: truncation floor {floor:.3e} at m_max={m_max} is not below 1e-2 x 1e-6"
    model = _contact_model(3, 1.0)
    residual = conjugation_identity_residual(
        HartreeFlow(_geometric(3), model), 4, 0.5, PropagationBudget(tol=1e-11), basis=fl.build_basis(3, m_max)
    )
    elapsed = time.monotonic() - start
    ok = residual < 1e-6 and elapsed < 300.0
    _report(
        6,
        ok,
        f"conjugation-identity residual {residual:.3e} at d=3, N=4, t=0.5, m_max={m_max} "
        f"(truncation floor sigma_min(a(phi0) - sqrt(N)) = {floor:.3e}), {elapsed:.1f}s (< 5 min); "
        "required < 1e-6",
    )


def test_criterion_7_product_state_rate():
    start = time.monotonic()
    model = _contact_model(4, 1.0)
    phi0 = _geometric(4)
    budget = PropagationBudget(tol=1e-10)
    flow = HartreeFlow(phi0, model, 1e-3)
    slopes = {}
    for t in (0.5, 1.0):
        target = fl.rank_one(flow.at(t) / np.linalg.norm(flow.at(t)))
        pts = []
        for n in (2, 3, 4, 6, 8, 12):
            basis = fl.build_basis(4, n)
            psi = fl.embed_product_state(phi0, n, basis)
            sector = fl.build_sector_hamiltonian(model, n)
            sl = basis.sector_slice(n)
            amp = np.zeros(basis.size, complex)
            amp[sl] = StaticPropagator(sector.matrix, budget).apply(psi.amp[sl], t)
            gamma = fl.marginal_from_sector(fl.FockVector(basis, amp))
            pts.append((n, fl.trace_distance(gamma, target)))
        slopes[t] = fit_loglog_slope(pts).slope
    elapsed = time.monotonic() - start
    ok = all(s <= -0.5 for s in slopes.values()) and elapsed < 600.0
    _report(
        7,
        ok,
        f"product-state marginal error slopes {slopes[0.5]:.3f} (t=0.5), {slopes[1.0]:.3f} (t=1.0); "
        f"guaranteed <= -0.5, observed near -1; {elapsed:.1f}s (< 10 min)",
    )


def test_criterion_8_coherent_state_rate():
    start = time.monotonic()
    config = ExperimentConfig(
        model=_contact_model(3, 1.0), phi0=_geometric(3), t_samples=[0.5], n_values=[2, 3, 4, 6],
        propagation_tol=1e-10,
    )
    result = run_coherent_rate_scan(config)
    slope = result.tables["rate"][0].fitted_slope
    elapsed = time.monotonic() - start
    ok = abs(slope - (-1.0)) <= 0.25 and result.ok and elapsed < 600.0
    _report(8, ok, f"coherent-state marginal error slope {slope:.3f} (-1 +- 0.25); {elapsed:.1f}s (< 10 min)")


def test_criterion_9_fluctuation_probes():
    model = _contact_model(3, 1.0)
    phi0 = _geometric(3)
    budget = PropagationBudget(tol=1e-9, dt=0.01)

    parity = parity_defect(model, 4, phi0, 1.0, budget, basis=fl.build_basis(3, 16))

    basis18 = fl.build_basis(3, 18)
    gap4 = dynamics_gap(model, 4, phi0, 0.5, budget, basis=basis18)
    gap16 = dynamics_gap(model, 16, phi0, 0.5, budget, basis=basis18)
    ratio = gap16 / gap4  # N quadrupled: expect 1/2 under N^{-1/2} scaling

    basis22 = fl.build_basis(3, 22)
    moments = {
        n: number_growth_probe("full", model, n, phi0, 1, [1.0], budget, basis=basis22)[0][4]
        for n in (2, 4, 8)
    }
    spread = max(moments.values()) / min(moments.values())

    flow = HartreeFlow(phi0, model, 1e-3)
    ops = FluctuationOperators(model, basis18)
    vac = fl.FockVector.vacuum(basis18)
    u_lim = evolve_fluctuation(ops, "limiting", 1, flow, vac, 0.0, 0.5, budget)
    gaps = [
        float(np.linalg.norm(
            evolve_fluctuation(ops, "full", n, flow, vac, 0.0, 0.5, budget).amp
            - u_lim.amp
        ))
        for n in (2, 3, 4, 6, 8, 12)
    ]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))

    ok = parity < 1e-8 and abs(ratio - 0.5) <= 0.15 and spread <= 2.0 and monotone
    _report(
        9,
        ok,
        f"parity element {parity:.1e} (< 1e-8); gap(16)/gap(4) = {ratio:.3f} (0.5 +- 0.15); "
        f"first-moment spread {spread:.2f} over N in (2,4,8) (<= 2); limiting gap "
        f"monotone: {monotone}",
    )


def test_criterion_10_coefficient_suite():
    start = time.monotonic()
    dual_ok = all(coeff_binomial_form(n, m) == coeff_leibniz_form(n, m) for n in range(1, 41) for m in range(n))
    laguerre_ok = all(
        abs(coeff_binomial_form(n, m)) == abs(laguerre_times_factorial(n, m))
        for n in range(1, 41)
        for m in range(n)
    )
    parse_ok = all(parseval_identity_check(n, tol=1e-8).converged for n in range(1, 41))
    d2_ok = abs(product_norm_constant(2).squared - math.e**2 / 2.0) < 1e-12

    basis = fl.build_basis(2, 28)
    phi = _geometric(2)
    recon_ok = all(
        reconstruct_product(phi, n, basis.m_max + 1, basis)[1] < 1e-10 for n in (1, 3, 6)
    )

    # one flat-bound constant across the scan (measured ~0.95; ceiling guards regressions)
    consts = {
        n: max(abs(scaled_coefficient(n, m)) * m**0.25 for m in range(1, n + 1)) for n in (4, 8, 16, 32)
    }
    kras = max(consts.values())
    kras_ok = np.isfinite(kras) and kras < 1.2

    elapsed = time.monotonic() - start
    ok = dual_ok and laguerre_ok and parse_ok and d2_ok and recon_ok and kras_ok and elapsed < 60.0
    _report(
        10,
        ok,
        f"coefficient routes exact (N <= 40): {dual_ok}; |R_m| = m!|L| exact: {laguerre_ok}; "
        f"partial sums < 1e-8: {parse_ok}; d_2^2 = e^2/2: {d2_ok}; reconstruction < 1e-10: "
        f"{recon_ok}; flat-bound constant {kras:.3f} across N in (4,8,16,32); "
        f"{elapsed:.1f}s (< 1 min)",
    )


def test_criterion_11_remainder_boundedness():
    model = _contact_model(3, 1.0)
    phi0 = _geometric(3)
    budget = PropagationBudget(tol=1e-9, dt=0.01)

    zero_basis = fl.build_basis(3, 12)
    at_t0 = remainder_probe(HartreeFlow(phi0, model), 2, 0.0, zero_basis, budget).total_square
    free = fl.LatticeModel(3, Potential.zero(3))
    at_free = remainder_probe(HartreeFlow(phi0, free), 2, 0.5, zero_basis, budget).total_square

    totals = {}
    for n in (2, 4):
        m = minimal_cutoff(float(n), 1e-10)
        basis = fl.build_basis(3, m)
        totals[n] = remainder_probe(HartreeFlow(phi0, model), n, 0.5, basis, budget).total_square
    ratio = max(totals.values()) / min(totals.values())

    ok = at_t0 < 1e-10 and at_free < 1e-10 and ratio <= 3.0
    _report(
        11,
        ok,
        f"remainder zero at t=0 ({at_t0:.1e}) and for V=0 ({at_free:.1e}); "
        f"sum |f_N|^2 spread {ratio:.2f} over N in (2,4) (<= 3)",
    )

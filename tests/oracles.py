"""Reference constructions used only by the test suite.

The tensor-grid routines work on the full N-particle grid (d^N amplitudes)
and are kept deliberately independent of the package's occupation-number
machinery.  The fluctuation and remainder routines are the direct paths the
package replaced by exact identities or faster layouts: generators summed
term by term with sparse `+` (the truncated kind with its particle-number
indicator inserted between ladder factors), every probe evolving its own
trajectories, the conjugation residual routed through both of its sides'
shared unitary tail, the remainder's K-node phase average, the product
reconstruction summing one coherent state per quadrature node, rate
scans evolving every sample time from t = 0, and the Lanczos step that
discards an unconverged basis and bisects its interval.  The sector
expansion of the displaced product profile is the second route to that
profile.
"""

import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix, diags

from focklab.basis import FockVector, _sector_tuples, annihilate, build_basis, number_moment
from focklab.decomposition import displaced_product_profile, product_norm_constant, scaled_coefficient
from focklab.fluctuations import FluctuationOperators, evolve_fluctuation, generator_family
from focklab.hartree import HartreeFlow
from focklab.marginals import hs_distance, marginal_from_fock, marginal_from_sector, rank_one, trace_distance
from focklab.model import build_fock_hamiltonian, build_sector_hamiltonian, embed_product_state
from focklab.errors import ConvergenceError
from focklab.propagate import _BREAKDOWN, PropagationBudget, StaticPropagator, _expm_tridiag, evolve_timedep
from focklab.weyl import coherent_state, minimal_cutoff, poisson_tail, weyl_apply


def first_quantized_hamiltonian(model, n):
    """sum_j T_j + (1/N) sum_{i<j} v(x_i - x_j) as a dense d^n x d^n matrix."""
    d = model.d
    dim = d**n
    h = np.zeros((dim, dim))
    for j in range(n):
        left = np.eye(d**j)
        right = np.eye(d ** (n - j - 1))
        h += np.kron(np.kron(left, model.kinetic), right)
    diag = np.zeros(dim)
    v = model.potential.values
    for idx, xs in enumerate(itertools.product(range(d), repeat=n)):
        diag[idx] = sum(v[(xs[i] - xs[j]) % d] for i in range(n) for j in range(i + 1, n)) / n
    return h + np.diag(diag)


def symmetrizer(d, n):
    """Isometry from the sector-n occupation basis into the tensor grid.

    Column for occupation tuple m holds sqrt(prod m_x! / n!) on every
    arrangement consistent with the counts, in the package's sector order.
    """
    tuples = list(_sector_tuples(d, n))
    col_of = {t: j for j, t in enumerate(tuples)}
    s = np.zeros((d**n, len(tuples)))
    for idx, xs in enumerate(itertools.product(range(d), repeat=n)):
        counts = tuple(xs.count(site) for site in range(d))
        w = math.sqrt(
            math.prod(math.factorial(c) for c in counts) / math.factorial(n)
        )
        s[idx, col_of[counts]] = w
    return s, tuples


def tensor_partial_trace(psi_tensor, d, n):
    """One-particle marginal of a (possibly non-symmetric) n-particle vector."""
    a = psi_tensor.reshape(d, d ** (n - 1))
    return a @ a.conj().T


def lanczos_bisect(matvec, v, t, tol, m_cap, depth=0):
    """exp(-i A t) v via Lanczos; a basis that does not converge within
    ``m_cap`` vectors is discarded, and each half of t is done with tol / 2."""
    if depth > 60:
        raise ConvergenceError("Krylov substep bisection failed to converge")
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0 or t == 0.0:
        return v.copy()
    n = v.shape[0]
    m_cap = min(m_cap, n)
    vs = np.empty((m_cap, n), dtype=complex)
    vs[0] = v / beta0
    alpha = np.empty(m_cap)
    beta = np.empty(m_cap)
    y_prev = None
    scale = None
    for j in range(m_cap):
        w = matvec(vs[j])
        if j > 0:
            w -= beta[j - 1] * vs[j - 1]
        alpha[j] = np.vdot(vs[j], w).real
        w -= alpha[j] * vs[j]
        w -= vs[: j + 1].T @ (vs[: j + 1] @ w.conj()).conj()
        b = np.linalg.norm(w)
        if scale is None:
            scale = max(abs(alpha[0]), b, 1.0)
        if b <= _BREAKDOWN * scale:
            y = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            return (y * beta0) @ vs[: j + 1]
        beta[j] = b
        if j + 1 < m_cap:
            vs[j + 1] = w / b
        if j >= 3 and (j % 4 == 3 or j + 1 == m_cap):
            y = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            if y_prev is not None:
                diff = y.copy()
                diff[: len(y_prev)] -= y_prev
                if np.linalg.norm(diff) * beta0 <= tol:
                    return (y * beta0) @ vs[: j + 1]
            y_prev = y
    del vs
    half = lanczos_bisect(matvec, v, t / 2, tol / 2, m_cap, depth + 1)
    return lanczos_bisect(matvec, half, t / 2, tol / 2, m_cap, depth + 1)


def fluctuation_probe_rows(config):
    """Moments, gaps, parity and limiting rows of the fluctuation suite, each
    probe evolving its own trajectories from the vacuum (integer m_max)."""
    model = config.model
    basis = build_basis(model.d, config.m_max)
    ops = FluctuationOperators(model, basis)
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    vac = FockVector.vacuum(basis)
    t_end = max(config.t_samples)

    def flow():
        return HartreeFlow(config.phi0, model, config.hartree_dt)

    def evolve(kind, n, hartree, psi, s, t):
        return evolve_fluctuation(kind, model, n, hartree, psi, s, t, budget, ops=ops)

    rows = {"moments": [], "gaps": [], "parity": [], "limiting": []}
    for n in config.n_values:
        hartree, psi, t_prev = flow(), vac, 0.0
        for t in sorted(config.t_samples):
            psi, t_prev = evolve("full", n, hartree, psi, t_prev, t), t
            rows["moments"].append(("full", n, 1, t, number_moment(psi, 1)))
        hartree, psi_f, psi_r, t_prev = flow(), vac, vac, 0.0
        for t in sorted(set(config.t_samples)):
            psi_f = evolve("full", n, hartree, psi_f, t_prev, t)
            psi_r = evolve("reduced", n, hartree, psi_r, t_prev, t)
            t_prev = t
            rows["gaps"].append(("full-vs-reduced", n, "", t, float(np.linalg.norm(psi_f.amp - psi_r.amp))))
        u = evolve("reduced", n, flow(), vac, 0.0, t_end)
        defect = max(abs(complex(np.vdot(u.amp, basis.annihilator(x) @ u.amp))) for x in range(model.d))
        rows["parity"].append(("reduced", n, "", t_end, defect))
    hartree = flow()
    u_lim = evolve("limiting", 1, hartree, vac, 0.0, t_end)
    for n in config.n_values:
        u_n = evolve("full", n, hartree, vac, 0.0, t_end)
        rows["limiting"].append(("full-vs-limiting", n, "", t_end, float(np.linalg.norm(u_n.amp - u_lim.amp))))
    return rows


def rate_rows_from_zero(config, kind):
    """Rows (N, t, trace distance, HS distance, truncation loss, flagged) of
    the product or coherent rate scan, every sample time evolved from t = 0
    in config order.  As in the scan, every coherent state is built whatever
    its Poisson tail, which is each row's truncation loss and flags the row
    from tolerances.truncation_loss on."""
    model = config.model
    budget = PropagationBudget(tol=config.propagation_tol)
    flow = HartreeFlow(config.phi0, model, config.hartree_dt)
    targets = {t: rank_one(flow.at(t) / np.linalg.norm(flow.at(t))) for t in config.t_samples}
    if kind == "coherent":
        m_max = config.m_max
        if isinstance(m_max, str):
            m_max = minimal_cutoff(float(max(config.n_values)), config.eps_trunc)
        fock = build_basis(model.d, m_max, capacity=config.capacity)
    rows = []
    for n in config.n_values:
        if kind == "product":
            basis = build_basis(model.d, n, capacity=config.capacity)
            psi = embed_product_state(config.phi0, n, basis)
            prop = StaticPropagator(build_sector_hamiltonian(model, n, capacity=config.capacity).matrix, budget)
            sl = basis.sector_slice(n)
            loss = 0.0
        else:
            psi = coherent_state(np.sqrt(n) * config.phi0, fock, eps_trunc=1.0)
            prop = StaticPropagator(build_fock_hamiltonian(model, n, fock).matrix, budget)
            loss = poisson_tail(float(n), m_max)
        for t in config.t_samples:
            if kind == "product":
                amp = np.zeros(basis.size, dtype=complex)
                amp[sl] = prop.apply(psi.amp[sl], t)
                gamma = marginal_from_sector(FockVector(basis, amp))
            else:
                gamma = marginal_from_fock(prop.apply(psi, t))
            flagged = kind == "coherent" and loss >= config.truncation_loss_tol
            rows.append((n, t, trace_distance(gamma, targets[t]), hs_distance(gamma, targets[t]), loss, flagged))
    return rows


def remainder_phase_average(model, n, phi0, t, k_points, basis, budget, hartree_dt=1e-3):
    """f_N(x) as the K-node trapezoid over theta, every node evolving its
    own profile and vacuum under the gauge-rotated full dynamics."""
    flow = HartreeFlow(phi0, model, hartree_dt)
    ops = FluctuationOperators(model, basis)
    vac = FockVector.vacuum(basis)
    f = np.zeros(model.d, dtype=complex)
    for k in range(k_points):
        theta = 2.0 * math.pi * k / k_points
        gen = generator_family(ops, "full", n, flow, phase=-theta)
        psi = evolve_timedep(gen, displaced_product_profile(phi0, n, theta, basis, budget), 0.0, t, budget)
        fwd_vac = evolve_timedep(gen, vac, 0.0, t, budget)
        f += [np.vdot(psi.amp, basis.annihilator(x) @ fwd_vac.amp) for x in range(model.d)]
    return f / k_points


def reconstruct_by_nodes(phi, n, k_points, basis, eps_trunc=1e-10):
    """The product state d_N (1/K) sum_k e^{i theta_k N} W(e^{-i theta_k} sqrt(N) phi) vac,
    one coherent state per node, and its distance from the embedded product
    state.  K <= m_max is allowed, so the aliasing it causes shows."""
    acc = np.zeros(basis.size, dtype=complex)
    for k in range(k_points):
        theta = 2.0 * math.pi * k / k_points
        cs = coherent_state(np.exp(-1j * theta) * math.sqrt(n) * np.asarray(phi, complex), basis, eps_trunc)
        acc += np.exp(1j * theta * n) * cs.amp
    rec = FockVector(basis, product_norm_constant(n).value * acc / k_points)
    return rec, float(np.linalg.norm(rec.amp - embed_product_state(phi, n, basis).amp))


def coefficient_expansion_profile(phi, n, theta, basis):
    """The displaced product profile psi(theta) through the sector expansion
    sum_m A_m e^{-i theta (m+1)} phi^{x m}, truncated at the basis cutoff."""
    acc = np.zeros(basis.size, dtype=complex)
    for m in range(basis.m_max + 1):
        c = scaled_coefficient(n, m) * np.exp(-1j * theta * (m + 1))
        acc += c * embed_product_state(phi, m, basis).amp
    return FockVector(basis, acc)


def _ladders(basis):
    a = [basis.annihilator(x) for x in range(basis.d)]
    return a, [m.conj().T.tocsr() for m in a]


def _pair_monomials(ops):
    """Per coupled pair (x, y, v): a*_y a_x, a*_x a*_y and a*_x a*_y a_x."""
    a, ad = _ladders(ops.basis)
    for x, y, v in ops.pairs:
        exchange = (ad[y] @ a[x]).tocsr()
        yield x, y, v, exchange, (a[y] @ a[x]).conj().T.tocsr(), (ad[x] @ exchange).tocsr()


def quadratic(ops, phi):
    """Kinetic + mean field + exchange + pair creation/annihilation, summed
    term by term."""
    phi = np.asarray(phi, dtype=complex)
    mean_field = ops.model.vmat @ (np.abs(phi) ** 2)
    out = diags(ops.occupation @ mean_field).astype(complex)
    a, ad = _ladders(ops.basis)
    t = ops.model.kinetic
    for x, y in zip(*np.nonzero(t)):
        out = out + t[x, y] * (ad[x] @ a[y])
    pair_half = None
    for x, y, v, exchange, pair_create, _ in _pair_monomials(ops):
        out = out + (v * np.conj(phi[x]) * phi[y]) * exchange
        term = (0.5 * v * phi[x] * phi[y]) * pair_create
        pair_half = term if pair_half is None else pair_half + term
    if pair_half is not None:
        out = out + pair_half + pair_half.conj().T
    return out.tocsr()


def cubic(ops, phi, n):
    """N^{-1/2} sum v(x-y) a*_x (phi(y) a*_y + conj(phi(y)) a_y) a_x, summed
    term by term."""
    phi = np.asarray(phi, dtype=complex)
    scale = 1.0 / np.sqrt(n)
    half = None
    for x, y, v, _, _, cubic_create in _pair_monomials(ops):
        term = (v * phi[y]) * cubic_create
        half = term if half is None else half + term
    if half is None:
        return csr_matrix((ops.basis.size, ops.basis.size), dtype=complex)
    return (scale * (half + half.conj().T)).tocsr()


def truncated_cubic(ops, phi, n, cutoff):
    """N^{-1/2} sum v(x-y) a*_x (phi(y) chi a*_y + conj(phi(y)) a_y chi) a_x
    with chi = chi(N <= cutoff), summed term by term.  The two inserted
    terms are each other's adjoints, so the sum is Hermitian as it stands."""
    phi = np.asarray(phi, dtype=complex)
    a, ad = _ladders(ops.basis)
    chi = diags((ops.basis.totals <= cutoff).astype(float)).tocsr()
    out = csr_matrix((ops.basis.size, ops.basis.size), dtype=complex)
    for x, y, v in ops.pairs:
        out = out + (v * phi[y]) * (ad[x] @ (chi @ (ad[y] @ a[x])))
        out = out + (v * np.conj(phi[y])) * (ad[x] @ (a[y] @ (chi @ a[x])))
    return (out / np.sqrt(n)).tocsr()


def assemble_by_terms(ops, kind, n, phi, cutoff=None):
    """The generator of the requested kind, summed term by term."""
    out = quadratic(ops, phi)
    if kind == "limiting":
        return out
    out = out + diags(ops.quartic_diag / n)
    if kind == "full":
        out = out + cubic(ops, phi, n)
    elif kind == "truncated":
        out = out + truncated_cubic(ops, phi, n, cutoff)
    return out.tocsr()


def conjugation_residual_full_route(model, n, phi0, t, budget, m_max, hartree_dt=1e-3):
    """The conjugation residual with both sides back-propagated through
    their shared left factor W(-f_0) e^{iHt}."""
    basis = build_basis(model.d, m_max)
    f0 = np.sqrt(n) * np.asarray(phi0, dtype=complex)
    ft = np.sqrt(n) * HartreeFlow(phi0, model, hartree_dt).at(t)
    prop = StaticPropagator(build_fock_hamiltonian(model, n, basis).matrix, budget)
    psi2 = prop.apply(weyl_apply(f0, FockVector.vacuum(basis), budget), t)
    chi_b = weyl_apply(-ft, psi2, budget)
    worst = 0.0
    for x in range(model.d):
        lhs = annihilate(x, psi2)
        lhs.amp -= ft[x] * psi2.amp
        lhs = weyl_apply(-f0, prop.apply(lhs, -t), budget)
        rhs = weyl_apply(ft, annihilate(x, chi_b), budget)
        rhs = weyl_apply(-f0, prop.apply(rhs, -t), budget)
        worst = max(worst, float(np.linalg.norm(lhs.amp - rhs.amp)))
    return worst

"""Reference constructions used only by the test suite.

The tensor-grid routines work on the full N-particle grid (d^N amplitudes)
and are kept deliberately independent of the package's occupation-number
machinery.  The fluctuation and remainder routines are the direct paths the
package replaced by exact identities or faster layouts: generators summed
term by term with sparse `+` on the whole basis (for the parity-conserving
kinds, which the package lays out on the even sectors only), the evolution
on the whole basis, every probe evolving its own
trajectories, the conjugation residual routed through both of its sides'
shared unitary tail, the remainder's K-node phase average, the product
reconstruction summing one coherent state per quadrature node, rate
scans evolving every sample time from t = 0, the Lanczos step that
discards an unconverged basis and bisects its interval, the Lanczos
substep that orthogonalizes every new vector against its whole basis, and
the one that checks convergence only at every 4th dimension, and the
Hartree RK4 step on numpy arrays, which the scalar kernel replaced, and
the Krylov exponential of the compressed Weyl generator (built from the
smeared annihilator ``annihilation_of``), which the mode rotation
replaced, and the mode rotation's single-vector block pass, which the
stacked one replaced, and its apply with the blocks and phases of each
f built for that apply, which the Weyl frames replaced.  H_N assembled
per N from ladder products, and centred per N, is the oracle of its fill
from per-basis parts, and the conjugated route on the whole basis, with
W(f_0) vac by a whole apply, is the oracle of the one on the leading
sectors.  The midpoint trajectory of one (kind, N) pair at a time, with
the generator of its own kind assembled at every step on its own window,
is the oracle of the stacked walk that evolves every column sharing a
generator family at once.  The counting sort by position that laid out a generator
layout's term map is the oracle of its one COO to CSR conversion, and
Simpson's rule on the numpy Hartree nodes that of the phase g(t) the
flow's RK4 carries.  The sector expansion of the displaced product
profile is the second route to that profile, and the Laguerre sum the
second closed form of R_m.  The 60-digit mpmath routes are the package's
former arithmetic for the scaled coefficients A_m and the Parseval partial
sums, and the Poisson tail summed term by term at 60 digits is the exact
reference for ``poisson_tail``.
"""

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix, diags

from focklab.basis import FockVector, _sector_tuples, annihilate, build_basis, number_moment
from focklab.decomposition import (
    MP_DPS,
    coeff_leibniz_form,
    displaced_product_profile,
    product_norm_constant,
    scaled_coefficient,
)
from focklab.fluctuations import (
    FluctuationOperators,
    SectorWindow,
    _placed,
    check_truncation,
    evolve_fluctuation,
    generator_family,
)
from focklab.hartree import HartreeFlow
from focklab.marginals import hs_distance, marginal_from_fock, marginal_from_sector, rank_one, trace_distance
from focklab.model import build_sector_hamiltonian, embed_product_state, interaction_diagonal
from focklab.errors import ConvergenceError
from focklab.propagate import (
    _BREAKDOWN,
    _ESTIMATE_FLOOR,
    _NON_FINITE,
    PropagationBudget,
    StaticPropagator,
    _centre_sectors,
    _converged_iterate,
    _expm_tridiag,
    _lanczos_vector,
    _norm,
    _phase_floor,
    _resolved_fraction,
    evolve_timedep,
    expm_apply,
    through_times,
)
from focklab.weyl import coherent_state, displacement_floor, minimal_cutoff, poisson_tail, weyl_apply


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


def hartree_rhs_numpy(phi, model):
    """-i [ T phi + (v (*) |phi|^2) . phi ] on numpy arrays."""
    mean_field = model.vmat @ (np.abs(phi) ** 2)
    return -1j * (model.kinetic @ phi + mean_field * phi)


def rk4_step_numpy(phi, h, model):
    k1 = hartree_rhs_numpy(phi, model)
    k2 = hartree_rhs_numpy(phi + 0.5 * h * k1, model)
    k3 = hartree_rhs_numpy(phi + 0.5 * h * k2, model)
    k4 = hartree_rhs_numpy(phi + h * k3, model)
    return phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def hartree_nodes_numpy(phi0, model, h, n_steps):
    """phi at 0, h, ..., n_steps h: the grid nodes of ``HartreeFlow`` (h = +-dt)."""
    nodes = [np.asarray(phi0, dtype=complex)]
    for _ in range(n_steps):
        nodes.append(rk4_step_numpy(nodes[-1], h, model))
    return nodes


def hartree_at_numpy(phi0, model, dt, t):
    """phi_t on ``HartreeFlow``'s grid: the node floor(t/dt), then equal
    steps of size <= dt over the rest."""
    k = math.floor(t / dt)
    phi = hartree_nodes_numpy(phi0, model, dt if k >= 0 else -dt, abs(k))[-1]
    span = t - k * dt
    if span:
        n_steps = max(1, math.ceil(abs(span) / dt))
        for _ in range(n_steps):
            phi = rk4_step_numpy(phi, span / n_steps, model)
    return phi


def mean_field_phase_simpson(phi0, model, dt, t):
    """g(t) = (1/2) int_0^t sum_xy v(x-y) |phi_s(x)|^2 |phi_s(y)|^2 ds by
    composite Simpson on the numpy RK4 nodes of an even number of equal
    steps of at most dt/2."""
    steps = 2 * max(1, math.ceil(abs(t) / dt))
    h = t / steps
    energies = [0.5 * np.abs(p) ** 2 @ model.vmat @ np.abs(p) ** 2 for p in hartree_nodes_numpy(phi0, model, h, steps)]
    return h / 3 * (energies[0] + energies[-1] + 4 * sum(energies[1:-1:2]) + 2 * sum(energies[2:-1:2]))


def conjugated_state_dense(model, n, phi0, t, basis, budget, hartree_dt=1e-3):
    """U_N(t;0) vac of the full kind by the Weyl conjugation identity
    e^{-iN g(t)} W(-f_t) e^{-iH_N t} W(f_0) vac, each factor by a second
    route: e^{-iH_N t} by a dense eigendecomposition of each number sector
    of H_N, W by the Krylov exponential of its generator (to budget.tol),
    phi_t by the numpy RK4 and g by ``mean_field_phase_simpson``."""
    h = fock_hamiltonian_by_ladders(model, n, basis)
    amp = weyl_apply_krylov(np.sqrt(n) * np.asarray(phi0, dtype=complex), FockVector.vacuum(basis), budget).amp
    for k in range(basis.m_max + 1):
        sector = basis.sector_slice(k)
        w, u = eigh(h[sector, sector].toarray())
        amp[sector] = u @ (np.exp(-1j * w * t) * (u.conj().T @ amp[sector]))
    ft = np.sqrt(n) * hartree_at_numpy(phi0, model, hartree_dt, t)
    xi = weyl_apply_krylov(-ft, FockVector(basis, amp), budget)
    xi.amp *= np.exp(-1j * n * mean_field_phase_simpson(phi0, model, hartree_dt, t))
    return xi


def fock_hamiltonian_by_ladders(model, n, basis):
    """H_N = T + V/N on the whole basis, assembled per N from ladder
    products: the hopping as d products a*_x (sum_y t_xy a_y) summed with
    sparse ``+``, plus diags(V / N).  The sums drop zero entries, so the
    vacuum's diagonal is not stored."""
    t = model.kinetic
    hop = csr_matrix((basis.size, basis.size), dtype=t.dtype)
    for x in range(model.d):
        lowered = [t[x, y] * basis.annihilator(y) for y in range(model.d) if t[x, y] != 0.0]
        if lowered:
            hop = hop + basis.creator(x) @ sum(lowered[1:], lowered[0])
    return (hop + diags(interaction_diagonal(basis.states, model) / n)).tocsr()


def centred_fock_hamiltonian(model, n, basis):
    """(H_N - F_N, f) on the whole basis by the per-N route: H_N assembled
    from ladder products (``fock_hamiltonian_by_ladders``), then centred on
    its number sectors as ``StaticPropagator`` centres it."""
    op, centres, _ = _centre_sectors(fock_hamiltonian_by_ladders(model, n, basis), basis.sector_offsets)
    return op, centres


def conjugated_trajectory_whole_basis(ops, n, flow, times, budget):
    """(t, xi) of the conjugated route on the whole basis: H_N assembled
    from ladder products (``fock_hamiltonian_by_ladders``) and centred per
    N, W applied by ``weyl_apply`` with its blocks built per apply, and W(f_0)
    vac by a whole apply."""
    basis = ops.basis
    prop = StaticPropagator(fock_hamiltonian_by_ladders(ops.model, n, basis), budget, sectors=basis.sector_offsets)
    root = np.sqrt(n)
    vacuum = FockVector.vacuum(basis)
    for t, psi in through_times(lambda psi, s, t: prop.apply(psi, t - s), weyl_apply(root * flow.at(0.0), vacuum), times):
        if t == 0.0:
            yield t, vacuum.copy()
            continue
        xi = weyl_apply(-root * flow.at(t), psi)
        xi.amp *= np.exp(-1j * n * flow.phase(t))
        check_truncation(xi.amp, ops.space("full"))
        yield t, xi


def lanczos_bisect(matvec, v, t, tol, m_cap, depth=0):
    """exp(-i A t) v via Lanczos on the package's recurrence and stopping
    rule; a basis that does not converge within ``m_cap`` vectors is
    discarded, and each half of t is done with tol / 2."""
    if depth > 60:
        raise ConvergenceError("Krylov substep bisection failed to converge")
    beta0 = _norm(v)
    if beta0 == 0.0 or t == 0.0:
        return v.copy()
    n = v.shape[0]
    m_cap = min(m_cap, n)
    vs = np.empty((m_cap, n), dtype=complex)
    np.multiply(v, 1.0 / beta0, out=vs[0])
    alpha = np.empty(m_cap)
    beta = np.empty(m_cap)
    scratch = np.empty(n, dtype=complex)
    recent = []
    scale = None
    for j in range(m_cap):
        w, alpha[j], b = _lanczos_vector(matvec, vs, beta, j, scratch)
        if scale is None:
            scale = max(abs(alpha[0]), b, 1.0)
        if b <= _BREAKDOWN * scale:
            y, _ = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            return (y * beta0) @ vs[: j + 1]
        beta[j] = b
        if j + 1 < m_cap:
            np.multiply(w, 1.0 / b, out=vs[j + 1])
        y = _converged_iterate(alpha, beta, j + 1, t, tol / beta0, recent)
        if y is not None:
            return (y * beta0) @ vs[: j + 1]
    del vs
    half = lanczos_bisect(matvec, v, t / 2, tol / 2, m_cap, depth + 1)
    return lanczos_bisect(matvec, half, t / 2, tol / 2, m_cap, depth + 1)


def lanczos_full_reorth(matvec, v, t, tol, m_cap):
    """exp(-i A t) v by the package's substep loop and stopping rule, with
    every new Lanczos vector orthogonalized against the whole basis, so the
    basis stays orthonormal to machine precision."""
    return _substeps(matvec, v, t, tol, m_cap, True, _converged_iterate)


def lanczos_stride4(matvec, v, t, tol, m_cap):
    """exp(-i A t) v by the package's substep loop on the recurrence with one
    local pass, with convergence checked only at every 4th dimension (and at
    m_cap) against the dimension checked before: the stopping rule the
    package used before it checked every dimension."""
    return _substeps(matvec, v, t, tol, m_cap, False, _stride4_iterate)


def _substeps(matvec, v, t, tol, m_cap, full_reorth, converged):
    """``_lanczos_step``'s loop over ``_reference_substep``."""
    if t == 0.0:
        return v.copy()
    rest = t
    while True:
        v, frac = _reference_substep(matvec, v, rest, tol * (rest / t), m_cap, full_reorth, converged)
        if frac == 1.0:
            return v
        rest -= frac * rest


def _stride4_iterate(alpha, beta, dim, t, tol, recent):
    """``_converged_iterate``'s contract on the stride-4 schedule: an iterate
    at dimensions 4, 8, ... and len(alpha), each compared with the last."""
    if dim < 4 or (dim % 4 and dim != len(alpha)):
        return None
    y, w_max = _expm_tridiag(alpha[:dim], beta[: dim - 1], t)
    prev = recent.pop() if recent else None
    recent.append(y)
    if prev is not None:
        diff = y.copy()
        diff[: len(prev)] -= prev
        if np.linalg.norm(diff) <= max(tol, _phase_floor(w_max, t)):
            return y
    return None


def _reference_substep(matvec, v, t, tol, m_cap, full_reorth, converged):
    """The package's substep with its recurrence written out independently
    (temporaries, ``np.linalg.norm``, division by beta), the orthogonalizing
    pass over the whole basis when ``full_reorth``, and the stopping rule
    ``converged``."""
    beta0 = np.linalg.norm(v)
    if not math.isfinite(beta0):
        raise ConvergenceError(_NON_FINITE)
    if beta0 == 0.0:
        return v.copy(), 1.0
    tol = max(tol, _ESTIMATE_FLOOR * beta0)
    n = v.shape[0]
    m_cap = min(m_cap, n)
    vs = np.empty((m_cap, n), dtype=complex)
    vs[0] = v / beta0
    alpha = np.empty(m_cap)
    beta = np.empty(m_cap)
    recent = []
    scale = None
    for j in range(m_cap):
        w = matvec(vs[j])
        if j > 0:
            w -= beta[j - 1] * vs[j - 1]
        alpha[j] = np.vdot(vs[j], w).real
        w -= alpha[j] * vs[j]
        if full_reorth:
            # (V conj(w))* equals V* w and does not copy the basis V
            w -= vs[: j + 1].T @ (vs[: j + 1] @ w.conj()).conj()
        else:
            w -= np.vdot(vs[j], w) * vs[j]
        b = np.linalg.norm(w)
        if not (math.isfinite(alpha[j]) and math.isfinite(b)):
            raise ConvergenceError(_NON_FINITE)
        if scale is None:
            scale = max(abs(alpha[0]), b, 1.0)
        if b <= _BREAKDOWN * scale:
            y, _ = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            return (y * beta0) @ vs[: j + 1], 1.0
        beta[j] = b
        if j + 1 < m_cap:
            vs[j + 1] = w / b
        y = converged(alpha, beta, j + 1, t, tol / beta0, recent)
        if y is not None:
            return (y * beta0) @ vs[: j + 1], 1.0
    frac, y = _resolved_fraction(alpha, beta[: m_cap - 1], 4 * ((m_cap - 1) // 4), t, tol / beta0)
    return (y * beta0) @ vs, frac


def annihilation_of(f, basis):
    """a(f) = sum_x conj(f_x) a_x (antilinear in f), as a sparse matrix."""
    f = np.asarray(f, dtype=complex)
    out = csr_matrix((basis.size, basis.size), dtype=complex)
    for x in range(basis.d):
        if f[x] != 0:
            out = out + np.conj(f[x]) * basis.annihilator(x)
    return out.tocsr()


def weyl_generator(f, basis):
    """The skew-Hermitian a*(f) - a(f)."""
    a = annihilation_of(f, basis)
    return (a.conj().T - a).tocsr()


def weyl_apply_krylov(f, psi, budget):
    """W(f) psi = exp(a*(f) - a(f)) psi by the Krylov exponential of the
    compressed generator, to ``budget.tol``."""
    f = np.asarray(f, dtype=complex)
    if not np.any(f):
        return psi.copy()
    h = (1j * weyl_generator(f, psi.basis)).tocsr()  # Hermitian; exp(S) = exp(-i H) with H = iS
    return FockVector(psi.basis, expm_apply(h, psi.amp, 1.0, budget))


def mode_rotation_apply(rotation, f, amp):
    """W(f) amp by the mode rotation with its blocks and phases computed for
    this one apply: the route ``weyl.WeylFrame`` split into a frame built
    once per orbital and an apply per scale."""
    mags = np.abs(f)
    norm = float(np.linalg.norm(mags))
    u = mags / norm
    tails = np.sqrt(np.cumsum(u[::-1] ** 2)[::-1])
    betas = np.arctan2(tails[1:], u[:-1])
    powers = np.exp(1j * np.outer(np.angle(f), np.arange(rotation._m_max + 1)))
    phase = powers[0][rotation._sites[0]]
    for x in range(1, len(rotation._sites)):
        phase *= powers[x][rotation._sites[x]]
    phase = phase.reshape(phase.shape + (1,) * (amp.ndim - 1))
    rotations = [(plane, rotation._rotation.blocks(beta)) for plane, beta in zip(rotation._planes, betas) if beta != 0.0]
    amp = amp * phase.conj()
    for plane, blocks in reversed(rotations):
        amp = plane.apply(blocks, amp, inverse=True)
    amp = rotation._shift.apply(rotation._displacement.blocks(norm), amp)
    for plane, blocks in rotations:
        amp = plane.apply(blocks, amp)
    return amp * phase


def block_pass_per_vector(self, blocks, amp, inverse=False):
    """``weyl._BlockPass.apply`` on one vector only, each size's amplitudes
    viewed as (s x 2 count): the layout the stacked pass generalized."""
    src = amp[self.order]
    dst = np.empty_like(src)
    at = 0
    for size, (count, block) in enumerate(zip(self.counts, blocks), start=1):
        end = at + size * count
        x = src[at:end].view(np.float64).reshape(size, 2 * count)
        y = dst[at:end].view(np.float64).reshape(size, 2 * count)
        np.matmul(block.T if inverse else block, x, out=y)
        at = end
    out = np.empty_like(amp)
    out[self.order] = dst
    return out


def scaled_coefficient_mp(n: int, m: int) -> float:
    """A_m = R_m / (sqrt(m!) N^{m/2}) in mpmath at MP_DPS digits, R_m by the Leibniz form."""
    r = coeff_leibniz_form(n, m)
    if r == 0:
        return 0.0
    with mpmath.workdps(MP_DPS):
        val = mpmath.mpf(abs(r)) / (mpmath.sqrt(mpmath.factorial(m)) * mpmath.mpf(n) ** (mpmath.mpf(m) / 2))
        return (1.0 if r > 0 else -1.0) * float(val)


def parseval_sum_mp(n: int, tol: float = 1e-8, m_cap: int | None = None) -> tuple[int, float]:
    """(m_reached, rel_error) of the partial sums of R_m^2 / (N^m m!) against
    d_N^2 = e^N N! / N^N, accumulated in mpmath at MP_DPS digits."""
    if m_cap is None:
        m_cap = 8 * n + 80
    with mpmath.workdps(MP_DPS):
        target = mpmath.e**n * mpmath.factorial(n) / mpmath.mpf(n) ** n
        partial = mpmath.mpf(0)
        for m in range(m_cap + 1):
            r = coeff_leibniz_form(n, m)
            partial += mpmath.mpf(r * r) / (mpmath.mpf(n) ** m * mpmath.factorial(m))
            rel = float(abs(partial - target) / target)
            if rel < tol:
                return m, rel
        return m_cap, rel


def poisson_tails_mp(lam: float, m_top: int) -> list[float]:
    """P(X > m) for X ~ Poisson(lam) and m = 0..m_top, from the lower sums at
    MP_DPS digits, where 1 minus a sum loses nothing above 1e-50."""
    with mpmath.workdps(MP_DPS):
        lam = mpmath.mpf(lam)
        term, cdf, tails = mpmath.exp(-lam), mpmath.mpf(0), []
        for k in range(m_top + 1):
            cdf += term
            tails.append(float(1 - cdf))
            term *= lam / (k + 1)
        return tails


def laguerre_times_factorial(n: int, m: int) -> int:
    """m! L_m^{(N-m-1)}(N) from the standard finite-sum representation of the
    associated Laguerre polynomial; exact integer for m <= N-1."""
    if not 0 <= m <= n - 1:
        raise ValueError("requires 0 <= m <= N-1 so the index N-m-1 is >= 0")
    total = 0
    for k in range(m + 1):
        falling = 1
        for i in range(m - k):
            falling *= n - 1 - i
        total += (-1) ** k * math.comb(m, k) * falling * n**k
    return total


def fluctuation_probe_rows(config):
    """Moments, gaps, parity, conjugation and limiting rows of the fluctuation
    suite, each probe evolving its own trajectories from the vacuum (integer
    m_max): every full state by ``conjugated_state_dense`` from t = 0 (its
    Weyl operators to 1e-12), the reduced and limiting ones by the midpoint
    rule on the whole basis.  The conjugation residual is read off the full
    state at t_end site by site, W(f_t) applied once per vector."""
    model = config.model
    basis = build_basis(model.d, config.m_max)
    ops = FluctuationOperators(model, basis)
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    vac = FockVector.vacuum(basis)
    t_end = max(config.t_samples)

    def flow():
        return HartreeFlow(config.phi0, model, config.hartree_dt)

    def evolve(kind, n, hartree, psi, s, t):
        return evolve_fluctuation(ops, kind, n, hartree, psi, s, t, budget)

    def full(n, t):
        return conjugated_state_dense(model, n, config.phi0, t, basis, PropagationBudget(tol=1e-12), config.hartree_dt)

    rows = {"moments": [], "gaps": [], "parity": [], "conjugation": [], "limiting": []}
    for n in config.n_values:
        for t in sorted(config.t_samples):
            rows["moments"].append(("full", n, 1, t, number_moment(full(n, t), 1)))
        hartree, psi_r, t_prev = flow(), vac, 0.0
        for t in sorted(set(config.t_samples)):
            psi_r, t_prev = evolve("reduced", n, hartree, psi_r, t_prev, t), t
            rows["gaps"].append(("full-vs-reduced", n, "", t, float(np.linalg.norm(full(n, t).amp - psi_r.amp))))
        u = evolve("reduced", n, flow(), vac, 0.0, t_end)
        defect = max(abs(complex(np.vdot(u.amp, basis.annihilator(x) @ u.amp))) for x in range(model.d))
        rows["parity"].append(("reduced", n, "", t_end, defect))
    hartree = flow()
    u_lim = evolve("limiting", 1, hartree, vac, 0.0, t_end)
    for n in config.n_values:
        u_n = full(n, t_end)
        rows["limiting"].append(("full-vs-limiting", n, "", t_end, float(np.linalg.norm(u_n.amp - u_lim.amp))))
        ft = np.sqrt(n) * hartree.at(t_end)
        psi2 = weyl_apply(ft, u_n)
        worst = 0.0
        for x in range(model.d):
            lhs = annihilate(x, psi2).amp - ft[x] * psi2.amp
            rhs = weyl_apply(ft, annihilate(x, u_n)).amp
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        rows["conjugation"].append(("conjugation", n, "", t_end, worst, displacement_floor(n, config.m_max)))
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
            h = fock_hamiltonian_by_ladders(model, n, fock)
            loss = poisson_tail(float(n), m_max)
        for t in config.t_samples:
            if kind == "product":
                amp = np.zeros(basis.size, dtype=complex)
                amp[sl] = prop.apply(psi.amp[sl], t)
                gamma = marginal_from_sector(FockVector(basis, amp))
            else:
                # the Krylov route on the raw H, not the scan's centred one
                gamma = marginal_from_fock(FockVector(fock, expm_apply(h, psi.amp, t, budget)))
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


def _coupled_pairs(model):
    """Every ordered site pair (x, y) the potential couples, with v(x - y)."""
    d, v = model.d, model.potential.values
    return [(x, y, v[(x - y) % d]) for x in range(d) for y in range(d) if v[(x - y) % d] != 0.0]


def _pair_monomials(ops):
    """Per coupled ordered pair (x, y, v): a*_y a_x, a*_x a*_y and a*_x a*_y a_x."""
    a, ad = _ladders(ops.basis)
    for x, y, v in _coupled_pairs(ops.model):
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


def assemble_by_terms(ops, kind, n, phi):
    """The generator of the requested kind on the whole basis, summed term by
    term from ladder products (the package lays ``reduced`` and ``limiting``
    out on the even sectors only)."""
    out = quadratic(ops, phi)
    if kind == "limiting":
        return out
    out = out + diags(ops.quartic_diag / n)
    if kind == "full":
        out = out + cubic(ops, phi, n)
    return out.tocsr()


def layout_terms(ops, kind):
    """The terms ``ops``' layout of ``kind`` holds, in its order: the
    quadratic monomials restricted to the even sectors for ``reduced``, and
    with the cubic ones and their adjoints on the whole basis for ``full``."""
    if kind == "reduced":
        keep = ops.space(kind).positions
        return [m[keep][:, keep] for m in ops._quadratic()]
    a, ad = ops._ladders()
    cubic = [ad[x] @ (ad[y] @ a[x]) for x, y in zip(*ops._cubic_sites)]
    return ops._quadratic() + cubic + [m.T for m in cubic]


def term_map_by_counting_sort(terms, layout):
    """The term map of ``layout`` laid out by a counting sort by position:
    each term placed twice, once to count its positions and once to write
    its values, each position's terms in ascending order.  The package
    builds the same CSR arrays by one COO to CSR conversion."""
    dim = layout.shape[0]
    keys = np.repeat(np.arange(dim, dtype=np.int64), np.diff(layout.indptr)) * dim + layout.indices
    rows = np.zeros(len(keys) + 1, dtype=np.int32)
    for term in terms:
        rows[_placed(term, keys)[1] + 1] += 1
    rows = np.cumsum(rows, dtype=np.int32)
    free = rows[:-1].copy()
    data = np.empty(rows[-1], dtype=complex)
    cols = np.empty(rows[-1], dtype=np.int32)
    for k, term in enumerate(terms):
        values, positions = _placed(term, keys)
        slots = free[positions]
        data[slots] = values
        cols[slots] = k
        free[positions] += 1
    return csr_matrix((data, cols, rows), shape=(len(keys), len(terms)))


def fluctuation_trajectory_per_n(ops, kind, n, flow, times, budget):
    """Yield (t, U(t;0) vacuum) of one (kind, N) pair at each distinct
    sample time, in increasing order, as vectors on ``ops.basis``: one
    ``evolve_timedep`` call per segment under the generator family of that
    kind and N, on the leading sectors of ``ops.space(kind)`` the state
    occupies (its own ``SectorWindow``), and the truncation check after
    every segment, which raises."""
    space = ops.space(kind)
    window = SectorWindow(space, budget.tol)

    def advance(amp, s, t):
        gen = generator_family(ops, kind, n, flow, window=window)
        amp = evolve_timedep(gen, amp, s, t, budget, widen=window.widen)
        check_truncation(amp, space)
        return amp

    vacuum = np.zeros(window.dim, dtype=complex)
    vacuum[0] = 1.0
    for t, amp in through_times(advance, vacuum, times):
        yield t, space.embed(amp)


def evolve_whole_basis(ops, kind, n, flow, psi, t, budget):
    """U(t;0) psi on the whole basis, with the generator summed term by term
    (``assemble_by_terms``) at every midpoint and no window."""
    return evolve_timedep(lambda s: assemble_by_terms(ops, kind, n, flow.at(s)), psi, 0.0, t, budget)


def conjugation_residual_full_route(model, n, phi0, t, budget, m_max, hartree_dt=1e-3):
    """The conjugation residual with both sides back-propagated through
    their shared left factor W(-f_0) e^{iHt}."""
    basis = build_basis(model.d, m_max)
    f0 = np.sqrt(n) * np.asarray(phi0, dtype=complex)
    ft = np.sqrt(n) * HartreeFlow(phi0, model, hartree_dt).at(t)
    h = fock_hamiltonian_by_ladders(model, n, basis)

    def prop(psi, t):  # the Krylov route on the raw H, not the cell's centred one
        return FockVector(basis, expm_apply(h, psi.amp, t, budget))

    psi2 = prop(weyl_apply(f0, FockVector.vacuum(basis)), t)
    chi_b = weyl_apply(-ft, psi2)
    worst = 0.0
    for x in range(model.d):
        lhs = annihilate(x, psi2)
        lhs.amp -= ft[x] * psi2.amp
        lhs = weyl_apply(-f0, prop(lhs, -t))
        rhs = weyl_apply(ft, annihilate(x, chi_b))
        rhs = weyl_apply(-f0, prop(rhs, -t))
        worst = max(worst, float(np.linalg.norm(lhs.amp - rhs.amp)))
    return worst

import numpy as np
import pytest
from scipy.linalg import eigh, expm
from scipy.sparse import csr_matrix, diags, random as sparse_random

import focklab as fl
import focklab.propagate as propagate
from focklab.errors import ConvergenceError
from focklab.fluctuations import FluctuationOperators, evolve_fluctuation, generator_family
from focklab.hartree import HartreeFlow
from focklab.model import HamiltonianParts, Potential
from focklab.propagate import (
    DENSE_CUTOFF,
    KRYLOV_DIM,
    PropagationBudget,
    StaticPropagator,
    _lanczos_step,
    evolve_timedep,
    expm_apply,
    through_times,
)
from focklab.weyl import coherent_state
from oracles import fock_hamiltonian_by_ladders, lanczos_bisect, lanczos_full_reorth, lanczos_stride4, weyl_generator
from test_fluctuations import _flux_kinetic


def _random_hermitian(dim, seed, density=0.1, scale=1.0):
    rng = np.random.default_rng(seed)
    m = sparse_random(dim, dim, density=density, random_state=rng, dtype=float)
    m = m + 1j * sparse_random(dim, dim, density=density, random_state=rng, dtype=float)
    h = (m + m.conj().T) * (0.5 * scale)
    return csr_matrix(h)


def _random_vec(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_zero_time_is_identity():
    h = _random_hermitian(50, 0)
    v = _random_vec(50, 1)
    out = StaticPropagator(h, PropagationBudget()).apply(v, 0.0)
    assert np.array_equal(out, v)


def test_krylov_matches_dense_oracle():
    # the Krylov path (StaticPropagator's above DENSE_CUTOFF) against a
    # dense eigendecomposition
    dim = 400
    h = _random_hermitian(dim, 2, scale=3.0)
    v = _random_vec(dim, 3)
    budget = PropagationBudget(tol=1e-11)
    out = expm_apply(h, v, 1.3, budget)
    w, u = eigh(h.toarray())
    ref = u @ (np.exp(-1j * w * 1.3) * (u.conj().T @ v))
    assert np.linalg.norm(out - ref) < 1e-9


class _CountedMatvec:
    def __init__(self, h):
        self.h = h
        self.calls = 0

    def dot(self, v):
        self.calls += 1
        return self.h.dot(v)


def test_krylov_complex_hermitian_matches_expm():
    # every off-diagonal entry is non-real, so the conjugation of the
    # projections onto basis vectors matters; the outlying eigenvalues +-30
    # converge early, after which the recurrence alone loses orthogonality;
    # the result, and that of the oracle that keeps it, must each sit within
    # the tolerance the call promises (tol |v|, |v| = 1) of the exact result;
    # below that, their mutual gap depends on rounding
    dim, t = 300, 2.0
    rng = np.random.default_rng(12)
    m = sparse_random(dim, dim, density=0.05, random_state=rng, format="coo")
    upper = m.row < m.col
    rows, cols = m.row[upper], m.col[upper]
    hop = m.data[upper] * np.exp(1j * rng.uniform(0.3, 2.8, upper.sum()))
    diagonal = rng.standard_normal(dim)
    diagonal[:2] = 30.0, -30.0
    ij = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    h = csr_matrix((np.concatenate([hop, hop.conj()]), ij), shape=(dim, dim)) + diags(diagonal)
    assert np.all((h - diags(h.diagonal())).tocoo().data.imag != 0.0)
    v = _random_vec(dim, 13)
    tol = 1e-11
    exact = expm(-1j * t * h.toarray()) @ v
    counted = _CountedMatvec(h)
    out = expm_apply(counted, v, t, PropagationBudget(tol=tol))
    assert counted.calls >= 20
    assert np.linalg.norm(out - exact) < tol
    assert np.linalg.norm(lanczos_full_reorth(h.dot, v, t, tol, KRYLOV_DIM) - exact) < tol


def test_krylov_continues_unconverged_bases():
    # ||H|| t = 100 needs several 40-vector bases: each advances by the
    # interval it resolves, where the oracle discards it and bisects
    dim, t, tol = 400, 100.0, 1e-11
    rng = np.random.default_rng(14)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    v = _random_vec(dim, 15)
    counted, counted_oracle = _CountedMatvec(h), _CountedMatvec(h)
    out = expm_apply(counted, v, t, PropagationBudget(tol=tol))
    oracle = lanczos_bisect(counted_oracle.dot, v, t, tol, KRYLOV_DIM)
    w, u = eigh(h)
    ref = u @ (np.exp(-1j * w * t) * (u.conj().T @ v))
    assert counted.calls > 3 * KRYLOV_DIM
    assert np.linalg.norm(out - ref) < 1e-9
    assert np.linalg.norm(out - oracle) < 1e-9
    assert counted.calls < counted_oracle.calls
    assert np.linalg.norm(out - lanczos_full_reorth(h.dot, v, t, tol, KRYLOV_DIM)) < 1e-12


def test_krylov_norm_drift_with_ghost_ritz_values():
    # ||H|| t = 2e4 with isolated outliers: they converge in every basis,
    # and without reorthogonalization their copies (ghost Ritz values)
    # reappear; the result and its norm must not drift with them
    dim, t, tol = 1000, 500.0, 1e-11
    d = np.random.default_rng(19).standard_normal(dim)
    d[:3] = 40.0, -40.0, 25.0
    v = _random_vec(dim, 20)
    out = expm_apply(diags(d), v, t, PropagationBudget(tol=tol))
    assert np.linalg.norm(out - np.exp(-1j * d * t) * v) < tol
    assert abs(np.linalg.norm(out) - 1.0) < 1e-13
    assert np.linalg.norm(out - lanczos_full_reorth(diags(d).dot, v, t, tol, KRYLOV_DIM)) < 1e-12


@pytest.mark.parametrize("tol", [1e-15, 1e-16])
def test_krylov_share_below_estimate_floor(tol):
    # the estimate rounds to about 2e-15: a substep whose share of the
    # budget falls below that is met at the floor instead of raising
    d = np.linspace(-40.0, 40.0, 1000)
    v = _random_vec(1000, 21)
    out = _lanczos_step(diags(d).dot, v, 0.03, tol, KRYLOV_DIM)
    assert np.linalg.norm(out - np.exp(-1j * d * 0.03) * v) < 1e-13


@pytest.mark.parametrize("outlier, t", [(40.0, 5000.0), (1e3, 100.0)])
def test_krylov_phase_floor_grows_with_the_interval(monkeypatch, outlier, t):
    # ||H|| t = 2e5 and 1e5 with tol 1e-11: the phase round-off of
    # exp(-i tau w) in the estimate exceeds every share tol tau / t, so only
    # a floor that grows with ||T|| tau lets a substep resolve a fraction
    rng = np.random.default_rng(0)
    d = rng.uniform(-1.0, 1.0, 1000)
    d[:2] = outlier, -outlier
    v = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    v /= np.linalg.norm(v)
    h, tol = diags(d).tocsr(), 1e-11
    out = expm_apply(h, v, t, PropagationBudget(tol=tol))
    # the README bound without its k 1e-14 |v| term: the share of the
    # floor that grows with the interval, 1e-14 max|w| |t| |v|
    assert np.linalg.norm(out - np.exp(-1j * d * t) * v) < tol + 1e-14 * outlier * t
    monkeypatch.setattr(propagate, "_PHASE_FLOOR", 0.0)
    with pytest.raises(ConvergenceError, match="resolves no fraction"):
        expm_apply(h, v, t, PropagationBudget(tol=tol))


def test_krylov_first_basis_matches_oracle_bits():
    # a step whose first basis converges is the oracle's step, bit for bit
    h = _random_hermitian(400, 2, scale=3.0)
    v = _random_vec(400, 3)
    counted, counted_oracle = _CountedMatvec(h), _CountedMatvec(h)
    out = expm_apply(counted, v, 0.3, PropagationBudget(tol=1e-11))
    oracle = lanczos_bisect(counted_oracle.dot, v, 0.3, 1e-11, KRYLOV_DIM)
    assert counted.calls == counted_oracle.calls <= KRYLOV_DIM
    assert np.array_equal(out, oracle)


@pytest.mark.parametrize("n", [2, 12])
def test_krylov_every_dimension_check_beats_stride_four(n):
    # one midpoint step of the full fluctuation generator (d=3, m_max=12,
    # dt=0.01, the share of a 1e-10 budget over 25 steps): checking every
    # dimension stops the basis before the oracle that checks every 4th,
    # and both are within the share of the dense exponential
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 12)
    ops = FluctuationOperators(model, basis)
    phi0 = np.array([1.0, 0.6, 0.36], complex) / np.linalg.norm([1.0, 0.6, 0.36])
    flow = HartreeFlow(phi0, model, 1e-3)
    dt, share = 0.01, 1e-10 / 25
    vac = fl.FockVector.vacuum(basis)
    psi = evolve_fluctuation(ops, "full", n, flow, vac, 0.0, 0.1, PropagationBudget(dt=dt)).amp
    gen = generator_family(ops, "full", n, flow)(0.1 + dt / 2)
    ref = expm(-1j * dt * gen.toarray()) @ psi
    counted, counted_oracle = _CountedMatvec(gen), _CountedMatvec(gen)
    out = _lanczos_step(counted.dot, psi, dt, share, KRYLOV_DIM)
    oracle = lanczos_stride4(counted_oracle.dot, psi, dt, share, KRYLOV_DIM)
    assert counted.calls < counted_oracle.calls
    assert np.linalg.norm(out - ref) < share
    assert np.linalg.norm(oracle - ref) < share


@pytest.mark.parametrize("where", ["generator", "state", "dense"])
def test_krylov_rejects_non_finite_input(where):
    # a NaN is a ConvergenceError, which a suite records as a failed cell,
    # not scipy's ValueError from the tridiagonal or dense eigensolver
    diag = np.linspace(-1.0, 1.0, 200)
    v = _random_vec(200, 16)
    if where == "state":
        v[7] = np.nan
    else:
        diag[7] = np.nan
    with pytest.raises(ConvergenceError, match="non-finite"):
        if where == "dense":
            StaticPropagator(diags(diag), PropagationBudget())  # 200 <= DENSE_CUTOFF
        else:
            expm_apply(diags(diag), v, 1.0, PropagationBudget())


def test_krylov_substep_without_progress_raises():
    # ||H|| t = 1e30: no basis of 40 vectors resolves 2**-60 of the interval
    h = diags(np.linspace(-1e30, 1e30, 100))
    with pytest.raises(ConvergenceError, match="resolves no fraction"):
        expm_apply(h, _random_vec(100, 17), 1.0, PropagationBudget())
    # a basis capped at 4 vectors has no second dimension to estimate with
    with pytest.raises(ConvergenceError, match="no error estimate"):
        _lanczos_step(diags(np.linspace(-1.0, 1.0, 100)).dot, _random_vec(100, 18), 5.0, 1e-10, 4)


def test_dense_path_matches_krylov_path():
    dim = 120
    h = _random_hermitian(dim, 7, scale=2.0)
    v = _random_vec(dim, 8)
    dense = StaticPropagator(h, PropagationBudget()).apply(v, 0.7)
    krylov = expm_apply(h, v, 0.7, PropagationBudget(tol=1e-12))
    assert np.linalg.norm(dense - krylov) < 1e-10


def test_unitarity_and_energy_conservation():
    dim = 700  # above the dense cutoff
    h = _random_hermitian(dim, 4, scale=5.0)
    v = _random_vec(dim, 5)
    out = StaticPropagator(h, PropagationBudget(tol=1e-11)).apply(v, 2.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    e0 = np.vdot(v, h @ v).real
    e1 = np.vdot(out, h @ out).real
    assert abs(e1 - e0) < 1e-9


def test_static_krylov_route_centres_any_hermitian():
    # above the dense cutoff the whole space is one sector by default: H - cI
    # commutes with any H, so a shifted H that conserves no particle number
    # evolves as on the uncentred Krylov route and as by the dense exponential
    dim = DENSE_CUTOFF + 50
    h = _random_hermitian(dim, 31, density=0.02, scale=2.0) + diags(np.full(dim, 7.0))
    v = _random_vec(dim, 32)
    budget = PropagationBudget(tol=1e-10)
    out = StaticPropagator(h, budget).apply(v, 0.9)
    assert np.linalg.norm(out - expm_apply(h, v, 0.9, budget)) < budget.tol
    assert np.linalg.norm(out - expm(-0.9j * h.toarray()) @ v) < budget.tol


def test_static_propagator_reuse_and_backward():
    h = _random_hermitian(80, 6)
    v = _random_vec(80, 9)
    prop = StaticPropagator(h, PropagationBudget())
    there = prop.apply(v, 0.9)
    back = prop.apply(there, -0.9)
    assert np.linalg.norm(back - v) < 1e-12


def test_fockvector_roundtrip():
    basis = fl.build_basis(2, 6)
    model = fl.LatticeModel(2, fl.Potential.contact(2, 1.0))
    h = fl.build_fock_hamiltonian(model, 2, basis).matrix
    psi = fl.embed_product_state(np.array([0.6, 0.8]), 3, basis)
    out = StaticPropagator(h, PropagationBudget()).apply(psi, 0.5)
    assert isinstance(out, fl.FockVector)
    assert abs(out.norm() - 1.0) < 1e-12


def test_through_times_walks_each_segment_once():
    segments = []

    def advance(state, s, t):
        segments.append((s, t))
        return state + [t]

    walked = list(through_times(advance, [], [0.4, 0.0, 0.2, 0.4, 0.1]))
    assert segments == [(0.0, 0.1), (0.1, 0.2), (0.2, 0.4)]
    assert walked == [(0.0, []), (0.1, [0.1]), (0.2, [0.1, 0.2]), (0.4, [0.1, 0.2, 0.4])]


def test_timedep_constant_generator_matches_static():
    dim = 90
    h = _random_hermitian(dim, 10, scale=2.0)
    v = _random_vec(dim, 11)
    budget = PropagationBudget(tol=1e-11, dt=0.02)
    out = evolve_timedep(lambda t: h, v, 0.0, 1.1, budget)
    ref = expm_apply(h, v, 1.1, PropagationBudget(tol=1e-12))
    assert np.linalg.norm(out - ref) < 1e-9


def _driven_generator(dim, seed):
    h0 = _random_hermitian(dim, seed, scale=1.5)
    h1 = _random_hermitian(dim, seed + 1, scale=0.8)

    def gen(t):
        return (h0 + np.cos(1.7 * t) * h1).tocsr()

    return gen


def test_timedep_group_property():
    dim = 60
    gen = _driven_generator(dim, 20)
    v = _random_vec(dim, 21)
    budget = PropagationBudget(tol=1e-10, dt=0.01)
    mid = evolve_timedep(gen, v, 0.0, 0.4, budget)
    end = evolve_timedep(gen, mid, 0.4, 1.0, budget)
    direct = evolve_timedep(gen, v, 0.0, 1.0, budget)
    assert np.linalg.norm(end - direct) < 1e-6
    back = evolve_timedep(gen, end, 1.0, 0.0, budget)
    assert np.linalg.norm(back - v) < 1e-5


def test_timedep_unit_norm():
    dim = 60
    gen = _driven_generator(dim, 30)
    v = _random_vec(dim, 31)
    out = evolve_timedep(gen, v, 0.0, 2.0, PropagationBudget(dt=0.02))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_timedep_second_order_convergence():
    dim = 40
    gen = _driven_generator(dim, 40)
    v = _random_vec(dim, 41)
    ref = evolve_timedep(gen, v, 0.0, 1.0, PropagationBudget(tol=1e-12, dt=1.0 / 512))
    errs = []
    for steps in (16, 32, 64):
        out = evolve_timedep(gen, v, 0.0, 1.0, PropagationBudget(tol=1e-12, dt=1.0 / steps))
        errs.append(np.linalg.norm(out - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_budget_validation():
    with pytest.raises(ValueError):
        PropagationBudget(tol=0.0)
    with pytest.raises(ValueError):
        PropagationBudget(dt=-1.0)


@pytest.mark.parametrize("key", ["tol", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_budget_rejects_non_finite_values(key, value):
    # a NaN tol would fail 60 bisections later as "resolves no fraction", an
    # infinite one would pass any state, and a NaN or infinite dt would fail
    # in a step count: each is refused where it is set
    with pytest.raises(ValueError, match="positive and finite"):
        PropagationBudget(**{key: value})


SECTOR_MODELS = pytest.mark.parametrize(
    "model",
    [
        fl.LatticeModel(3, Potential.contact(3, 1.0)),
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.3)),
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 0.7), _flux_kinetic(3, 0.4)),
    ],
    ids=["contact", "soft-coulomb", "complex-kinetic"],
)


@SECTOR_MODELS
@pytest.mark.parametrize("state", ["coherent", "random"])
@pytest.mark.parametrize("t", [0.7, -0.7])
def test_sector_split_matches_raw_krylov(model, state, t, monkeypatch):
    # exp(-i F t) exp(-i (H - F) t) against the Krylov route on the raw H,
    # above the dense cutoff; each route holds to the budget, so they agree
    # within twice the budget plus the documented floor (k + ||H|| |t|) 1e-14 |v|,
    # with k at most the substeps both routes take
    substeps = []
    raw_substep = propagate._lanczos_substep

    def counted_substep(*args):
        substeps.append(1)
        return raw_substep(*args)

    monkeypatch.setattr(propagate, "_lanczos_substep", counted_substep)
    basis = fl.build_basis(3, 14)
    assert basis.size > DENSE_CUTOFF
    h = fl.build_fock_hamiltonian(model, 3, basis).matrix
    if state == "coherent":
        v = coherent_state(np.sqrt(3.0) * np.array([0.6, 0.48, 0.64]), basis, eps_trunc=1e-3).amp
    else:
        v = _random_vec(basis.size, 23)
    budget = PropagationBudget(tol=1e-10)
    out = StaticPropagator(h, budget, sectors=basis.sector_offsets).apply(v, t)
    ref = expm_apply(h, v, t, budget)
    floor = 1e-14 * (len(substeps) + abs(h).sum(axis=1).max() * abs(t)) * np.linalg.norm(v)
    assert np.linalg.norm(out - ref) < 2 * budget.tol + floor


def test_sector_split_takes_fewer_matvecs(monkeypatch):
    # the centred operator spreads over one sector's energies instead of
    # every sector's: on a coherent state, strictly fewer matvecs
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 24)
    h = fl.build_fock_hamiltonian(model, 2, basis).matrix
    psi = coherent_state(np.sqrt(2.0) * np.array([0.6, 0.48, 0.64]), basis, eps_trunc=1e-8)
    counted = []
    raw_expm = propagate.expm_apply

    def counted_expm(op, v, t, budget):
        counted.append(_CountedMatvec(op))
        return raw_expm(counted[-1], v, t, budget)

    monkeypatch.setattr(propagate, "expm_apply", counted_expm)
    split = StaticPropagator(h, PropagationBudget(), sectors=basis.sector_offsets).apply(psi, 1.0)
    raw = propagate.expm_apply(h, psi.amp, 1.0, PropagationBudget())  # the raw H, uncentred
    assert counted[0].calls < counted[1].calls
    assert np.linalg.norm(split.amp - raw) < 2 * PropagationBudget().tol


def test_sector_centring_at_stored_diagonal_entries():
    # H_N with every diagonal entry stored (filled from HamiltonianParts) is
    # centred in a copy of its data on its own pattern; the operator and
    # centres are those of H_N as the summed ladder products store it
    # (the oracle), without its zero diagonal entries, and a coupling
    # between sectors is still found
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 14)
    stored = HamiltonianParts(model, basis).fill(2, basis.m_max)
    summed = fock_hamiltonian_by_ladders(model, 2, basis)
    assert stored.nnz > summed.nnz  # the vacuum's diagonal, at least
    op, centres, sizes = propagate._centre_sectors(stored, basis.sector_offsets)
    ref, ref_centres, _ = propagate._centre_sectors(summed, basis.sector_offsets)
    assert np.shares_memory(op.indices, stored.indices)
    assert np.array_equal(stored.toarray(), summed.toarray())  # the data is left as it was
    assert np.array_equal(centres, ref_centres)
    assert np.array_equal(op.toarray(), ref.toarray())
    coupled = stored.tolil()
    coupled[0, 1] = coupled[1, 0] = 0.5  # the vacuum to sector 1
    with pytest.raises(ValueError, match="couples two number sectors"):
        propagate._centre_sectors(coupled, basis.sector_offsets)


def test_sector_split_rejects_coupled_sectors():
    # i (a*(f) - a(f)) is Hermitian and changes the particle number by one
    basis = fl.build_basis(3, 14)
    assert basis.size > DENSE_CUTOFF
    h = 1j * weyl_generator(np.array([0.3, 0.2, 0.1]), basis)
    with pytest.raises(ValueError, match="couples two number sectors"):
        StaticPropagator(h, PropagationBudget(), sectors=basis.sector_offsets)

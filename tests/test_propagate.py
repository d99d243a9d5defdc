import numpy as np
import pytest
from scipy.linalg import eigh, expm
from scipy.sparse import csr_matrix, diags, random as sparse_random

import focklab as fl
from focklab.errors import ConvergenceError
from focklab.propagate import (
    KRYLOV_DIM,
    PropagationBudget,
    StaticPropagator,
    _lanczos_step,
    evolve_timedep,
    expm_apply,
    through_times,
)
from oracles import lanczos_bisect


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
    out = StaticPropagator(h).apply(v, 0.0)
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
    # reorthogonalization coefficients matters; the outlying eigenvalues
    # +-30 converge early, after which a wrong conjugation leaves the basis
    # non-orthogonal and the result off by about 1e-5
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
    counted = _CountedMatvec(h)
    out = expm_apply(counted, v, t, PropagationBudget(tol=1e-11))
    assert counted.calls >= 20
    assert np.linalg.norm(out - expm(-1j * t * h.toarray()) @ v) < 1e-9


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


def test_krylov_first_basis_matches_oracle_bits():
    # a step whose first basis converges is the oracle's step, bit for bit
    h = _random_hermitian(400, 2, scale=3.0)
    v = _random_vec(400, 3)
    counted, counted_oracle = _CountedMatvec(h), _CountedMatvec(h)
    out = expm_apply(counted, v, 0.3, PropagationBudget(tol=1e-11))
    oracle = lanczos_bisect(counted_oracle.dot, v, 0.3, 1e-11, KRYLOV_DIM)
    assert counted.calls == counted_oracle.calls <= KRYLOV_DIM
    assert np.array_equal(out, oracle)


@pytest.mark.parametrize("where", ["generator", "state"])
def test_krylov_rejects_non_finite_input(where):
    # a NaN is a ConvergenceError, which a suite records as a failed cell,
    # not scipy's ValueError from the tridiagonal eigensolver
    diag = np.linspace(-1.0, 1.0, 200)
    v = _random_vec(200, 16)
    if where == "generator":
        diag[7] = np.nan
    else:
        v[7] = np.nan
    with pytest.raises(ConvergenceError, match="non-finite"):
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


def test_static_propagator_reuse_and_backward():
    h = _random_hermitian(80, 6)
    v = _random_vec(80, 9)
    prop = StaticPropagator(h)
    there = prop.apply(v, 0.9)
    back = prop.apply(there, -0.9)
    assert np.linalg.norm(back - v) < 1e-12


def test_fockvector_roundtrip():
    basis = fl.build_basis(2, 6)
    model = fl.LatticeModel(2, fl.Potential.contact(2, 1.0))
    h = fl.build_fock_hamiltonian(model, 2, basis).matrix
    psi = fl.embed_product_state(np.array([0.6, 0.8]), 3, basis)
    out = StaticPropagator(h).apply(psi, 0.5)
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

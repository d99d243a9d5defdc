import math
import sys
import threading

import numpy as np
import pytest

import focklab as fl
from focklab.weyl import _BlockPass, displacement_floor, minimal_cutoff, poisson_tail
from oracles import annihilation_of, block_pass_per_vector, poisson_tails_mp, weyl_apply_krylov


@pytest.fixture(scope="module")
def basis30():
    return fl.build_basis(2, 30)


def _rand_f(rng, d, max_norm=1.5):
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return f * (max_norm * rng.uniform(0.3, 1.0) / np.linalg.norm(f))


def test_weyl_of_zero_is_identity(basis30):
    rng = np.random.default_rng(0)
    amp = rng.standard_normal(basis30.size) + 0j
    amp /= np.linalg.norm(amp)
    psi = fl.FockVector(basis30, amp)
    out = fl.weyl_apply(np.zeros(2), psi)
    assert np.array_equal(out.amp, psi.amp)


def test_weyl_unitary_and_inverse(basis30):
    rng = np.random.default_rng(1)
    f = _rand_f(rng, 2)
    psi = fl.coherent_state(_rand_f(rng, 2, 1.0), basis30)
    wf = fl.weyl_apply(f, psi)
    assert wf.norm() == pytest.approx(psi.norm(), abs=1e-12)
    back = fl.weyl_apply(-f, wf)  # W(f)* = W(-f)
    assert np.linalg.norm(back.amp - psi.amp) < 1e-8


def test_weyl_composition_law(basis30):
    # W(f) W(g) = W(f+g) exp(-i Im<f,g>)
    rng = np.random.default_rng(2)
    f, g = _rand_f(rng, 2, 1.2), _rand_f(rng, 2, 1.2)
    vac = fl.FockVector.vacuum(basis30)
    lhs = fl.weyl_apply(f, fl.weyl_apply(g, vac))
    phase = np.exp(-1j * np.imag(np.vdot(f, g)))
    rhs = fl.weyl_apply(f + g, vac)
    assert np.linalg.norm(lhs.amp - phase * rhs.amp) < 1e-8


def test_weyl_commutation_form(basis30):
    # W(f) W(g) = W(g) W(f) exp(-2i Im<f,g>)
    rng = np.random.default_rng(12)
    f, g = _rand_f(rng, 2, 1.2), _rand_f(rng, 2, 1.2)
    probe = fl.coherent_state(_rand_f(rng, 2, 0.8), basis30)
    fg = fl.weyl_apply(f, fl.weyl_apply(g, probe))
    gf = fl.weyl_apply(g, fl.weyl_apply(f, probe))
    phase = np.exp(-2j * np.imag(np.vdot(f, g)))
    assert np.linalg.norm(fg.amp - phase * gf.amp) < 1e-8


# (d, m_max, f): odd and even cutoffs, zero components, single sites (the
# first site needs no rotation), and |f|^2 near the cutoff
ROUTE_CASES = [
    (2, 9, [0.8 - 0.3j, 1.1j]),
    (2, 10, [-0.6, 0.9 + 0.4j]),
    (3, 11, [0.7, 0.0, -0.4 + 0.9j]),
    (3, 12, [0.0, 0.0, 1.3j]),
    (3, 9, [1.2, 0.0, 0.0]),
    (3, 10, [2.1, -1.5j, 1.2]),  # |f|^2 = 8.1
    (4, 7, [0.0, 0.5, 0.0, -0.2j]),
    (4, 8, [0.4 + 0.3j, -0.5, 0.6j, 0.25]),
]


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return fl.FockVector(basis, amp / np.linalg.norm(amp))


@pytest.mark.parametrize("d, m_max, f", ROUTE_CASES)
def test_rotation_route_matches_krylov_oracle(d, m_max, f):
    # the mode rotation is exact on the truncated space, so it agrees with
    # the Krylov exponential of the compressed generator to that route's tol
    basis = fl.build_basis(d, m_max)
    budget = fl.PropagationBudget(tol=1e-10)
    for psi in (fl.FockVector.vacuum(basis), _random_state(basis, m_max)):
        got = fl.weyl_apply(np.array(f), psi)
        assert np.linalg.norm(got.amp - weyl_apply_krylov(np.array(f), psi, budget).amp) < budget.tol


@pytest.mark.parametrize("d, m_max, f", ROUTE_CASES)
def test_rotation_route_is_unitary(d, m_max, f):
    basis = fl.build_basis(d, m_max)
    f = np.array(f)
    psi = _random_state(basis, d)
    out = fl.weyl_apply(f, psi)
    assert abs(out.norm() - 1.0) < 1e-13
    assert np.linalg.norm(fl.weyl_apply(-f, out).amp - psi.amp) < 1e-13  # W(-f) W(f) = 1


@pytest.mark.parametrize("d, m_max, f", ROUTE_CASES[:4])
def test_stacked_rotation_matches_each_column(d, m_max, f):
    # d = 2 and 3 at odd and even cutoffs; a stack shares one computation
    # of the blocks, and each column is W(f) of that column
    basis = fl.build_basis(d, m_max)
    f = np.array(f)
    stack = np.column_stack([_random_state(basis, seed).amp for seed in range(d + 1)])
    got = basis.mode_rotation.apply(f, stack)
    for k in range(d + 1):
        assert np.linalg.norm(got[:, k] - basis.mode_rotation.apply(f, stack[:, k])) < 1e-14


@pytest.mark.parametrize("d, m_max, f", ROUTE_CASES)
def test_rotation_of_one_vector_is_the_single_vector_pass(d, m_max, f, monkeypatch):
    # a vector takes the same products as before stacks were accepted, so
    # every 1-D W(f) is bit for bit the single-vector block pass's
    psi = _random_state(fl.build_basis(d, m_max), m_max)
    got = fl.weyl_apply(np.array(f), psi).amp
    monkeypatch.setattr(_BlockPass, "apply", block_pass_per_vector)
    assert np.array_equal(got, fl.weyl_apply(np.array(f), psi).amp)


def test_rotation_tables_shared_between_threads():
    # threads that apply W(f) on a fresh basis at once build its tables
    # concurrently; every thread gets the single-thread result
    f = np.array([0.9 - 0.2j, 0.4j, -0.7])
    psi = _random_state(fl.build_basis(3, 14), 5)
    want = fl.weyl_apply(f, psi).amp
    fresh = fl.build_basis(3, 14)
    psi = fl.FockVector(fresh, psi.amp)
    results = [None] * 6

    def work(i):
        results[i] = fl.weyl_apply(f, psi).amp

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(r, want) for r in results)


def test_coherent_matches_weyl_displaced_vacuum(basis30):
    f = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
    direct = fl.coherent_state(f, basis30)
    displaced = fl.weyl_apply(f, fl.FockVector.vacuum(basis30))
    assert np.linalg.norm(direct.amp - displaced.amp) < 1e-8


def test_coherent_of_zero_is_vacuum(basis30):
    out = fl.coherent_state(np.zeros(2), basis30)
    assert np.array_equal(out.amp, fl.FockVector.vacuum(basis30).amp)


def test_coherent_sector_probabilities_poisson(basis30):
    f = np.array([0.9, 0.6j])
    lam = float(np.vdot(f, f).real)
    w = fl.coherent_state(f, basis30).sector_weights()
    for n in range(10):
        expected = np.exp(-lam) * lam**n / math.factorial(n)
        assert w[n] == pytest.approx(expected, rel=1e-10)


def test_coherent_number_mean_and_variance(basis30):
    f = np.array([1.0, 0.5 + 0.5j])
    lam = float(np.vdot(f, f).real)
    psi = fl.coherent_state(f, basis30)
    mean = fl.number_moment(psi, 1)
    second = fl.number_moment(psi, 2)
    assert mean == pytest.approx(lam, abs=1e-8)
    assert second - mean**2 == pytest.approx(lam, abs=1e-8)


def test_coherent_overlap_law(basis30):
    rng = np.random.default_rng(5)
    f, g = _rand_f(rng, 2), _rand_f(rng, 2)
    vac = fl.FockVector.vacuum(basis30)
    ov = fl.weyl_apply(f, vac).inner(fl.weyl_apply(g, vac))
    assert abs(ov) == pytest.approx(np.exp(-0.5 * np.linalg.norm(f - g) ** 2), abs=1e-8)


def test_coherent_eigenvector_of_annihilation(basis30):
    f = np.array([0.8, 0.4 - 0.3j])
    g = np.array([0.2 + 0.1j, -0.5])
    psi = fl.coherent_state(f, basis30)
    out = annihilation_of(g, basis30) @ psi.amp
    assert np.linalg.norm(out - np.vdot(g, f) * psi.amp) < 1e-9


def test_coherent_truncation_error():
    small = fl.build_basis(2, 4)
    with pytest.raises(fl.TruncationError):
        fl.coherent_state(np.array([1.5, 0.0]), small)


def test_field_operator_on_vacuum_gives_one_particle():
    # phi(f) = a*(f) + a(f) on the vacuum is the one-particle state f
    b = fl.build_basis(3, 4)
    f = np.array([0.5, -0.5j, 0.2])
    a = annihilation_of(f, b)
    vac = fl.FockVector.vacuum(b).amp
    out = a @ vac + a.conj().T @ vac
    for x in range(3):
        assert out[b.index_of(tuple(np.eye(3, dtype=int)[x]))] == pytest.approx(f[x])


def test_field_operator_expectation_real():
    # below the top sector the compressed phi(f) is Hermitian
    b = fl.build_basis(3, 5)
    rng = np.random.default_rng(9)
    amp = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
    amp[b.sector_offsets[4] :] = 0.0
    amp /= np.linalg.norm(amp)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = annihilation_of(f, b)
    val = np.vdot(amp, a @ amp + a.conj().T @ amp)
    assert abs(val.imag) < 1e-12


def test_poisson_tail_and_minimal_cutoff():
    assert poisson_tail(1.0, 30) < 1e-30
    m = minimal_cutoff(6.0, 1e-10)
    assert poisson_tail(6.0, m) < 1e-10
    assert poisson_tail(6.0, m - 1) >= 1e-10


@pytest.mark.parametrize("lam, m", [(1, 30), (2, 40), (8, 40), (12, 40), (4, 22), (40, 80), (400, 400)])
def test_poisson_tail_relative_accuracy(lam, m):
    # a tail far below the rounding of 1 keeps its relative accuracy
    exact = poisson_tails_mp(lam, m)[m]
    assert abs(poisson_tail(float(lam), m) - exact) <= 1e-12 * exact
    assert poisson_tail(0.0, m) == 0.0


def test_minimal_cutoff_matches_exact_tails():
    # the cutoff the exact tail gives, so no basis sized by it changes
    for n in range(1, 61):
        tails = poisson_tails_mp(n, 200)
        for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10):
            assert minimal_cutoff(float(n), eps) == next(m for m, t in enumerate(tails) if t < eps)


def test_displacement_floor():
    # the single-mode value equals sigma_min(a(phi) - sqrt(N)) on the whole
    # d-site basis, for any unit phi
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    b = fl.build_basis(3, 6)
    dense = annihilation_of(phi, b).toarray() - 2.0 * np.eye(b.size)
    assert displacement_floor(4, 6) == pytest.approx(np.linalg.svd(dense, compute_uv=False)[-1], rel=1e-12)
    assert displacement_floor(4, 18) == pytest.approx(7.80e-4, rel=1e-3)
    assert displacement_floor(4, 32) == pytest.approx(2.12e-9, rel=1e-3)

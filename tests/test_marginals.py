import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.marginals import DensityMatrix

from oracles import symmetrizer, tensor_partial_trace


def _random_sector_state(basis, n, rng):
    amp = np.zeros(basis.size, complex)
    sl = basis.sector_slice(n)
    block = rng.standard_normal(sl.stop - sl.start) + 1j * rng.standard_normal(sl.stop - sl.start)
    amp[sl] = block / np.linalg.norm(block)
    return fl.FockVector(basis, amp)


def test_product_state_marginal_is_projector():
    basis = fl.build_basis(3, 5)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    gamma = fl.marginal_from_sector(fl.embed_product_state(phi, 4, basis))
    assert np.max(np.abs(gamma.mat - np.outer(phi, phi.conj()))) < 1e-12


def test_one_one_state_marginal_uniform():
    basis = fl.build_basis(2, 3)
    gamma = fl.marginal_from_sector(fl.FockVector.unit(basis, (1, 1)))
    assert np.allclose(gamma.mat, np.diag([0.5, 0.5]), atol=1e-14)


def test_sector_marginal_vs_tensor_oracle():
    basis = fl.build_basis(3, 4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        psi = _random_sector_state(basis, 3, rng)
        gamma = fl.marginal_from_sector(psi)
        s, tuples = symmetrizer(3, 3)
        psi_tensor = s @ psi.amp[basis.sector_slice(3)]
        ref = tensor_partial_trace(psi_tensor, 3, 3)
        assert np.max(np.abs(gamma.mat - ref)) < 1e-12


def test_fock_and_sector_marginals_agree():
    basis = fl.build_basis(3, 4)
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        psi = _random_sector_state(basis, n, rng)
        a = fl.marginal_from_sector(psi).mat
        b = fl.marginal_from_fock(psi).mat
        assert np.max(np.abs(a - b)) < 1e-12


def test_single_particle_unit_state():
    basis = fl.build_basis(3, 2)
    psi = fl.FockVector.unit(basis, (1, 0, 0))
    gamma = fl.marginal_from_fock(psi)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(gamma.mat, expected, atol=1e-14)


def test_coherent_marginal_is_rank_one():
    basis = fl.build_basis(2, 30)
    phi = np.array([0.8, 0.6j])
    psi = fl.coherent_state(np.sqrt(3.0) * phi, basis)
    gamma = fl.marginal_from_fock(psi)
    assert np.max(np.abs(gamma.mat - np.outer(phi, phi.conj()))) < 1e-9


def test_marginal_rejects_vacuum_and_multisector():
    basis = fl.build_basis(2, 3)
    with pytest.raises(ValueError):
        fl.marginal_from_fock(fl.FockVector.vacuum(basis))
    amp = np.zeros(basis.size, complex)
    amp[basis.index_of((1, 0))] = amp[basis.index_of((2, 0))] = 1 / np.sqrt(2)
    with pytest.raises(ValueError):
        fl.marginal_from_sector(fl.FockVector(basis, amp))


def test_distances_trivial_cases():
    a = fl.rank_one(np.array([1.0, 0.0]))
    b = fl.rank_one(np.array([0.0, 1.0]))
    assert fl.trace_distance(a, a) == 0.0
    assert fl.trace_distance(a, b) == pytest.approx(2.0)
    assert fl.hs_distance(a, b) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        fl.trace_distance(a, fl.rank_one(np.array([1.0, 0.0, 0.0])))


def test_rank_one_properties():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi /= np.linalg.norm(phi)
    p = fl.rank_one(phi)
    assert np.trace(p.mat).real == pytest.approx(1.0)
    assert np.max(np.abs(p.mat @ p.mat - p.mat)) < 1e-12
    ev = np.sort(np.linalg.eigvalsh(p.mat))
    assert np.allclose(ev, [0, 0, 0, 1], atol=1e-12)
    with pytest.raises(fl.NormalizationError):
        fl.rank_one(2.0 * phi)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1


def test_rank_one_comparison_chain():
    # gamma - P has zero trace, one negative eigenvalue, trace norm twice it
    basis = fl.build_basis(3, 4)
    rng = np.random.default_rng(4)
    for _ in range(20):
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi /= np.linalg.norm(phi)
        psi = _random_sector_state(basis, 3, rng)
        gamma = fl.marginal_from_sector(psi)
        proj = fl.rank_one(phi)
        diff = gamma.mat - proj.mat
        ev = np.linalg.eigvalsh(diff)
        assert abs(np.trace(diff).real) < 1e-9
        assert np.sum(ev < -1e-12 * max(1.0, np.max(np.abs(ev)))) == 1
        assert np.sum(np.abs(ev)) == pytest.approx(2.0 * abs(min(ev.min(), 0.0)), abs=1e-9)
        assert fl.trace_distance(gamma, proj) <= 2.0 * fl.hs_distance(gamma, proj) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_vs_hs_inequality_random(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    sigma = np.eye(4) / 4.0
    a, b = DensityMatrix(rho), DensityMatrix(sigma)
    td, hd = fl.trace_distance(a, b), fl.hs_distance(a, b)
    assert hd <= td + 1e-12  # Frobenius below trace norm always
    assert td <= 2.0 * np.linalg.matrix_rank(rho - sigma) * hd  # crude sanity


import numpy as np
import pytest

import focklab as fl
from focklab.model import HamiltonianParts, Potential, interaction_diagonal, kinetic_matrix
from focklab.propagate import _centre_sectors

from oracles import centred_fock_hamiltonian, first_quantized_hamiltonian, fock_hamiltonian_by_ladders, symmetrizer


def test_kinetic_matrix_properties():
    for d in (2, 3, 5, 8):
        t = kinetic_matrix(d)
        assert np.array_equal(t, t.T)
        assert np.allclose(t.sum(axis=1), 0.0)
        assert np.min(np.linalg.eigvalsh(t)) > -1e-12


def test_potential_kinds_even_and_finite():
    for p in (
        Potential.zero(5),
        Potential.contact(5, 2.0),
        Potential.gaussian_profile(5, 1.3),
        Potential.soft_coulomb_1d(5, -0.7, a0=0.5),
    ):
        d = len(p.values)
        assert np.array_equal(p.values, p.values[(-np.arange(d)) % d])
        assert np.all(np.isfinite(p.values))


def test_potential_rejects_uneven_table():
    with pytest.raises(ValueError):
        Potential("contact", 1.0, np.array([0.0, 1.0, 2.0]))


def test_sector_hamiltonian_n1_is_kinetic():
    model = fl.LatticeModel(4, Potential.zero(4))
    h = fl.build_sector_hamiltonian(model, 1)
    # sector-1 order is site 0 first, matching the kinetic matrix indexing
    assert np.allclose(h.matrix.toarray(), model.kinetic)


def test_contact_pair_diagonal_d2_n2():
    c = 1.7
    model = fl.LatticeModel(2, Potential.contact(2, c))
    h = fl.build_sector_hamiltonian(model, 2)
    i = [tuple(s) for s in h.states].index((2, 0))
    diag = h.matrix.diagonal()[i]
    kinetic_part = 2.0 * 2  # two particles on site 0, T_00 = 2
    assert diag == pytest.approx(kinetic_part + c / 2)


def test_sector_spectrum_real_and_matches_dense():
    model = fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.1))
    h = fl.build_sector_hamiltonian(model, 3).matrix.toarray()
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    ev = np.linalg.eigvalsh(h)
    assert np.all(np.isreal(ev))


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sector_hamiltonian_vs_first_quantized_oracle(d, n):
    model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 0.9, a0=0.7))
    h_occ = fl.build_sector_hamiltonian(model, n).matrix.toarray()
    h_tensor = first_quantized_hamiltonian(model, n)
    s, tuples = symmetrizer(d, n)
    assert [tuple(t) for t in tuples] == [
        tuple(t) for t in fl.build_sector_hamiltonian(model, n).states
    ]
    assert np.allclose(s.T @ s, np.eye(len(tuples)), atol=1e-12)
    assert np.max(np.abs(h_occ - s.T @ h_tensor @ s)) < 1e-10


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (4, 6)])
def test_fock_block_equals_sector_hamiltonian(d, n):
    # the two assemblies are independent float routes, so "entrywise equal"
    # means agreement at machine precision with identical sparsity structure
    model = fl.LatticeModel(d, Potential.gaussian_profile(d, 0.8))
    basis = fl.build_basis(d, n + 2)
    fock = fl.build_fock_hamiltonian(model, n, basis)
    block = fock.matrix[basis.sector_slice(n), :][:, basis.sector_slice(n)].toarray()
    sector = fl.build_sector_hamiltonian(model, n).matrix.toarray()
    assert np.max(np.abs(block - sector)) < 1e-13
    assert np.array_equal(block != 0.0, sector != 0.0)


def test_fock_hamiltonian_commutes_with_number():
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 5)
    h = fl.build_fock_hamiltonian(model, 2, basis).matrix
    num = basis.number_diagonal()
    comm = h.multiply(num[None, :]) - h.multiply(num[:, None])
    assert comm.nnz == 0 or np.max(np.abs(comm.data)) == 0.0


def test_fock_hamiltonian_quadratic_when_free():
    model = fl.LatticeModel(3, Potential.zero(3))
    basis = fl.build_basis(3, 4)
    h = fl.build_fock_hamiltonian(model, 5, basis).matrix
    hop = None
    for x in range(3):
        for y in range(3):
            if model.kinetic[x, y] == 0.0:
                continue
            term = model.kinetic[x, y] * (basis.creator(x) @ basis.annihilator(y))
            hop = term if hop is None else hop + term
    assert np.max(np.abs((h - hop).toarray())) == 0.0


def test_fock_hamiltonian_hermitian():
    model = fl.LatticeModel(4, Potential.soft_coulomb_1d(4, 1.0))
    basis = fl.build_basis(4, 4)
    h = fl.build_fock_hamiltonian(model, 3, basis).matrix
    assert np.max(np.abs((h - h.conj().T).toarray())) < 1e-12


def test_interaction_diagonal_bound():
    # lattice stand-in for the potential-energy bound: finite table, unit mass
    model = fl.LatticeModel(5, Potential.soft_coulomb_1d(5, 2.0))
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    phi /= np.linalg.norm(phi)
    dens = np.abs(phi) ** 2
    lhs = np.max((model.vmat**2) @ dens)
    assert lhs <= np.max(model.potential.values**2) * 1.0 + 1e-12


def test_embed_product_examples():
    basis = fl.build_basis(2, 4)
    phi = np.array([1.0, 0.0])
    psi = fl.embed_product_state(phi, 2, basis)
    assert psi.amp[basis.index_of((2, 0))] == pytest.approx(1.0)
    assert np.count_nonzero(psi.amp) == 1

    uniform = np.array([1.0, 1.0]) / np.sqrt(2)
    psi = fl.embed_product_state(uniform, 2, basis)
    assert psi.amp[basis.index_of((2, 0))] == pytest.approx(0.5)
    assert psi.amp[basis.index_of((1, 1))] == pytest.approx(1 / np.sqrt(2))
    assert psi.amp[basis.index_of((0, 2))] == pytest.approx(0.5)


def test_embed_product_n1_is_phi():
    basis = fl.build_basis(3, 3)
    phi = np.array([0.6, 0.8j, 0.0])
    psi = fl.embed_product_state(phi, 1, basis)
    for x in range(3):
        assert psi.amp[basis.index_of(tuple(np.eye(3, dtype=int)[x]))] == pytest.approx(phi[x])


def test_embed_product_norm_and_number():
    basis = fl.build_basis(3, 6)
    rng = np.random.default_rng(12)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    psi = fl.embed_product_state(phi, 5, basis)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert fl.number_moment(psi, 1) == pytest.approx(5.0, abs=1e-12)


def test_embed_product_normalization_error():
    basis = fl.build_basis(2, 3)
    with pytest.raises(fl.NormalizationError):
        fl.embed_product_state(np.array([1.0, 1.0]), 2, basis)


def test_sector_capacity_error():
    model = fl.LatticeModel(4, Potential.zero(4))
    with pytest.raises(fl.CapacityError):
        fl.build_sector_hamiltonian(model, 20, capacity=100)


def _flux_ring(d, flux):
    """Ring Laplacian threaded by a flux: Hermitian with non-real hopping."""
    t = kinetic_matrix(d).astype(complex)
    for x in range(d):
        t[x, (x + 1) % d] *= np.exp(1j * flux)
        t[(x + 1) % d, x] *= np.exp(-1j * flux)
    return t


@pytest.mark.parametrize(
    "d, m_max, kinetic",
    [(2, 14, None), (3, 10, None), (4, 7, None), (3, 10, "flux")],
    ids=["d2", "d3", "d4", "d3-complex-kinetic"],
)
def test_parts_fill_the_centred_hamiltonian_of_every_n(d, m_max, kinetic):
    # each N's H_N, filled from the N-independent parts on the leading
    # sectors [0, top], against the per-N ladder assembly on the whole
    # basis: its leading block, entry for entry; and centred as
    # StaticPropagator centres it, at the diagonal entries it stores,
    # against the ladder assembly centred on the whole basis, and its centres
    model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 1.3), None if kinetic is None else _flux_ring(d, 0.4))
    basis = fl.build_basis(d, m_max)
    parts = HamiltonianParts(model, basis)
    for n in (1, 2, 5, 12):
        whole = fock_hamiltonian_by_ladders(model, n, basis)
        ref, ref_centres = centred_fock_hamiltonian(model, n, basis)
        for top in (0, m_max // 2, m_max):
            h = fl.build_fock_hamiltonian(model, n, basis, parts=parts, top=top).matrix
            rows = int(basis.sector_offsets[top + 1])
            assert h.shape == (rows, rows)
            assert abs(h - whole[:rows, :rows]).max() <= 1e-13
            assert whole[:rows, rows:].nnz == 0  # H_N conserves the number
            op, centres, _ = _centre_sectors(h, basis.sector_offsets[: top + 2])
            assert np.shares_memory(op.indices, h.indices)  # no rebuild
            assert abs(op - ref[:rows, :rows]).max() <= 1e-13
            assert np.abs(centres - ref_centres[: top + 1]).max() <= 1e-13
    with pytest.raises(ValueError, match="another basis"):
        fl.build_fock_hamiltonian(model, 2, fl.build_basis(d, m_max), parts=parts)


def test_top_is_honoured_with_and_without_parts():
    # H_N on the sectors [0, 2] of the d=3, m=6 basis is the 10 x 10
    # leading block, whether the parts are given or built in the call
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 6)
    whole = fock_hamiltonian_by_ladders(model, 2, basis)
    for parts in (None, HamiltonianParts(model, basis)):
        h = fl.build_fock_hamiltonian(model, 2, basis, parts=parts, top=2).matrix
        assert h.shape == (10, 10)
        assert abs(h - whole[:10, :10]).max() <= 1e-13


@pytest.mark.parametrize("top", [-1, 7])
def test_top_outside_the_sectors_is_rejected(top):
    # the sectors run 0..m_max: top = -1 would give a 0 x 0 H_N, and
    # top = m_max + 1 reach past the basis
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 6)
    for parts in (None, HamiltonianParts(model, basis)):
        with pytest.raises(ValueError, match="top sector"):
            fl.build_fock_hamiltonian(model, 2, basis, parts=parts, top=top)

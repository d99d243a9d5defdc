import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.basis import _sector_tuples, sector_dimension


def test_enumeration_d2_m1():
    b = fl.build_basis(2, 1)
    assert [b.state_of(i) for i in range(b.size)] == [(0, 0), (1, 0), (0, 1)]


def test_enumeration_d2_m2_count():
    assert fl.build_basis(2, 2).size == 6


def test_enumeration_d4_m16_count():
    # brute-force enumeration oracle
    brute = sum(
        1
        for a in range(17)
        for b in range(17 - a)
        for c in range(17 - a - b)
        for d in range(17 - a - b - c)
        if a + b + c + d <= 16
    )
    assert brute == 4845
    assert fl.build_basis(4, 16).size == 4845


def test_sector_blocks_contiguous():
    b = fl.build_basis(3, 5)
    for n in range(6):
        sl = b.sector_slice(n)
        assert sl.stop - sl.start == sector_dimension(3, n)
        assert np.all(b.totals[sl] == n)


def test_index_maps_invertible():
    b = fl.build_basis(3, 4)
    for i in range(b.size):
        assert b.index_of(b.state_of(i)) == i


@pytest.mark.parametrize("d, m_max", [(2, 0), (2, 9), (3, 8), (4, 6), (5, 5), (6, 4), (50, 2)])
def test_rank_reproduces_enumeration_order(d, m_max):
    # the basis unranks indices_of, so the order is checked against the
    # recursive sector enumeration
    b = fl.build_basis(d, m_max)
    tuples = [t for n in range(m_max + 1) for t in _sector_tuples(d, n)]
    assert np.array_equal(b.states, np.array(tuples, dtype=np.int64))
    assert np.array_equal(b.indices_of(b.states), np.arange(b.size))


@pytest.mark.parametrize("occ", [(1, 0), (1, 0, 0, 0), (2, -1, 0), (3, 1, 1), (6, 0, 0)])
def test_index_of_rejects_tuples_outside_the_basis(occ):
    b = fl.build_basis(3, 4)
    with pytest.raises(ValueError):
        b.index_of(occ)


def test_capacity_error():
    with pytest.raises(fl.CapacityError):
        fl.build_basis(6, 30, capacity=1000)


def test_annihilate_vacuum_is_zero():
    b = fl.build_basis(2, 3)
    out = fl.annihilate(0, fl.FockVector.vacuum(b))
    assert out.norm() == 0.0


def test_annihilate_two_particles():
    b = fl.build_basis(2, 3)
    psi = fl.FockVector.unit(b, (2, 0))
    out = fl.annihilate(0, psi)
    assert out.amp[b.index_of((1, 0))] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(out.amp) == 1


def test_create_on_vacuum():
    b = fl.build_basis(3, 2)
    out = b.creator(1) @ fl.FockVector.vacuum(b).amp
    assert out[b.index_of((0, 1, 0))] == 1.0
    assert np.count_nonzero(out) == 1


def _random_state(b, rng, max_sector=None):
    amp = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
    if max_sector is not None:
        amp[b.sector_offsets[max_sector + 1] :] = 0.0
    amp /= np.linalg.norm(amp)
    return fl.FockVector(b, amp)


def test_adjointness():
    b = fl.build_basis(3, 5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi1 = _random_state(b, rng, max_sector=4)
        psi2 = _random_state(b, rng, max_sector=4)
        for x in range(3):
            lhs = np.vdot(b.creator(x) @ psi1.amp, psi2.amp)
            rhs = psi1.inner(fl.annihilate(x, psi2))
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_ccr_below_cutoff():
    b = fl.build_basis(3, 6)
    rng = np.random.default_rng(11)
    psi = _random_state(b, rng, max_sector=4)  # m_max - 2
    for x in range(3):
        for y in range(3):
            comm = b.annihilator(x) @ (b.creator(y) @ psi.amp) - b.creator(y) @ (
                b.annihilator(x) @ psi.amp
            )
            expected = psi.amp if x == y else 0.0 * psi.amp
            assert np.max(np.abs(comm - expected)) < 1e-12


def test_pull_through():
    # a_x N psi = (N + 1) a_x psi for psi below the top sector
    b = fl.build_basis(3, 5)
    rng = np.random.default_rng(3)
    psi = _random_state(b, rng, max_sector=4)
    for x in range(3):
        lhs = b.annihilator(x) @ (b.number_diagonal() * psi.amp)
        ax = fl.annihilate(x, psi)
        rhs = (b.number_diagonal() + 1.0) * ax.amp
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_number_moments_from_sector_weights():
    b = fl.build_basis(2, 4)
    amp = np.zeros(b.size, complex)
    amp[b.index_of((1, 0))] = 0.6
    amp[b.index_of((2, 2))] = 0.8
    psi = fl.FockVector(b, amp)
    assert fl.number_moment(psi, 2) == pytest.approx(0.36 * 1 + 0.64 * 16)


def test_sector_structure_of_ladders():
    b = fl.build_basis(3, 4)
    for x in range(3):
        a = b.annihilator(x).tocoo()
        assert np.all(b.totals[a.row] == b.totals[a.col] - 1)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 4), m=st.integers(2, 5), seed=st.integers(0, 1000))
def test_lemma_bounds_random(d, m, seed):
    # ||a(f) psi|| <= ||f|| ||N^{1/2} psi||  and the (N+1)^{1/2} variants
    b = fl.build_basis(d, m)
    rng = np.random.default_rng(seed)
    psi = _random_state(b, rng, max_sector=m - 2)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    from oracles import annihilation_of

    a = annihilation_of(f, b)
    nf = np.linalg.norm(f)
    sqrt_n = np.sqrt(b.number_diagonal())
    sqrt_n1 = np.sqrt(b.number_diagonal() + 1.0)
    assert np.linalg.norm(a @ psi.amp) <= nf * np.linalg.norm(sqrt_n * psi.amp) + 1e-12
    assert np.linalg.norm(a.conj().T @ psi.amp) <= nf * np.linalg.norm(sqrt_n1 * psi.amp) + 1e-12
    field = a @ psi.amp + a.conj().T @ psi.amp  # phi(f) = a*(f) + a(f)
    assert np.linalg.norm(field) <= 2 * nf * np.linalg.norm(sqrt_n1 * psi.amp) + 1e-12

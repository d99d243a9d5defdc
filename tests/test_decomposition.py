import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.decomposition import (
    scaled_coefficient,
    product_norm_constant,
    displaced_product_profile,
    remainder_probe,
    parseval_identity_check,
    expansion_coefficient,
    expansion_coefficients,
    coeff_leibniz_form,
    coeff_binomial_form,
    reconstruct_product,
)
from focklab.hartree import HartreeFlow
from focklab.model import Potential
from focklab.propagate import PropagationBudget
from oracles import (
    coefficient_expansion_profile,
    laguerre_times_factorial,
    parseval_sum_mp,
    reconstruct_by_nodes,
    remainder_phase_average,
    scaled_coefficient_mp,
)


def test_d_n_closed_forms():
    assert product_norm_constant(1).squared == pytest.approx(math.e, abs=1e-14)
    assert product_norm_constant(2).squared == pytest.approx(math.e**2 / 2, abs=1e-12)
    assert product_norm_constant(5).value > 0


def test_d_n_quarter_power_growth():
    # d_N / N^{1/4} settles at (2 pi)^{1/4}; within 1% by N = 50
    target = (2 * math.pi) ** 0.25
    assert product_norm_constant(50).value / 50**0.25 == pytest.approx(target, rel=0.01)
    assert product_norm_constant(400).value / 400**0.25 == pytest.approx(target, rel=0.002)


def test_r_m_small_values():
    for n in range(1, 12):
        assert expansion_coefficient(n, 0) == 1
    for n in range(2, 12):
        assert expansion_coefficient(n, 1) == -1
    assert coeff_leibniz_form(2, 2) == 0


def test_r_m_routes_agree_everywhere_they_overlap():
    for n in range(1, 41):
        for m in range(n):
            assert coeff_binomial_form(n, m) == coeff_leibniz_form(n, m)


def test_r_m_recurrence_matches_closed_forms():
    # the recurrence against the Leibniz form as far as a Parseval check walks
    # (m <= 8N + 80), and against the binomial form where that form holds
    for n in range(1, 41):
        rs = expansion_coefficients(n, 8 * n + 80)
        assert rs == [coeff_leibniz_form(n, m) for m in range(8 * n + 81)]
        assert rs[:n] == [coeff_binomial_form(n, m) for m in range(n)]
        assert expansion_coefficient(n, 8 * n + 80) == rs[-1]
    assert expansion_coefficients(3, 0) == [1]
    with pytest.raises(ValueError):
        expansion_coefficient(0, 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), m=st.integers(0, 59))
def test_r_m_routes_agree_hypothesis(n, m):
    if m <= n - 1:
        assert coeff_binomial_form(n, m) == coeff_leibniz_form(n, m)


def test_laguerre_abs_crosscheck():
    assert laguerre_times_factorial(5, 0) == 1
    assert abs(laguerre_times_factorial(2, 1)) == 1
    for n in range(1, 41):
        for m in range(n):
            assert abs(expansion_coefficient(n, m)) == abs(laguerre_times_factorial(n, m))


def test_laguerre_sign_convention_mismatch_documented():
    # the direct evaluation gives R_1 = -1 while (-1)^m m! L_m^{(N-m-1)}(N)
    # would give +1 at N=2, m=1; absolute values is what the identities use
    assert expansion_coefficient(2, 1) == -1
    assert (-1) ** 1 * laguerre_times_factorial(2, 1) == 1


def test_a_m_normalization():
    assert scaled_coefficient(3, 0) == 1.0
    assert scaled_coefficient(9, 1) == pytest.approx(-1.0 / 3.0)


def test_parseval_identity_small_n():
    rep1 = parseval_identity_check(1, tol=1e-8)
    assert rep1.converged and rep1.rel_error < 1e-8
    rep2 = parseval_identity_check(2, tol=1e-8)
    assert rep2.converged and rep2.rel_error < 1e-8
    # partial sums approach e and e^2/2
    total = sum(expansion_coefficient(1, m) ** 2 / math.factorial(m) for m in range(40))
    assert total == pytest.approx(math.e, rel=1e-10)


def test_decimal_arithmetic_matches_mpmath_oracles():
    # both routes round 50 or more correct digits to a double, so they agree
    # exactly: the coefficient suite's A_m and Parseval columns do not move
    for n in (1, 2, 4, 8, 16, 32, 40):
        assert [scaled_coefficient(n, m) for m in range(41)] == [scaled_coefficient_mp(n, m) for m in range(41)]
        rep = parseval_identity_check(n)
        assert (rep.m_reached, rep.rel_error) == parseval_sum_mp(n)
        assert rep.r == [coeff_leibniz_form(n, m) for m in range(rep.m_reached + 1)]
    rep = parseval_identity_check(30, m_cap=5)
    assert (rep.m_reached, rep.rel_error) == parseval_sum_mp(30, m_cap=5)


def test_parseval_decay_constant_bounded():
    consts = [parseval_identity_check(n).decay_constant for n in (4, 8, 16, 32)]
    assert all(np.isfinite(c) for c in consts)
    assert max(consts) < 1.5


def test_parseval_cap_flag():
    rep = parseval_identity_check(30, tol=1e-8, m_cap=5)
    assert not rep.converged
    # the report carries the walk through the cap: R_m and the residual at each m
    assert rep.r == expansion_coefficients(30, 5)
    assert len(rep.residuals) == 6 and rep.residuals[-1] == rep.rel_error


def test_reconstruct_product_exact_with_enough_points():
    basis = fl.build_basis(2, 24)
    phi = np.array([1.0, 0.0])
    _, err = reconstruct_product(phi, 1, basis.m_max + 1, basis)
    assert err < 1e-10
    _, err = reconstruct_product(phi, 4, basis.m_max + 1, basis)
    assert err < 1e-10


def test_reconstruct_product_aliasing():
    # K <= m_max is refused; the node sum shows the aliasing it would cause
    basis = fl.build_basis(2, 12)
    phi = np.array([0.8, 0.6])
    for k_points in (3, basis.m_max):
        with pytest.raises(fl.AliasingError):
            reconstruct_product(phi, 3, k_points, basis)
    _, err = reconstruct_by_nodes(phi, 3, 3, basis, eps_trunc=1e-4)
    assert err > 1e-3


@pytest.mark.parametrize(
    "d, m_max, n_values",
    [(2, 28, (1, 3, 6)), (3, 40, (2, 3, 4, 6, 8, 12))],  # the criterion 10 and desk bases
)
def test_reconstruct_product_matches_node_sum(d, m_max, n_values):
    # gauge covariance: one coherent state with K-node sector weights equals
    # the sum of K coherent states, aliasing-free K and twice that alike
    basis = fl.build_basis(d, m_max)
    phi = 0.6 ** np.arange(d) * np.exp(1j * np.arange(d))
    phi /= np.linalg.norm(phi)
    for n in n_values:
        for k_points in (m_max + 1, 2 * m_max):
            rec, err = reconstruct_product(phi, n, k_points, basis)
            ref, ref_err = reconstruct_by_nodes(phi, n, k_points, basis)
            assert np.max(np.abs(rec.amp - ref.amp)) < 1e-14
            assert err < 1e-14 and abs(err - ref_err) < 1e-14


def test_profile_routes_agree_within_coefficient_tail():
    # Weyl route vs coefficient expansion; the only gap is the exactly
    # computable weight of A_m beyond the cutoff
    basis = fl.build_basis(2, 30)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi /= np.linalg.norm(phi)
    for n in (2, 4, 6):
        a = displaced_product_profile(phi, n, 0.9, basis, PropagationBudget(tol=1e-12))
        b = coefficient_expansion_profile(phi, n, 0.9, basis)
        assert a.norm() == pytest.approx(product_norm_constant(n).value, abs=1e-10)
        partial = sum(scaled_coefficient(n, m) ** 2 for m in range(basis.m_max + 1))
        tail = math.sqrt(max(product_norm_constant(n).squared - partial, 0.0))
        assert np.linalg.norm(a.amp - b.amp) <= tail + 1e-8


def test_remainder_probe_zero_cases():
    d = 3
    model = fl.LatticeModel(d, Potential.contact(d, 1.0))
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    phi /= np.linalg.norm(phi)
    basis = fl.build_basis(d, 12)
    budget = PropagationBudget(tol=1e-9, dt=0.01)
    assert remainder_probe(HartreeFlow(phi, model), 2, 0.0, basis, budget).total_square < 1e-10
    free = fl.LatticeModel(d, Potential.zero(d))
    assert remainder_probe(HartreeFlow(phi, free), 2, 0.4, basis, budget).total_square < 1e-10


def test_remainder_probe_equals_phase_average():
    # gauge covariance makes every theta node equal the theta=0 node, so the
    # probe's two evolutions reproduce the K-node average of 2K evolutions
    d, n = 3, 2
    model = fl.LatticeModel(d, Potential.contact(d, 1.0))
    rng = np.random.default_rng(7)
    phi = (0.6 ** np.arange(d)) * np.exp(2j * np.pi * rng.random(d))
    phi /= np.linalg.norm(phi)
    basis = fl.build_basis(d, 12)
    budget = PropagationBudget(tol=1e-10, dt=0.02)
    rep = remainder_probe(HartreeFlow(phi, model), n, 0.4, basis, budget)
    ref = remainder_phase_average(model, n, phi, 0.4, basis.m_max + 1, basis, budget)
    assert rep.total_square > 1e-4
    assert np.max(np.abs(rep.site_abs - np.abs(ref))) < 1e-12
    assert rep.total_square == pytest.approx(float(np.sum(np.abs(ref) ** 2)), abs=1e-12)


def test_remainder_probe_guards():
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 8)
    phi = np.array([1.0, 0.0, 0.0], complex)
    with pytest.raises(fl.TruncationError):
        remainder_probe(HartreeFlow(phi, model), 20, 0.1, basis, PropagationBudget())


def test_invalid_arguments():
    with pytest.raises(ValueError):
        product_norm_constant(0)
    with pytest.raises(ValueError):
        coeff_binomial_form(3, 3)
    with pytest.raises(ValueError):
        laguerre_times_factorial(3, 5)

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.sparse import diags

import focklab as fl
from focklab.fluctuations import (
    GENERATOR_KINDS,
    FluctuationOperators,
    bogoliubov_pair,
    dynamics_gap,
    WINDOW_STEP,
    evolve_fluctuation,
    conjugation_identity_residual,
    fluctuation_trajectory,
    number_growth_probe,
    parity_defect,
)
from focklab.hartree import HartreeFlow, energy
from focklab.model import Potential, build_sector_hamiltonian, kinetic_matrix
from focklab.propagate import PropagationBudget, StaticPropagator
from focklab.weyl import weyl_apply
from oracles import assemble_by_terms, conjugation_residual_full_route


def _phi(d, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return phi / np.linalg.norm(phi)


@pytest.fixture(scope="module")
def setup():
    d = 3
    model = fl.LatticeModel(d, Potential.contact(d, 1.0))
    basis = fl.build_basis(d, 14)
    return model, basis, _phi(d), FluctuationOperators(model, basis)


def test_all_kinds_hermitian(setup):
    model, basis, phi, ops = setup
    for kind in GENERATOR_KINDS:
        g = ops.assemble(kind, 4, phi)
        assert abs(g - g.conj().T).max() < 1e-12


def parity_commutator_norm(gen, basis):
    """max |P G P - G| entry for the sector parity P = (-1)^N."""
    p = diags(basis.parity_diagonal())
    return abs(p @ gen @ p - gen).max()


def test_parity_conservation_pattern(setup):
    model, basis, phi, ops = setup
    assert parity_commutator_norm(ops.assemble("reduced", 4, phi), basis) == 0.0
    assert parity_commutator_norm(ops.assemble("limiting", 4, phi), basis) == 0.0
    assert parity_commutator_norm(ops.assemble("full", 4, phi), basis) > 0.1


def test_free_model_all_kinds_are_kinetic(setup):
    # dGamma(T): ladder hopping off the diagonal, occupation @ diag(T) on it
    _, basis, phi, _ = setup
    model = fl.LatticeModel(3, Potential.zero(3))
    t = model.kinetic
    kinetic = diags(basis.states.astype(float) @ np.diag(t))
    for x, y in zip(*np.nonzero(t - np.diag(np.diag(t)))):
        kinetic = kinetic + t[x, y] * (basis.creator(x) @ basis.annihilator(y))
    free_ops = FluctuationOperators(model, basis)
    for kind in GENERATOR_KINDS:
        g = free_ops.assemble(kind, 7, phi)
        assert abs(g - kinetic).max() == 0.0


def _flux_kinetic(d, flux):
    """Ring Laplacian threaded by a flux: Hermitian with non-real hopping."""
    t = kinetic_matrix(d).astype(complex)
    for x in range(d):
        t[x, (x + 1) % d] *= np.exp(1j * flux)
        t[(x + 1) % d, x] *= np.exp(-1j * flux)
    return t


MODELS = pytest.mark.parametrize(
    "model",
    [
        fl.LatticeModel(3, Potential.contact(3, 1.0)),
        # exchange positions overlap the kinetic hopping
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.3)),
        # complex kinetic values make A non-real off the diagonal
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 0.7), _flux_kinetic(3, 0.4)),
    ],
    ids=["contact", "soft-coulomb", "complex-kinetic"],
)


@MODELS
def test_assemble_matches_term_by_term_oracle(model):
    basis = fl.build_basis(model.d, 9)
    ops = FluctuationOperators(model, basis)
    phi = _phi(model.d, 3)
    for kind in GENERATOR_KINDS:
        got = ops.assemble(kind, 4, phi)
        ref = assemble_by_terms(ops, kind, 4, phi)
        assert abs(got - ref).max() < 1e-13


@MODELS
def test_layout_holds_one_monomial_per_distinct_operator(model):
    # no term sits on the diagonal, which is filled densely; each unordered
    # coupled pair x <= y enters once as a*_x a*_y and once as its adjoint;
    # A is Hermitian and B symmetric, to the rounding of phi_x phi_y
    basis = fl.build_basis(model.d, 6)
    ops = FluctuationOperators(model, basis)
    coupled = model.vmat != 0.0
    unordered = sum(coupled[x, y] for x in range(model.d) for y in range(x, model.d))
    for layout in (ops._reduced, ops._full):
        entries = np.repeat(np.arange(len(layout.indices)), np.diff(layout.term_map.indptr))
        rows = np.repeat(np.arange(basis.size), np.diff(layout.indptr))[entries]
        cols = layout.indices[entries]
        assert not np.any(rows == cols)
        raised = basis.totals[rows] - basis.totals[cols]
        terms = layout.term_map.indices
        assert len(np.unique(terms[raised == 2])) == len(np.unique(terms[raised == -2])) == unordered
    a, b = bogoliubov_pair(model, _phi(model.d, 3))
    assert abs(a - a.conj().T).max() < 1e-15
    assert abs(b - b.T).max() < 1e-15


def test_zero_hopping_builds_both_operators():
    # a zero kinetic matrix makes the hopping term an empty sum
    d, m_max, n = 3, 6, 4
    model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 1.3), np.zeros((d, d)))
    basis = fl.build_basis(d, m_max)
    h = fl.build_fock_hamiltonian(model, n, basis).matrix
    for sector in range(1, m_max + 1):
        sl = basis.sector_slice(sector)
        ref = build_sector_hamiltonian(model, sector).matrix.toarray() * sector / n
        assert np.max(np.abs(h[sl, sl].toarray() - ref)) < 1e-13
    ops = FluctuationOperators(model, basis)
    phi = _phi(d, 3)
    for kind in GENERATOR_KINDS:
        ref = assemble_by_terms(ops, kind, n, phi)
        assert abs(ops.assemble(kind, n, phi) - ref).max() < 1e-13


@MODELS
def test_windowed_assembly_is_the_generator_at_the_window_cutoff(model):
    # every term is normal ordered, so the generator on the sectors [0, m]
    # is the generator of the basis cut at m, entry for entry (its products
    # with the unit vectors are its columns), and so is its product with
    # any vector
    m_max, n = 8, 4
    ops = FluctuationOperators(model, fl.build_basis(model.d, m_max))
    phi = _phi(model.d, 3)
    rng = np.random.default_rng(4)
    for m in range(m_max):
        cut_ops = FluctuationOperators(model, fl.build_basis(model.d, m))
        dim = cut_ops.basis.size
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for kind in GENERATOR_KINDS:
            got = ops.assemble(kind, n, phi, top=m)
            want = cut_ops.assemble(kind, n, phi)
            assert got.shape == want.shape == (dim, dim)
            columns = np.column_stack([got.dot(e) for e in np.eye(dim, dtype=complex)])
            assert np.array_equal(columns, want.toarray())
            assert np.array_equal(got.dot(v), want.dot(v))
    for kind in GENERATOR_KINDS:
        whole = ops.assemble(kind, n, phi)
        assert abs(ops.assemble(kind, n, phi, top=m_max) - whole).max() == 0.0


def _top_occupied_sector(psi) -> int:
    return int(np.nonzero(psi.sector_weights())[0].max())


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_windowed_trajectory_matches_whole_basis_evolution(kind):
    # the trajectory grows its window from WINDOW_STEP sectors, and the
    # sectors beyond it hold exact zeros; the whole-basis evolution agrees
    # to within the amplitude the window rule leaves in its top sector
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi, n, m_max, times = _phi(3), 3, 30, [0.02, 0.1]
    ops = FluctuationOperators(model, fl.build_basis(3, m_max))
    flow = HartreeFlow(phi, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.02)
    vac = fl.FockVector.vacuum(ops.basis)
    tops = []
    for t, psi in fluctuation_trajectory(ops, kind, n, flow, times, budget):
        ref = evolve_fluctuation(kind, model, n, flow, vac, 0.0, t, budget, ops=ops)
        assert np.linalg.norm(psi.amp - ref.amp) < 1e-9
        tops.append(_top_occupied_sector(psi))
    assert WINDOW_STEP < tops[0] < tops[1] < m_max


def test_cubic_term_by_term_oracle():
    # independent assembly of the cubic monomials by explicit occupation moves
    d, m_max, n = 2, 4, 3
    model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 1.3))
    basis = fl.build_basis(d, m_max)
    phi = _phi(d, 5)
    ops = FluctuationOperators(model, basis)
    got = (ops.assemble("full", n, phi) - ops.assemble("reduced", n, phi)).toarray()

    v = model.vmat
    ref = np.zeros((basis.size, basis.size), complex)
    for i in range(basis.size):
        s = list(basis.state_of(i))
        for x in range(d):
            for y in range(d):
                if s[x] == 0:
                    continue
                # a*_x a*_y a_x |s>
                mid = s.copy()
                mid[x] -= 1
                amp = np.sqrt(s[x])
                out = mid.copy()
                out[y] += 1
                amp2 = amp * np.sqrt(mid[y] + 1.0)
                out[x] += 1
                amp2 *= np.sqrt(out[x])
                if sum(out) <= m_max:
                    ref[basis.index_of(tuple(out)), i] += v[x, y] * phi[y] * amp2
                # a*_x a_y a_x |s>
                if mid[y] >= 1:
                    out = mid.copy()
                    out[y] -= 1
                    amp2 = amp * np.sqrt(mid[y])
                    out[x] += 1
                    amp2 *= np.sqrt(out[x])
                    ref[basis.index_of(tuple(out)), i] += v[x, y] * np.conj(phi[y]) * amp2
    ref /= np.sqrt(n)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_limiting_kind_n_independent(setup):
    model, basis, phi, ops = setup
    assert abs(ops.assemble("limiting", 2, phi) - ops.assemble("limiting", 200, phi)).max() == 0.0


def test_unknown_kind_is_rejected(setup):
    # only GENERATOR_KINDS are assembled; any other name is refused by name
    _, _, phi, ops = setup
    for kind in ("truncated", "bogus"):
        with pytest.raises(ValueError, match=f"unknown generator kind '{kind}'"):
            ops.assemble(kind, 4, phi)


def test_evolution_identity_and_group_property(setup):
    model, basis, phi, ops = setup
    flow = HartreeFlow(phi, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.005)
    vac = fl.FockVector.vacuum(basis)
    same = evolve_fluctuation("full", model, 3, flow, vac, 0.3, 0.3, budget, ops=ops)
    assert np.array_equal(same.amp, vac.amp)
    fwd = evolve_fluctuation("full", model, 3, flow, vac, 0.0, 0.4, budget, ops=ops)
    assert abs(fwd.norm() - 1.0) < 1e-10
    back = evolve_fluctuation("full", model, 3, flow, fwd, 0.4, 0.0, budget, ops=ops)
    assert np.linalg.norm(back.amp - vac.amp) < 1e-5


def test_reduced_dynamics_parity_element(setup):
    model, basis, phi, _ = setup
    val = parity_defect(model, 4, phi, 0.6, PropagationBudget(dt=0.01), m_max=12)
    assert val < 1e-8


def test_vacuum_moments_zero_cases(setup):
    model, _, phi, _ = setup
    rows = number_growth_probe("full", model, 3, phi, 1, [0.0], m_max=8)
    assert rows[0][4] == 0.0
    free = fl.LatticeModel(3, Potential.zero(3))
    rows = number_growth_probe("full", free, 3, phi, 2, [0.0, 0.5, 1.0], m_max=8)
    assert all(r[4] < 1e-20 for r in rows)


def test_moment_probe_rejects_small_cutoff(setup):
    model, _, phi, _ = setup
    with pytest.raises(fl.TruncationError):
        number_growth_probe("full", model, 4, phi, 1, [1.5], m_max=6)
    with pytest.raises(ValueError):
        number_growth_probe("full", model, 4, phi, 0, [0.5], m_max=8)


def test_dynamics_gap_zero_cases(setup):
    model, _, phi, _ = setup
    assert dynamics_gap(model, 4, phi, 0.0, m_max=8) == 0.0
    free = fl.LatticeModel(3, Potential.zero(3))
    assert dynamics_gap(free, 4, phi, 0.8, m_max=8) < 1e-12


def test_dynamics_gap_scales_like_inverse_sqrt_n():
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    budget = PropagationBudget(tol=1e-9, dt=0.01)
    g4 = dynamics_gap(model, 4, phi, 0.5, budget, m_max=18)
    g16 = dynamics_gap(model, 16, phi, 0.5, budget, m_max=18)
    assert g16 / g4 == pytest.approx(0.5, abs=0.15)


def test_footnote_propagator_matches_generator_ode():
    # W*(sqrt(N) phi_t) e^{-iHt} W(sqrt(N) phi_0) equals the generator-ODE
    # evolution times exp(+i N int_0^t pot(phi_s) ds); the interaction scalar
    # is the only discrepancy between the two routes, so this pins both the
    # generator assembly and the propagators at truncation accuracy.
    d, n, t = 3, 4, 0.5
    model = fl.LatticeModel(d, Potential.contact(d, 1.0))
    phi0 = _phi(d)
    m_max = 22
    basis = fl.build_basis(d, m_max)
    flow = HartreeFlow(phi0, model, 1e-3)
    budget = PropagationBudget(tol=1e-11, dt=2e-3)
    vac = fl.FockVector.vacuum(basis)
    prop = StaticPropagator(fl.build_fock_hamiltonian(model, n, basis).matrix, budget)
    f0 = np.sqrt(n) * phi0
    ft = np.sqrt(n) * flow.at(t)
    u_foot = weyl_apply(-ft, prop.apply(weyl_apply(f0, vac, budget), t), budget)
    u_ode = evolve_fluctuation("full", model, n, flow, vac, 0.0, t, budget)
    ts = np.linspace(0.0, t, 201)
    pots = np.array([energy(flow.at(s), model).interaction for s in ts])
    phase = np.exp(1j * n * simpson(pots, x=ts))
    assert np.linalg.norm(u_foot.amp - phase * u_ode.amp) < 2e-4
    assert np.linalg.norm(u_foot.amp - u_ode.amp) > 0.1  # the scalar matters


def test_conjugation_residual_decays_with_cutoff():
    # the conjugation identity holds in the untruncated algebra; at finite
    # cutoff the residual must fall steadily as m_max grows.  Over 14..22 it
    # tracks the truncation floor sigma_min(a(phi) - sqrt(N)) (1.3e-2, 7.2e-4,
    # 2.6e-5 against floors 1.3e-2, 7.8e-4, 3.1e-5), about 2-2.3x per unit of
    # cutoff.  It is not set by the Poisson tail: beyond 26 the residual falls
    # only about 1.6x per unit, while the floor falls about 2.7x and the
    # Poisson tail mass about 5x.
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    budget = PropagationBudget(tol=1e-11)
    res = [conjugation_identity_residual(HartreeFlow(phi, model), 4, 0.5, budget, m_max=m) for m in (14, 18, 22)]
    assert res[0] > res[1] > res[2]
    assert res[1] < 5e-3
    assert res[2] < 5e-4


@pytest.mark.parametrize("n, m_max, t", [(2, 16, 0.25), (4, 22, 0.5)])
def test_conjugation_residual_matches_full_route(n, m_max, t):
    # dropping the shared unitary tail W(-f0) e^{iHt} changes the residual
    # only by the Krylov routes' deviation from exact unitarity
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    budget = PropagationBudget(tol=1e-10)
    got = conjugation_identity_residual(HartreeFlow(phi, model), n, t, budget, m_max=m_max)
    ref = conjugation_residual_full_route(model, n, phi, t, budget, m_max)
    assert abs(got - ref) <= 2 * budget.tol


def test_conjugation_residual_needs_a_cutoff():
    # the cutoff sets the residual's floor, so there is no default
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    with pytest.raises(ValueError, match="m_max or basis"):
        conjugation_identity_residual(HartreeFlow(_phi(3), model), 4, 0.5)


def test_conjugation_residual_truncation_floor_at_t0():
    # exact-algebra value is zero; the measured value is the truncated-Weyl
    # conjugation error, which shrinks with the cutoff
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    small = conjugation_identity_residual(HartreeFlow(phi, model), 2, 0.0, m_max=20)
    assert small < 1e-6


def test_conjugation_residual_free_case():
    # with V = 0 the fluctuation dynamics factorizes exactly; what remains at
    # small t is again the cutoff floor of the displaced states
    free = fl.LatticeModel(3, Potential.zero(3))
    phi = _phi(3)
    res = conjugation_identity_residual(HartreeFlow(phi, free), 2, 0.2, m_max=20)
    assert res < 1e-6


def test_vacuum_moments_bounded_for_every_kind(setup):
    # fixed t, scanned N: first moments stay within one modest envelope
    model, _, phi, _ = setup
    basis = fl.build_basis(3, 18)
    budget = PropagationBudget(tol=1e-9, dt=0.02)
    for kind in GENERATOR_KINDS:
        vals = [number_growth_probe(kind, model, n, phi, 1, [0.5], budget, basis=basis)[0][4] for n in (2, 4, 8)]
        assert all(np.isfinite(v) and 0.0 <= v < 2.0 for v in vals)
        assert max(vals) <= 2.0 * min(vals) + 1e-9

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.sparse import diags

import focklab as fl
from focklab.fluctuations import (
    GENERATOR_KINDS,
    ConjugatedRoute,
    FluctuationOperators,
    SectorWindow,
    _leading_top,
    bogoliubov_pair,
    conjugated_trajectory,
    generator_family,
    dynamics_gap,
    WINDOW_STEP,
    evolve_fluctuation,
    conjugation_identity_residual,
    fluctuation_trajectories,
    fluctuation_trajectory,
    number_growth_probe,
    parity_defect,
)
from focklab.hartree import HartreeFlow, energy
from focklab.model import HamiltonianParts, Potential, build_sector_hamiltonian, kinetic_matrix
from focklab.propagate import PropagationBudget, StaticPropagator
from focklab.weyl import weyl_apply
from oracles import (
    assemble_by_terms,
    conjugated_state_dense,
    conjugated_trajectory_whole_basis,
    conjugation_residual_full_route,
    evolve_whole_basis,
    fluctuation_trajectory_per_n,
    layout_terms,
    mean_field_phase_simpson,
    term_map_by_counting_sort,
)


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


def _on_space(matrix, ops, kind):
    """The rows and columns of ``matrix`` (on the whole basis) that
    ``ops.space(kind)`` holds."""
    keep = ops.space(kind).positions
    return matrix.tocsr()[keep][:, keep]


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
    # the whole-basis reduced and limiting generators have an exactly empty
    # block between the even and the odd sectors, at every phi and N, which
    # is what lets the package lay them out on the even sectors only; full
    # couples them
    model, basis, _, ops = setup
    even = basis.totals % 2 == 0
    for seed, n in [(0, 1), (1, 4), (2, 17)]:
        phi = _phi(3, seed)
        for kind in ("reduced", "limiting"):
            whole = assemble_by_terms(ops, kind, n, phi)
            assert whole[even][:, ~even].nnz == whole[~even][:, even].nnz == 0
            assert parity_commutator_norm(whole, basis) == 0.0
        assert parity_commutator_norm(ops.assemble("full", n, phi), basis) > 0.1
    assert ops.space("reduced").size == ops.space("limiting").size == np.count_nonzero(even)


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
        assert abs(g - _on_space(kinetic, free_ops, kind)).max() == 0.0


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
        ref = _on_space(assemble_by_terms(ops, kind, 4, phi), ops, kind)
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
    for layout, kind in ((ops._reduced, "reduced"), (ops._full, "full")):
        positions = ops.space(kind).positions
        entries = np.repeat(np.arange(len(layout.indices)), np.diff(layout.term_map.indptr))
        rows = np.repeat(np.arange(len(positions)), np.diff(layout.indptr))[entries]
        cols = layout.indices[entries]
        assert not np.any(rows == cols)
        raised = basis.totals[positions[rows]] - basis.totals[positions[cols]]
        terms = layout.term_map.indices
        assert len(np.unique(terms[raised == 2])) == len(np.unique(terms[raised == -2])) == unordered
    a, b = bogoliubov_pair(model, _phi(model.d, 3))
    assert abs(a - a.conj().T).max() < 1e-15
    assert abs(b - b.T).max() < 1e-15


@pytest.mark.parametrize(
    "model",
    [
        fl.LatticeModel(2, Potential.contact(2, 1.0)),
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.3)),
        fl.LatticeModel(4, Potential.soft_coulomb_1d(4, 1.3)),
        fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 0.7), _flux_kinetic(3, 0.4)),
        fl.LatticeModel(3, Potential.zero(3), np.zeros((3, 3))),
    ],
    ids=["d2", "d3", "d4", "complex-kinetic", "no-terms"],
)
def test_term_maps_match_the_counting_sort_oracle(model):
    # the COO to CSR conversion lays each term map out as a counting sort by
    # position does, array for array and bit for bit; with T = V = 0 no
    # monomial is laid out and the map has no column
    ops = FluctuationOperators(model, fl.build_basis(model.d, 8))
    for kind, layout in (("reduced", ops._reduced), ("full", ops._full)):
        got, want = layout.term_map, term_map_by_counting_sort(layout_terms(ops, kind), layout)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))


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
        ref = _on_space(assemble_by_terms(ops, kind, n, phi), ops, kind)
        assert abs(ops.assemble(kind, n, phi) - ref).max() < 1e-13


@MODELS
def test_windowed_assembly_is_the_generator_at_the_window_cutoff(model):
    # every term is normal ordered, so the generator on the sectors [0, m]
    # is the generator of the basis cut at m, entry for entry (its products
    # with the unit vectors are its columns), and so is its product with
    # any vector; on the even sectors too, whose order keeps the block leading
    m_max, n = 8, 4
    ops = FluctuationOperators(model, fl.build_basis(model.d, m_max))
    phi = _phi(model.d, 3)
    rng = np.random.default_rng(4)
    for m in range(m_max):
        cut_ops = FluctuationOperators(model, fl.build_basis(model.d, m))
        for kind in GENERATOR_KINDS:
            dim = cut_ops.space(kind).size
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
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
        ref = evolve_fluctuation(ops, kind, n, flow, vac, 0.0, t, budget)
        assert np.linalg.norm(psi.amp - ref.amp) < 1e-9
        tops.append(_top_occupied_sector(psi))
    assert WINDOW_STEP < tops[0] < tops[1] < m_max


@pytest.mark.parametrize("kind", ["reduced", "limiting"])
def test_even_sector_trajectory_matches_whole_basis_oracle(kind):
    # the trajectory on the even sectors against the whole-basis evolution
    # of the term-by-term generator, whose odd part stays exactly zero
    model = fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.3))
    phi, n, times = _phi(3, 7), 3, [0.05, 0.15]
    ops = FluctuationOperators(model, fl.build_basis(3, 21))
    flow = HartreeFlow(phi, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.025)
    odd = ops.basis.totals % 2 == 1
    for t, psi in fluctuation_trajectory(ops, kind, n, flow, times, budget):
        ref = evolve_whole_basis(ops, kind, n, flow, fl.FockVector.vacuum(ops.basis), t, budget)
        assert not np.any(ref.amp[odd])
        assert not np.any(psi.amp[odd])
        assert np.linalg.norm(psi.amp - ref.amp) < 10 * budget.tol


@pytest.mark.parametrize("kind", ["reduced", "limiting"])
def test_even_kinds_refuse_a_state_with_odd_amplitude(setup, kind):
    model, basis, phi, ops = setup
    flow = HartreeFlow(phi, model, 1e-3)
    odd = fl.FockVector.unit(basis, (1, 0, 0))
    with pytest.raises(ValueError, match="outside the sectors"):
        evolve_fluctuation(ops, kind, 3, flow, odd, 0.0, 0.1, PropagationBudget())
    out = evolve_fluctuation(ops, "full", 3, flow, odd, 0.0, 0.01, PropagationBudget())
    assert abs(out.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("kind", ["reduced", "limiting"])
@pytest.mark.parametrize("m_max", [6, 7])
def test_undersized_cutoff_is_caught_at_odd_and_even_cutoffs(kind, m_max):
    # the desk model at N=2, t=1 leaves 4.7e-4 of the norm in sector 6; at
    # m_max = 7 the even sectors end at 6, the sector the check must read
    cfg = fl.load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.json")
    with pytest.raises(fl.TruncationError):
        number_growth_probe(
            kind, cfg.model, 2, cfg.phi0, 1, [1.0], PropagationBudget(), basis=fl.build_basis(cfg.model.d, m_max)
        )


def test_cubic_term_by_term_oracle():
    # independent assembly of the cubic monomials by explicit occupation moves
    d, m_max, n = 2, 4, 3
    model = fl.LatticeModel(d, Potential.soft_coulomb_1d(d, 1.3))
    basis = fl.build_basis(d, m_max)
    phi = _phi(d, 5)
    ops = FluctuationOperators(model, basis)
    got = (ops.assemble("full", n, phi) - assemble_by_terms(ops, "reduced", n, phi)).toarray()

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
    same = evolve_fluctuation(ops, "full", 3, flow, vac, 0.3, 0.3, budget)
    assert np.array_equal(same.amp, vac.amp)
    fwd = evolve_fluctuation(ops, "full", 3, flow, vac, 0.0, 0.4, budget)
    assert abs(fwd.norm() - 1.0) < 1e-10
    back = evolve_fluctuation(ops, "full", 3, flow, fwd, 0.4, 0.0, budget)
    assert np.linalg.norm(back.amp - vac.amp) < 1e-5


def test_reduced_dynamics_parity_element(setup):
    model, basis, phi, _ = setup
    val = parity_defect(model, 4, phi, 0.6, PropagationBudget(dt=0.01), basis=fl.build_basis(3, 12))
    assert val < 1e-8


def test_vacuum_moments_zero_cases(setup):
    model, _, phi, _ = setup
    basis, budget = fl.build_basis(3, 8), PropagationBudget()
    rows = number_growth_probe("full", model, 3, phi, 1, [0.0], budget, basis=basis)
    assert rows[0][4] == 0.0
    free = fl.LatticeModel(3, Potential.zero(3))
    rows = number_growth_probe("full", free, 3, phi, 2, [0.0, 0.5, 1.0], budget, basis=basis)
    assert all(r[4] < 1e-20 for r in rows)


def test_moment_probe_rejects_small_cutoff(setup):
    model, _, phi, _ = setup
    budget = PropagationBudget()
    with pytest.raises(fl.TruncationError):
        number_growth_probe("full", model, 4, phi, 1, [1.5], budget, basis=fl.build_basis(3, 6))
    with pytest.raises(ValueError):
        number_growth_probe("full", model, 4, phi, 0, [0.5], budget, basis=fl.build_basis(3, 8))


def test_dynamics_gap_zero_cases(setup):
    model, _, phi, _ = setup
    basis, budget = fl.build_basis(3, 8), PropagationBudget()
    assert dynamics_gap(model, 4, phi, 0.0, budget, basis=basis) == 0.0
    free = fl.LatticeModel(3, Potential.zero(3))
    assert dynamics_gap(free, 4, phi, 0.8, budget, basis=basis) < 1e-12


def test_dynamics_gap_scales_like_inverse_sqrt_n():
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    budget = PropagationBudget(tol=1e-9, dt=0.01)
    basis = fl.build_basis(3, 18)
    g4 = dynamics_gap(model, 4, phi, 0.5, budget, basis=basis)
    g16 = dynamics_gap(model, 16, phi, 0.5, budget, basis=basis)
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
    u_foot = weyl_apply(-ft, prop.apply(weyl_apply(f0, vac), t))
    u_ode = evolve_fluctuation(FluctuationOperators(model, basis), "full", n, flow, vac, 0.0, t, budget)
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
    res = [
        conjugation_identity_residual(HartreeFlow(phi, model), 4, 0.5, budget, basis=fl.build_basis(3, m))
        for m in (14, 18, 22)
    ]
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
    got = conjugation_identity_residual(HartreeFlow(phi, model), n, t, budget, basis=fl.build_basis(3, m_max))
    ref = conjugation_residual_full_route(model, n, phi, t, budget, m_max)
    assert abs(got - ref) <= 2 * budget.tol


def test_conjugation_residual_needs_a_cutoff():
    # the cutoff sets the residual's floor, so the basis has no default
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    with pytest.raises(TypeError, match="required keyword-only argument: 'basis'"):
        conjugation_identity_residual(HartreeFlow(_phi(3), model), 4, 0.5, PropagationBudget())


def test_conjugation_residual_truncation_floor_at_t0():
    # exact-algebra value is zero; the measured value is the truncated-Weyl
    # conjugation error, which shrinks with the cutoff
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    phi = _phi(3)
    small = conjugation_identity_residual(
        HartreeFlow(phi, model), 2, 0.0, PropagationBudget(), basis=fl.build_basis(3, 20)
    )
    assert small < 1e-6


def test_conjugation_residual_free_case():
    # with V = 0 the fluctuation dynamics factorizes exactly; what remains at
    # small t is again the cutoff floor of the displaced states
    free = fl.LatticeModel(3, Potential.zero(3))
    phi = _phi(3)
    res = conjugation_identity_residual(
        HartreeFlow(phi, free), 2, 0.2, PropagationBudget(), basis=fl.build_basis(3, 20)
    )
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


GEOMETRIC = np.array([1.0, 0.6, 0.36], complex) / np.linalg.norm([1.0, 0.6, 0.36])


def test_midpoint_full_trajectory_approaches_the_conjugated_route_at_second_order():
    # the conjugated route has no time step, so the midpoint route's distance
    # to it is its step error: 4x smaller per halving of dt, 1 - |<.,.>| 16x
    # (measured 4.00, 3.95 and 15.97, 15.62).  The phase the route adds is
    # -N g: the midpoint state's phase relative to W(-f_t) e^{-iHt} W(f_0)
    # vac, extrapolated to dt = 0 (Richardson), is -N g to 1e-9 (measured
    # 7.0e-11 of N g = 0.141).  At m = 12 to 16 the two routes differ by up
    # to 2.3e-4 (N=2, m=12) and 6.8e-6 (N=1, m=16) at any dt, since each
    # truncates a different state, and that floor hides the step error
    # below dt = 0.01; at m = 20 it sits below 1e-6
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    ops = FluctuationOperators(model, fl.build_basis(3, 20))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    n, t = 2, 0.3
    [(_, xi)] = conjugated_trajectory(ConjugatedRoute(ops, flow, [t]), n, PropagationBudget(tol=1e-12))
    ng = n * flow.phase(t)
    bare = xi.amp * np.exp(1j * ng)  # W(-f_t) e^{-iHt} W(f_0) vac
    distance, infidelity, phase = [], [], []
    for dt in (0.02, 0.01, 0.005):
        [(_, mid)] = fluctuation_trajectory(ops, "full", n, flow, [t], PropagationBudget(tol=1e-12, dt=dt))
        distance.append(np.linalg.norm(mid.amp - xi.amp))
        infidelity.append(1.0 - abs(np.vdot(xi.amp, mid.amp)))
        phase.append(np.angle(np.vdot(bare, mid.amp)))
    for coarse, fine in zip(distance, distance[1:]):
        assert 3.6 < coarse / fine < 4.4
    for coarse, fine in zip(infidelity, infidelity[1:]):
        assert 14.0 < coarse / fine < 18.0
    for coarse, fine in zip(phase, phase[1:]):
        assert 3.6 < (coarse + ng) / (fine + ng) < 4.4
    assert abs((4.0 * phase[2] - phase[1]) / 3.0 + ng) < 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_conjugated_trajectory_matches_the_dense_oracle(n):
    # m = 16 (969 states) takes the static Krylov route; the oracle takes a
    # dense eigendecomposition per sector, the Krylov Weyl exponential,
    # the numpy Hartree flow and Simpson's phase.  Each segment is held to
    # tol, so three segments stay within 3 tol (measured <= 2.9e-12)
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 16)
    ops = FluctuationOperators(model, basis)
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    budget = PropagationBudget(tol=1e-10)
    times = [0.1, 0.3, 0.6]
    got = list(conjugated_trajectory(ConjugatedRoute(ops, flow, [0.6, 0.1, 0.3, 0.1]), n, budget))
    assert [t for t, _ in got] == times
    for t, xi in got:
        ref = conjugated_state_dense(model, n, GEOMETRIC, t, basis, PropagationBudget(tol=1e-12))
        assert np.linalg.norm(xi.amp - ref.amp) < 3 * budget.tol
    # the phase by the flow's RK4 against Simpson's rule on the numpy nodes
    # at half the step, forward, backward and off the grid (measured
    # <= 2.2e-13)
    for t in (0.6, -0.6, 0.3337):
        assert abs(flow.phase(t) - mean_field_phase_simpson(GEOMETRIC, model, 1e-3, t)) < 1e-12


def test_free_model_conjugated_route_is_the_vacuum():
    # with V = 0 the phase vanishes and e^{-iTt} W(f_0) vac = W(f_t) vac
    # exactly on the truncated space (a one-body unitary commutes with the
    # cutoff), so xi is the vacuum to the Krylov tolerance and the Hartree
    # step (measured <= 4.0e-12 at m = 16, on the Krylov route, and 1.3e-12
    # at m = 12, on the dense one)
    free = fl.LatticeModel(3, Potential.zero(3))
    flow = HartreeFlow(GEOMETRIC, free, 1e-3)
    budget = PropagationBudget(tol=1e-10)
    assert flow.phase(0.7) == flow.phase(-0.7) == flow.phase(0.3337) == 0.0
    for m_max in (12, 16):
        ops = FluctuationOperators(free, fl.build_basis(3, m_max))
        route = ConjugatedRoute(ops, flow, [0.0, 0.3, 0.7])
        vac = fl.FockVector.vacuum(ops.basis)
        for n in (2, 4):
            for t, xi in conjugated_trajectory(route, n, budget):
                assert np.linalg.norm(xi.amp - vac.amp) < budget.tol


def test_conjugated_trajectory_yields_the_vacuum_at_t0(setup):
    # W(-f_0) W(f_0) vac leaves rounding; t = 0 yields the vacuum itself
    model, basis, _, ops = setup
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    [(t, xi)] = conjugated_trajectory(ConjugatedRoute(ops, flow, [0.0]), 4, PropagationBudget())
    assert t == 0.0
    assert np.array_equal(xi.amp, fl.FockVector.vacuum(basis).amp)


def test_conjugated_route_refuses_a_flow_of_another_model(setup):
    # H_N comes from the operators' model, phi_t and g from the flow's
    model, basis, _, ops = setup
    other = fl.LatticeModel(3, Potential.soft_coulomb_1d(3, 1.0))
    for flow_model in (other, fl.LatticeModel(3, Potential.contact(3, 1.0))):
        with pytest.raises(ValueError, match="another model"):
            ConjugatedRoute(ops, HartreeFlow(GEOMETRIC, flow_model, 1e-3), [0.2])


def test_full_layout_is_built_on_first_use():
    # the conjugated route needs no full generator: the operators lay out
    # its pattern only when an assembly asks for it, and the same one then
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    ops = FluctuationOperators(model, fl.build_basis(3, 10))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    list(conjugated_trajectory(ConjugatedRoute(ops, flow, [0.2]), 2, PropagationBudget()))
    assert "_full" not in vars(ops)
    gen = ops.assemble("full", 2, GEOMETRIC)
    assert "_full" in vars(ops)
    assert abs(gen - assemble_by_terms(ops, "full", 2, GEOMETRIC)).max() < 1e-13


def test_even_layout_is_built_on_first_use():
    # neither the conjugated route nor a full assembly (the remainder
    # probe's) needs the even pattern of reduced and limiting: it is laid
    # out only when one of them is assembled, and the same one then
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    ops = FluctuationOperators(model, fl.build_basis(3, 10))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    list(conjugated_trajectory(ConjugatedRoute(ops, flow, [0.2]), 2, PropagationBudget()))
    ops.assemble("full", 2, GEOMETRIC)
    assert "_reduced" not in vars(ops)
    gen = ops.assemble("reduced", 2, GEOMETRIC)
    assert "_reduced" in vars(ops)
    assert abs(gen - _on_space(assemble_by_terms(ops, "reduced", 2, GEOMETRIC), ops, "reduced")).max() < 1e-13


@pytest.mark.parametrize("n", [2, 12])
def test_leading_sector_route_matches_the_whole_basis_route(n):
    # W(f_0) vac holds at most (tol/10)**2 of its squared norm beyond the
    # sector the route walks up to: below the cutoff at N = 2, the whole
    # basis at N = 12.  Against the route on the whole basis, with H_N
    # assembled per N and W by weyl_apply, each state agrees within the
    # Krylov tolerance of each segment plus the dropped tol/10
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    ops = FluctuationOperators(model, fl.build_basis(3, 34))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    budget = PropagationBudget(tol=1e-10)
    times = [0.05, 0.1, 0.2]
    route = ConjugatedRoute(ops, flow, times)
    start = route.frames[0.0].apply(np.sqrt(n), fl.FockVector.vacuum(ops.basis).amp)
    top = _leading_top(fl.FockVector(ops.basis, start), budget.tol / 10)
    assert (top < ops.basis.m_max) == (n == 2)
    got = conjugated_trajectory(route, n, budget)
    want = conjugated_trajectory_whole_basis(ops, n, flow, times, budget)
    for segments, ((t, xi), (s, ref)) in enumerate(zip(got, want), start=1):
        assert t == s
        assert np.linalg.norm(xi.amp - ref.amp) <= (segments + 0.1) * budget.tol


def test_generator_family_refills_one_matrix_per_window_top(setup):
    # a family refills its matrix at each call on one window top, and a
    # wider top gets a new one; each is the fresh assembly, which every
    # assembly without ``out`` returns anew
    model, basis, phi, ops = setup
    flow = HartreeFlow(phi, model, 1e-3)
    window = SectorWindow(ops.space("reduced"), 1e-10)
    gen = generator_family(ops, "reduced", 3, flow, window=window)
    first = gen(0.1)
    assert gen(0.2) is first
    fresh = ops.assemble("reduced", 3, flow.at(0.2), top=window.top)
    assert fresh is not ops.assemble("reduced", 3, flow.at(0.2), top=window.top)
    v = np.random.default_rng(1).standard_normal(window.dim) + 0j
    assert np.array_equal(first.dot(v), fresh.dot(v))
    window.top += 2 * WINDOW_STEP
    wider = gen(0.3)
    assert wider is not first and wider.shape == (window.dim, window.dim)
    whole = generator_family(ops, "full", 3, flow)
    assert whole(0.1) is whole(0.2)
    assert np.array_equal(whole(0.2).toarray(), ops.assemble("full", 3, flow.at(0.2)).toarray())


def test_trajectories_of_one_operators_in_a_thread_pool_match_a_serial_run():
    # trajectories of one FluctuationOperators in a pool of more threads
    # than cores (its layouts built concurrently, on first use; four of
    # one kind, on the same windows) each refill only their own
    # generators: the states are bit for bit the serial run's
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    basis = fl.build_basis(3, 20)
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.01)
    jobs = [("reduced", 2), ("reduced", 3), ("reduced", 4), ("reduced", 5), ("full", 3)]

    def states(ops, kind, n):
        return [psi.amp for _, psi in fluctuation_trajectory(ops, kind, n, flow, [0.03, 0.06, 0.09], budget)]

    serial_ops = FluctuationOperators(model, basis)
    serial = [states(serial_ops, kind, n) for kind, n in jobs]
    shared = FluctuationOperators(model, basis)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = list(pool.map(lambda job: states(shared, *job), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, pooled):
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


@MODELS
def test_stacked_walk_matches_the_per_n_oracle(model):
    # reduced at several N and the limiting state walk as the columns of
    # one stack, on the limiting generator plus each column's quartic/N and
    # one shared window; each pair evolved alone, under the generator of
    # its own kind on its own window, agrees within the Krylov budget of
    # the segments before it (measured <= 2.7e-12 per segment)
    columns = [("reduced", 1), ("reduced", 3), ("reduced", 12), ("limiting", 1)]
    times = [0.1, 0.2, 0.4]
    ops = FluctuationOperators(model, fl.build_basis(3, 24))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.02)
    space = ops.space("reduced")
    got = list(fluctuation_trajectories(ops, columns, flow, times, budget))
    assert [t for t, _ in got] == times
    for j, (kind, n) in enumerate(columns):
        want = fluctuation_trajectory_per_n(ops, kind, n, flow, times, budget)
        for segments, ((_, states), (_, ref)) in enumerate(zip(got, want), start=1):
            assert np.linalg.norm(space.embed(states[j]).amp - ref.amp) <= segments * budget.tol


def test_stacked_window_holds_every_column_below_tol(monkeypatch):
    # alone, reduced at N=1 reaches sector 20 by t=0.2 and the limiting
    # state sector 24; on their shared window every accepted step leaves at
    # most tol**2 of each column's squared norm in the window's top sector
    model = fl.LatticeModel(3, Potential.contact(3, 1.0))
    ops = FluctuationOperators(model, fl.build_basis(3, 30))
    flow = HartreeFlow(GEOMETRIC, model, 1e-3)
    budget = PropagationBudget(tol=1e-10, dt=0.02)
    columns, times = [("reduced", 1), ("reduced", 12), ("limiting", 1)], [0.05, 0.2]
    own = [
        _top_occupied_sector(list(fluctuation_trajectory_per_n(ops, kind, n, flow, times, budget))[-1][1])
        for kind, n in columns
    ]
    assert own[0] < own[2] < ops.basis.m_max
    accepted = []
    widen = SectorWindow.widen

    def recording(self, start, end):
        grown = widen(self, start, end)
        if grown is None:
            accepted.append((self.top, end.reshape(self.dim, len(columns))))
        return grown

    monkeypatch.setattr(SectorWindow, "widen", recording)
    list(fluctuation_trajectories(ops, columns, flow, times, budget))
    space = ops.space("reduced")
    # 3 and 8 steps of at most 0.02, all below the space's top sector
    assert len(accepted) == 3 + 8 and all(top < space.top for top, _ in accepted)
    assert {top for top, _ in accepted} > {own[0]}
    for top, block in accepted:
        weights = np.sum(np.abs(block[space.offsets[top]:]) ** 2, axis=0)
        assert np.all(weights <= budget.tol**2 * np.sum(np.abs(block) ** 2, axis=0))


def test_columns_must_share_a_generator_family(setup):
    # reduced and limiting share one family, and full columns one per N;
    # anything else, an unknown kind or an N below 1, is refused
    model, _, phi, ops = setup
    flow = HartreeFlow(phi, model, 1e-3)
    for columns in ([("full", 2), ("reduced", 2)], [("full", 2), ("full", 3)], [("bogus", 2)], [("reduced", 0)]):
        with pytest.raises(ValueError):
            list(fluctuation_trajectories(ops, columns, flow, [0.1], PropagationBudget()))


def test_route_parts_carry_the_operators_interaction_diagonal(setup):
    # the route's H_N parts take the pair-count diagonal the operators
    # hold, and every H_N filled from them is bit for bit the one from
    # parts that compute it
    model, basis, _, ops = setup
    route = ConjugatedRoute(ops, HartreeFlow(GEOMETRIC, model, 1e-3), [0.2])
    assert route.parts.interaction is ops.quartic_diag
    own = HamiltonianParts(model, basis)
    for n, top in ((2, basis.m_max), (5, 9)):
        got = fl.build_fock_hamiltonian(model, n, basis, parts=route.parts, top=top).matrix
        want = fl.build_fock_hamiltonian(model, n, basis, parts=own, top=top).matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError, match="does not match the basis"):
        HamiltonianParts(model, basis, interaction=ops.quartic_diag[:-1])

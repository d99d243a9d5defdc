import threading

import numpy as np
import pytest

import focklab as fl
from focklab.hartree import (
    HartreeFlow,
    _check_mass,
    _rhs_kernel,
    _rk4_step,
    energy,
    evolve_hartree,
    hartree_rhs,
    trajectory_csv_rows,
)
from focklab.model import POTENTIAL_KINDS, Potential
from oracles import hartree_at_numpy, hartree_nodes_numpy, hartree_rhs_numpy, mean_field_phase_simpson


def _model(d, kind="contact", strength=1.0):
    pots = {
        "zero": Potential.zero(d),
        "contact": Potential.contact(d, strength),
        "coulomb": Potential.soft_coulomb_1d(d, strength),
    }
    return fl.LatticeModel(d, pots[kind])


def _bump(d, seed=0):
    rng = np.random.default_rng(seed)
    phi = 1.0 + 0.4 * rng.standard_normal(d) + 0.3j * rng.standard_normal(d)
    return phi / np.linalg.norm(phi)


def test_uniform_state_is_stationary_when_free():
    model = _model(6, "zero")
    phi = np.full(6, 1 / np.sqrt(6), dtype=complex)
    assert np.linalg.norm(hartree_rhs(phi, model)) < 1e-15


def test_constant_potential_is_pure_phase():
    # v identically c: the mean-field term is c * phi because |phi| has unit mass
    c = 0.7
    model = fl.LatticeModel(4, Potential("gaussian-profile", c, np.full(4, c)))
    phi = _bump(4, 1)
    rhs = hartree_rhs(phi, model)
    free = fl.LatticeModel(4, Potential.zero(4))
    assert np.linalg.norm(rhs - hartree_rhs(phi, free) + 1j * c * phi) < 1e-14


def test_rhs_matches_finite_difference_of_flow():
    model = _model(5, "coulomb", 0.8)
    phi = _bump(5, 2)
    flow = HartreeFlow(phi, model, dt=1e-6)
    dt = 1e-6
    fd = (flow.at(dt) - flow.at(-dt)) / (2 * dt)
    assert np.linalg.norm(fd - hartree_rhs(phi, model)) < 1e-9


def test_free_eigenvector_evolves_by_phase():
    model = _model(5, "zero")
    w, u = np.linalg.eigh(model.kinetic)
    phi0 = u[:, 2].astype(complex)
    flow = HartreeFlow(phi0, model, dt=1e-3)
    t = 0.8
    assert np.linalg.norm(flow.at(t) - np.exp(-1j * w[2] * t) * phi0) < 1e-10
    assert np.allclose(np.abs(flow.at(t)), np.abs(phi0), atol=1e-10)


def test_mass_and_energy_conservation():
    model = _model(8, "contact", 1.0)
    samples = evolve_hartree(_bump(8, 3), model, 1e-3, np.linspace(0, 2, 9))
    e0 = samples[0].energy.total
    for s in samples:
        assert abs(s.mass - 1.0) < 1e-10
        assert abs(s.energy.total - e0) < 1e-8


def test_fourth_order_convergence():
    model = _model(6, "coulomb", 1.2)
    phi = _bump(6, 4)
    ref = HartreeFlow(phi, model, dt=1e-4).at(1.0)
    e_h = np.linalg.norm(HartreeFlow(phi, model, dt=0.02).at(1.0) - ref)
    e_h2 = np.linalg.norm(HartreeFlow(phi, model, dt=0.01).at(1.0) - ref)
    assert e_h / e_h2 == pytest.approx(16.0, abs=4.0)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", POTENTIAL_KINDS)
def test_flow_matches_numpy_reference(kind, d):
    # the scalar kernel against the numpy RK4 step: rhs, 1000 grid nodes each
    # way, and off-grid times reached by a partial step; each node's last
    # entry, g, against Simpson's rule on the numpy nodes at half the step,
    # within the RK4 error of g at dt = 1e-3 (measured <= 1.1e-11, at d = 2;
    # 16x smaller per halving of dt) and exactly 0 for V = 0
    pot = {
        "zero": Potential.zero(d),
        "contact": Potential.contact(d, 1.3),
        "gaussian-profile": Potential.gaussian_profile(d, 1.3),
        "soft-coulomb-1d": Potential.soft_coulomb_1d(d, 1.3),
    }[kind]
    model = fl.LatticeModel(d, pot)
    phi = _bump(d, 13)
    big = 2.5 * _bump(d, 14)
    assert np.max(np.abs(hartree_rhs(big, model) - hartree_rhs_numpy(big, model))) <= 1e-13
    flow = HartreeFlow(phi, model, dt=1e-3)
    for t in (0.9995, -0.9995, 0.3337):
        assert np.max(np.abs(flow.at(t) - hartree_at_numpy(phi, model, 1e-3, t))) <= 1e-13
    for sign in (1, -1):
        ref = np.array(hartree_nodes_numpy(phi, model, sign * 1e-3, 1000))
        got = np.array([flow._node(sign * k)[:-1] for k in range(1001)])
        assert np.max(np.abs(got - ref)) <= 1e-13
        g = flow._node(sign * 1000)[-1]
        assert abs(g - mean_field_phase_simpson(phi, model, 1e-3, sign * 1.0)) <= 2e-11
        assert (g == 0.0) == (kind == "zero")


def test_energy_examples():
    model = _model(2, "contact", 0.9)
    rep = energy(np.array([1.0, 0.0]), model)
    assert rep.kinetic == pytest.approx(2.0)
    assert rep.interaction == pytest.approx(0.45)
    assert rep.total == pytest.approx(2.45)

    free = _model(4, "zero")
    uniform = np.full(4, 0.5)
    assert energy(uniform, free).total == pytest.approx(0.0, abs=1e-15)


def test_phase_rotate():
    phi = _bump(5, 5)
    assert np.array_equal(fl.phase_rotate(phi, 0.0), phi)
    rot = fl.phase_rotate(phi, 1.3)
    assert np.allclose(np.abs(rot), np.abs(phi))


def test_gauge_covariance():
    model = _model(4, "contact", 1.1)
    phi = _bump(4, 6)
    theta = 0.77
    t = 1.5
    a = HartreeFlow(fl.phase_rotate(phi, theta), model, dt=1e-3).at(t)
    b = fl.phase_rotate(HartreeFlow(phi, model, dt=1e-3).at(t), theta)
    assert np.linalg.norm(a - b) < 1e-9


def test_reversibility():
    model = _model(6, "contact", 1.0)
    phi = _bump(6, 7)
    flow = HartreeFlow(phi, model, dt=1e-3)
    fwd = flow.at(1.0)
    back = HartreeFlow(fwd / np.linalg.norm(fwd), model, dt=1e-3).at(-1.0)
    assert np.linalg.norm(back - phi) < 1e-8


def test_flow_is_a_pure_function_of_time():
    # phi_t and g(t) do not depend on which times the flow was asked for
    # before, and each call returns a fresh array, so one flow can be shared
    model = _model(4, "contact", 1.1)
    phi = _bump(4, 11)
    flow = HartreeFlow(phi, model, dt=1e-3)
    flow.at(0.5)
    for t in (0.3, -0.2, 0.30025):
        assert np.array_equal(flow.at(t), HartreeFlow(phi, model, dt=1e-3).at(t))
        assert flow.phase(t) == HartreeFlow(phi, model, dt=1e-3).phase(t)
    got = flow.at(0.3)
    got[:] = 0.0
    assert np.array_equal(flow.at(0.3), HartreeFlow(phi, model, dt=1e-3).at(0.3))
    assert np.array_equal(flow.at(0.0), phi)


def test_shared_flow_under_threads():
    model = _model(4, "contact", 1.1)
    phi = _bump(4, 12)
    times = [[0.41, -0.13, 0.9, 0.0505], [0.9005, 0.07, -0.3, 0.41]]
    serial = HartreeFlow(phi, model, dt=1e-3)
    expected = [[serial.at(t) for t in ts] for ts in times]
    shared = HartreeFlow(phi, model, dt=1e-3)
    got = [None, None]
    start = threading.Barrier(2)

    def query(i):
        start.wait()
        got[i] = [shared.at(t) for t in times[i]]

    threads = [threading.Thread(target=query, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for g, e in zip(got, expected):
        assert all(np.array_equal(a, b) for a, b in zip(g, e))


def test_energy_h1_two_sided_control():
    # discrete energy and H1 norm control each other with model constants
    model = _model(5, "coulomb", 1.5)
    c = max(1.0, 0.5 * np.max(np.abs(model.potential.values)))
    rng = np.random.default_rng(8)
    for _ in range(50):
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi /= rng.uniform(0.5, 2.0) * np.linalg.norm(phi)
        m2 = np.linalg.norm(phi) ** 2
        h1 = m2 + np.vdot(phi, model.kinetic @ phi).real
        e = energy(phi, model).total
        assert e <= c * h1 * (1.0 + m2) + 1e-12
        assert h1 <= c * (e + m2**2 + m2) + 1e-12


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_flow_rejects_a_step_that_is_not_positive_and_finite(dt):
    # a NaN or infinite step would fail in the first step count, on a NaN
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        HartreeFlow(_bump(3, 9), _model(3, "contact", 1.0), dt=dt)


@pytest.mark.parametrize("d", [2, 4])
def test_flow_rejects_an_initial_state_of_another_length(d):
    # at d = 3 a unit vector of length 4 would be read as phi and g, and one
    # of length 2 would run off the kernel's rows
    with pytest.raises(ValueError, match="d = 3 amplitudes"):
        HartreeFlow(_bump(d, 9), _model(3, "contact", 1.0))


def test_blowup_detection():
    model = _model(3, "contact", 1.0)
    with pytest.raises(fl.NormalizationError):
        HartreeFlow(np.array([1.0, 1.0, 0.0]), model)
    # huge steps wreck the norm
    with pytest.raises(fl.BlowUpError):
        HartreeFlow(_bump(3, 9), model, dt=10.0).at(40.0)
    # a step whose squares overflow reads as a NaN mass, not an OverflowError
    with pytest.raises(fl.BlowUpError):
        HartreeFlow(_bump(3, 9), model, dt=1e200).at(1e200)
    # finite parts whose modulus abs() cannot hold: still a BlowUpError
    huge = [complex(1.5e308, 1.5e308), 0j, 0j]
    with pytest.raises(OverflowError):
        abs(huge[0])
    with pytest.raises(fl.BlowUpError):
        _check_mass(_rk4_step(huge, 1e-3, _rhs_kernel(model)))


def test_sample_grid_and_csv_rows():
    model = _model(3, "contact", 0.5)
    samples = evolve_hartree(_bump(3, 10), model, 1e-2, [0.0, 0.37, 1.0])
    assert [s.t for s in samples] == [0.0, 0.37, 1.0]
    rows = list(trajectory_csv_rows(samples))
    assert len(rows) == 9
    assert rows[0][0] == 0.0 and rows[0][1] == 0

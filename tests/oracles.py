"""Reference constructions used only by the test suite.

The tensor-grid routines work on the full N-particle grid (d^N amplitudes)
and are kept deliberately independent of the package's occupation-number
machinery.  The fluctuation and remainder routines are the direct paths the
package replaced by exact identities: every probe evolving its own
trajectories, and the remainder's K-node phase average.
"""

import itertools
import math

import numpy as np

from focklab.basis import FockVector, _sector_tuples, build_basis, number_moment
from focklab.decomposition import displaced_product_profile
from focklab.fluctuations import FluctuationOperators, evolve_fluctuation, generator_family
from focklab.hartree import HartreeFlow
from focklab.propagate import PropagationBudget, evolve_timedep


def first_quantized_hamiltonian(model, n):
    """sum_j T_j + (1/N) sum_{i<j} v(x_i - x_j) as a dense d^n x d^n matrix."""
    d = model.d
    dim = d**n
    h = np.zeros((dim, dim))
    for j in range(n):
        left = np.eye(d**j)
        right = np.eye(d ** (n - j - 1))
        h += np.kron(np.kron(left, model.kinetic), right)
    diag = np.zeros(dim)
    v = model.potential.values
    for idx, xs in enumerate(itertools.product(range(d), repeat=n)):
        diag[idx] = sum(v[(xs[i] - xs[j]) % d] for i in range(n) for j in range(i + 1, n)) / n
    return h + np.diag(diag)


def symmetrizer(d, n):
    """Isometry from the sector-n occupation basis into the tensor grid.

    Column for occupation tuple m holds sqrt(prod m_x! / n!) on every
    arrangement consistent with the counts, in the package's sector order.
    """
    tuples = list(_sector_tuples(d, n))
    col_of = {t: j for j, t in enumerate(tuples)}
    s = np.zeros((d**n, len(tuples)))
    for idx, xs in enumerate(itertools.product(range(d), repeat=n)):
        counts = tuple(xs.count(site) for site in range(d))
        w = math.sqrt(
            math.prod(math.factorial(c) for c in counts) / math.factorial(n)
        )
        s[idx, col_of[counts]] = w
    return s, tuples


def tensor_partial_trace(psi_tensor, d, n):
    """One-particle marginal of a (possibly non-symmetric) n-particle vector."""
    a = psi_tensor.reshape(d, d ** (n - 1))
    return a @ a.conj().T


def fluctuation_probe_rows(config):
    """Moments, gaps, parity and limiting rows of the fluctuation suite, each
    probe evolving its own trajectories from the vacuum (integer m_max)."""
    model = config.model
    basis = build_basis(model.d, config.m_max)
    ops = FluctuationOperators(model, basis)
    budget = PropagationBudget(tol=config.propagation_tol, dt=config.fluctuation_dt)
    vac = FockVector.vacuum(basis)
    t_end = max(config.t_samples)

    def flow():
        return HartreeFlow(config.phi0, model, config.hartree_dt)

    def evolve(kind, n, hartree, psi, s, t):
        return evolve_fluctuation(kind, model, n, hartree, psi, s, t, budget, ops=ops)

    rows = {"moments": [], "gaps": [], "parity": [], "limiting": []}
    for n in config.n_values:
        hartree, psi, t_prev = flow(), vac, 0.0
        for t in sorted(config.t_samples):
            psi, t_prev = evolve("full", n, hartree, psi, t_prev, t), t
            rows["moments"].append(("full", n, 1, t, number_moment(psi, 1)))
        hartree, psi_f, psi_r, t_prev = flow(), vac, vac, 0.0
        for t in sorted(set(config.t_samples)):
            psi_f = evolve("full", n, hartree, psi_f, t_prev, t)
            psi_r = evolve("reduced", n, hartree, psi_r, t_prev, t)
            t_prev = t
            rows["gaps"].append(("full-vs-reduced", n, "", t, float(np.linalg.norm(psi_f.amp - psi_r.amp))))
        u = evolve("reduced", n, flow(), vac, 0.0, t_end)
        defect = max(abs(complex(np.vdot(u.amp, basis.annihilator(x) @ u.amp))) for x in range(model.d))
        rows["parity"].append(("reduced", n, "", t_end, defect))
    hartree = flow()
    u_lim = evolve("limiting", 1, hartree, vac, 0.0, t_end)
    for n in config.n_values:
        u_n = evolve("full", n, hartree, vac, 0.0, t_end)
        rows["limiting"].append(("full-vs-limiting", n, "", t_end, float(np.linalg.norm(u_n.amp - u_lim.amp))))
    return rows


def remainder_phase_average(model, n, phi0, t, k_points, basis, budget, hartree_dt=1e-3):
    """f_N(x) as the K-node trapezoid over theta, every node evolving its
    own profile and vacuum under the gauge-rotated full dynamics."""
    flow = HartreeFlow(phi0, model, hartree_dt)
    ops = FluctuationOperators(model, basis)
    vac = FockVector.vacuum(basis)
    f = np.zeros(model.d, dtype=complex)
    for k in range(k_points):
        theta = 2.0 * math.pi * k / k_points
        gen = generator_family(ops, "full", n, flow, phase=-theta)
        psi = evolve_timedep(gen, displaced_product_profile(phi0, n, theta, basis, budget), 0.0, t, budget)
        fwd_vac = evolve_timedep(gen, vac, 0.0, t, budget)
        f += [np.vdot(psi.amp, basis.annihilator(x) @ fwd_vac.amp) for x in range(model.d)]
    return f / k_points

"""Discrete nonlinear Hartree equation on the ring, integrated with classical
fixed-step RK4, plus mass/energy diagnostics.

i d/dt phi = T phi + (v (*) |phi|^2) phi, with (*) the periodic convolution.
The mean-field term is computed directly (O(d^2)); d is small throughout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .errors import BlowUpError, NormalizationError
from .model import LatticeModel

MASS_BLOWUP = 1e-6


@dataclass
class EnergyReport:
    kinetic: float
    interaction: float

    @property
    def total(self) -> float:
        return self.kinetic + self.interaction


@dataclass
class TrajectorySample:
    t: float
    phi: np.ndarray
    mass: float
    energy: EnergyReport


def hartree_rhs(phi: np.ndarray, model: LatticeModel) -> np.ndarray:
    """-i [ T phi + (v (*) |phi|^2) . phi ]."""
    phi = np.asarray(phi, dtype=complex)
    mean_field = model.vmat @ (np.abs(phi) ** 2)
    return -1j * (model.kinetic @ phi + mean_field * phi)


def energy(phi: np.ndarray, model: LatticeModel) -> EnergyReport:
    phi = np.asarray(phi, dtype=complex)
    dens = np.abs(phi) ** 2
    kin = float(np.vdot(phi, model.kinetic @ phi).real)
    inter = float(0.5 * dens @ (model.vmat @ dens))
    return EnergyReport(kin, inter)


def phase_rotate(phi: np.ndarray, theta: float) -> np.ndarray:
    """e^{i theta} phi; a global gauge under which the flow is covariant."""
    return np.exp(1j * theta) * np.asarray(phi, dtype=complex)


def _rk4_step(phi: np.ndarray, h: float, model: LatticeModel) -> np.ndarray:
    k1 = hartree_rhs(phi, model)
    k2 = hartree_rhs(phi + 0.5 * h * k1, model)
    k3 = hartree_rhs(phi + 0.5 * h * k2, model)
    k4 = hartree_rhs(phi + h * k3, model)
    return phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_mass(phi: np.ndarray):
    drift = abs(np.linalg.norm(phi) - 1.0)
    if not drift <= MASS_BLOWUP:  # also catches NaN from a diverged step
        raise BlowUpError(f"mass drift {drift:.2e} exceeds {MASS_BLOWUP:.0e}")


def _integrate(phi: np.ndarray, t_span: float, dt: float, model: LatticeModel) -> np.ndarray:
    """Advance by t_span (either sign) in equal RK4 steps of size <= dt."""
    if t_span == 0.0:
        return phi.copy()
    n_steps = max(1, ceil(abs(t_span) / dt))
    h = t_span / n_steps
    out = phi
    with np.errstate(invalid="ignore", over="ignore"):  # divergence is caught below
        for _ in range(n_steps):
            out = _rk4_step(out, h, model)
    _check_mass(out)
    return out


class HartreeFlow:
    """The Hartree flow phi_t as a pure function of t.

    RK4 runs at the fixed step dt on the grid k dt, extended outward from 0
    on demand in either direction; an off-grid t is reached by one partial
    step from the grid point floor(t/dt).  phi_t therefore does not depend
    on which times were asked for before, so one flow can be shared by
    every consumer (and every thread) of a suite.  Intermediate times are
    never interpolated, so every consumer sees a single accuracy budget.
    """

    def __init__(self, phi0: np.ndarray, model: LatticeModel, dt: float = 1e-3):
        phi0 = np.asarray(phi0, dtype=complex)
        if abs(np.linalg.norm(phi0) - 1.0) > 1e-12:
            raise NormalizationError("phi0 must be normalized to unit mass")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.model = model
        self.dt = dt
        # phi at +k dt and at -k dt for k = 0, 1, ...; both lists only grow
        self._forward = [phi0.copy()]
        self._backward = [phi0.copy()]
        self._lock = threading.Lock()

    def _node(self, k: int) -> np.ndarray:
        nodes, i, h = (self._forward, k, self.dt) if k >= 0 else (self._backward, -k, -self.dt)
        if i >= len(nodes):
            with self._lock, np.errstate(invalid="ignore", over="ignore"):
                while len(nodes) <= i:
                    phi = _rk4_step(nodes[-1], h, self.model)
                    _check_mass(phi)
                    nodes.append(phi)
        return nodes[i]

    def at(self, t: float) -> np.ndarray:
        """phi_t, as a fresh array the caller may modify."""
        t = float(t)
        k = floor(t / self.dt)
        return _integrate(self._node(k), t - k * self.dt, self.dt, self.model)


def evolve_hartree(
    phi0: np.ndarray,
    model: LatticeModel,
    t_final: float,
    dt: float,
    sample_times=None,
) -> list[TrajectorySample]:
    """Integrate to t_final, reporting mass and energy at each sample time."""
    if sample_times is None:
        sample_times = [0.0, t_final]
    sample_times = [float(t) for t in sample_times]
    if any(t > t_final + 1e-12 for t in sample_times) and t_final >= 0:
        raise ValueError("sample times must not exceed t_final")
    flow = HartreeFlow(phi0, model, dt)
    out = []
    for t in sample_times:
        phi = flow.at(t)
        out.append(TrajectorySample(t, phi, float(np.linalg.norm(phi)), energy(phi, model)))
    return out


def trajectory_csv_rows(samples: list[TrajectorySample]):
    """Rows (t, site, Re phi, Im phi, mass, energy) for CSV export."""
    for s in samples:
        for x, a in enumerate(s.phi):
            yield (s.t, x, a.real, a.imag, s.mass, s.energy.total)

"""Discrete nonlinear Hartree equation on the ring, integrated with classical
fixed-step RK4, plus mass/energy diagnostics.

i d/dt phi = T phi + (v (*) |phi|^2) phi, with (*) the periodic convolution.
The mean-field term is computed directly (O(d^2)); d is small throughout.

The RK4 step runs on a list of Python ``complex`` numbers, not on a numpy
array: at the d of every config (3) a step on length-d arrays is nearly all
per-call overhead, about 50 numpy calls of a few hundred ns each.  The
right-hand side is built once per flow from the rows of nonzero entries of
``-i T`` and of the circulant ``v(x - y)``.  Its cost grows as d^2 where
numpy's barely moves, so the scalar step is the faster up to d = 6 and the
slower from d = 8 on (timings in the README); no config runs at d >= 7.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import ceil, floor, inf, sqrt
from typing import Callable

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


def _rhs_kernel(model: LatticeModel) -> Callable[[list[complex]], list[complex]]:
    """The right-hand side ``-i [T phi + (v (*) |phi|^2) phi]`` as a function
    on a list of d complex amplitudes.

    Row x holds the nonzero entries of row x of ``-i T`` and of the circulant
    ``v(x - y)``.  The arithmetic is the numpy step's, term by term and in
    the same order, up to the summation order of its BLAS matrix products.
    """
    t, v, d = model.kinetic, model.vmat, model.d
    rows = tuple(
        (
            tuple((y, -1j * t[x, y].item()) for y in range(d) if t[x, y] != 0.0),
            tuple((y, v[x, y].item()) for y in range(d) if v[x, y] != 0.0),
        )
        for x in range(d)
    )

    def rhs(phi: list[complex]) -> list[complex]:
        # abs() raises OverflowError beyond the float range; _rk4_step catches it
        dens = [a * a for a in map(abs, phi)]
        out = []
        for (hop, pair), p in zip(rows, phi):
            s = 0j
            for y, c in hop:
                s += c * phi[y]
            m = 0.0
            for y, c in pair:
                m += c * dens[y]
            out.append(s - 1j * (m * p))
        return out

    return rhs


def hartree_rhs(phi: np.ndarray, model: LatticeModel) -> np.ndarray:
    """-i [ T phi + (v (*) |phi|^2) . phi ]."""
    return np.array(_rhs_kernel(model)(np.asarray(phi, dtype=complex).tolist()))


def energy(phi: np.ndarray, model: LatticeModel) -> EnergyReport:
    phi = np.asarray(phi, dtype=complex)
    dens = np.abs(phi) ** 2
    kin = float(np.vdot(phi, model.kinetic @ phi).real)
    inter = float(0.5 * dens @ (model.vmat @ dens))
    return EnergyReport(kin, inter)


def phase_rotate(phi: np.ndarray, theta: float) -> np.ndarray:
    """e^{i theta} phi; a global gauge under which the flow is covariant."""
    return np.exp(1j * theta) * np.asarray(phi, dtype=complex)


def _rk4_step(phi: list[complex], h: float, rhs) -> list[complex]:
    a = 0.5 * h
    try:
        k1 = rhs(phi)
        k2 = rhs([p + a * k for p, k in zip(phi, k1)])
        k3 = rhs([p + a * k for p, k in zip(phi, k2)])
        k4 = rhs([p + h * k for p, k in zip(phi, k3)])
    except OverflowError:  # a diverged step: left to the mass check
        return [complex("nan")] * len(phi)
    h6 = h / 6.0
    return [p + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4) for p, q1, q2, q3, q4 in zip(phi, k1, k2, k3, k4)]


def _check_mass(phi: list[complex]):
    drift = abs(sqrt(sum([z.real * z.real + z.imag * z.imag for z in phi])) - 1.0)
    if not drift <= MASS_BLOWUP:  # also catches NaN from a diverged step
        raise BlowUpError(f"mass drift {drift:.2e} exceeds {MASS_BLOWUP:.0e}")


def _integrate(phi: list[complex], t_span: float, dt: float, rhs) -> list[complex]:
    """Advance by t_span (either sign) in equal RK4 steps of size <= dt."""
    if t_span == 0.0:
        return phi
    n_steps = max(1, ceil(abs(t_span) / dt))
    h = t_span / n_steps
    out = phi
    for _ in range(n_steps):
        out = _rk4_step(out, h, rhs)
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
        if not 0 < dt < inf:  # NaN included
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.model = model
        self.dt = dt
        self._rhs = _rhs_kernel(model)
        # phi at +k dt and at -k dt for k = 0, 1, ..., each a list of d
        # complex amplitudes; both lists only grow
        node0 = phi0.tolist()
        self._forward = [node0]
        self._backward = [node0]
        self._lock = threading.Lock()

    def _node(self, k: int) -> list[complex]:
        nodes, i, h = (self._forward, k, self.dt) if k >= 0 else (self._backward, -k, -self.dt)
        if i >= len(nodes):
            with self._lock:
                while len(nodes) <= i:
                    phi = _rk4_step(nodes[-1], h, self._rhs)
                    _check_mass(phi)
                    nodes.append(phi)
        return nodes[i]

    def at(self, t: float) -> np.ndarray:
        """phi_t, as a fresh array the caller may modify."""
        t = float(t)
        k = floor(t / self.dt)
        return np.array(_integrate(self._node(k), t - k * self.dt, self.dt, self._rhs))


def evolve_hartree(phi0: np.ndarray, model: LatticeModel, dt: float, sample_times) -> list[TrajectorySample]:
    """phi_t with its mass and energy at each sample time, in the given order."""
    flow = HartreeFlow(phi0, model, dt)
    out = []
    for t in map(float, sample_times):
        phi = flow.at(t)
        out.append(TrajectorySample(t, phi, float(np.linalg.norm(phi)), energy(phi, model)))
    return out


def trajectory_csv_rows(samples: list[TrajectorySample]):
    """Rows (t, site, Re phi, Im phi, mass, energy) for CSV export."""
    for s in samples:
        for x, a in enumerate(s.phi):
            yield (s.t, x, a.real, a.imag, s.mass, s.energy.total)

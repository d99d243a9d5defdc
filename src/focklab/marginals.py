"""One-particle reduced density matrices and distance metrics.

Two independent constructions are provided: a partial trace over the other
N-1 particles for fixed-sector states, and the ladder-operator kernel
<psi, a*_y a_x psi> / <psi, N psi> for general Fock vectors.  They agree
entrywise on sector states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FockVector, number_moment
from .errors import NormalizationError

HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10
TRACE_TOL = 1e-10


@dataclass
class DensityMatrix:
    """d x d Hermitian, positive semidefinite, unit-trace matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        self.mat = m
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < PSD_FLOOR:
            raise ValueError("density matrix has an eigenvalue below the -1e-10 floor")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 by more than 1e-10")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _single_sector(psi: FockVector) -> int:
    w = psi.sector_weights()
    n = int(np.argmax(w))
    if np.sum(w) - w[n] > 1e-20:
        raise ValueError("state is supported on more than one number sector")
    return n


def marginal_from_sector(psi: FockVector) -> DensityMatrix:
    """Partial trace of |psi><psi| over all but one particle, for psi in a
    single number sector.  gamma(x;y) = <psi(y,.), psi(x,.)> with psi(x,.)
    the (N-1)-particle expansion obtained by removing one particle at x."""
    if abs(psi.norm() - 1.0) > 1e-10:
        raise NormalizationError("sector marginal requires a unit-norm state")
    n = _single_sector(psi)
    if n == 0:
        raise ValueError("the vacuum has no one-particle marginal")
    basis = psi.basis
    lower = basis.sector_states(n - 1)
    w = np.empty((len(lower), basis.d), dtype=complex)
    for x in range(basis.d):
        occ = lower.copy()
        occ[:, x] += 1
        w[:, x] = np.sqrt(lower[:, x] + 1.0) * psi.amp[basis.indices_of(occ)]
    gamma = (w.T @ w.conj()) / n
    return DensityMatrix(gamma)


def marginal_from_fock(psi: FockVector) -> DensityMatrix:
    """gamma(x;y) = <psi, a*_y a_x psi> / <psi, N psi> via ladder matrices."""
    basis = psi.basis
    n_expect = number_moment(psi, 1)
    if n_expect <= 0.0:
        raise ValueError("zero particle expectation: marginal undefined")
    cols = np.column_stack([basis.annihilator(x) @ psi.amp for x in range(basis.d)])
    gamma = (cols.T @ cols.conj()) / n_expect
    return DensityMatrix(gamma)


def rank_one(phi: np.ndarray) -> DensityMatrix:
    """|phi><phi| for a normalized one-particle amplitude."""
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
        raise NormalizationError("rank-one projector requires a unit vector")
    return DensityMatrix(np.outer(phi, phi.conj()))


def _check_dims(a: DensityMatrix, b: DensityMatrix):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Sum of absolute eigenvalues of a - b."""
    _check_dims(a, b)
    return float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))


def hs_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Frobenius norm of a - b."""
    _check_dims(a, b)
    return float(np.linalg.norm(a.mat - b.mat))

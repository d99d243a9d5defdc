"""Lattice model: kinetic matrix, pair potentials, and the mean-field
Hamiltonian in sector (fixed particle number) and full Fock form.

The one-particle space is a periodic ring of d sites with counting measure;
the kinetic matrix is the nearest-neighbor lattice Laplacian -Delta.  The
pair coupling carries the mean-field factor 1/N, stored with the assembled
Hamiltonian rather than folded into the potential so the same potential can
serve scans over N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.sparse import csr_matrix

from .basis import (
    DEFAULT_CAPACITY,
    FockVector,
    OccupationBasis,
    _sector_tuples,
    log_factorials,
    sector_dimension,
)
from .errors import CapacityError, NormalizationError

POTENTIAL_KINDS = ("zero", "contact", "gaussian-profile", "soft-coulomb-1d")


def ring_distance(r: np.ndarray, d: int) -> np.ndarray:
    r = np.mod(r, d)
    return np.minimum(r, d - r)


@dataclass(frozen=True)
class Potential:
    """Even periodic pair potential v(r), r a site difference mod d."""

    kind: str
    strength: float
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        d = len(v)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential table must be finite")
        if not np.allclose(v, v[(-np.arange(d)) % d], rtol=0, atol=0):
            raise ValueError("potential table must satisfy v(r) = v(-r mod d)")

    @classmethod
    def zero(cls, d: int) -> "Potential":
        return cls("zero", 0.0, np.zeros(d))

    @classmethod
    def contact(cls, d: int, strength: float = 1.0) -> "Potential":
        v = np.zeros(d)
        v[0] = strength
        return cls("contact", strength, v)

    @classmethod
    def gaussian_profile(cls, d: int, strength: float = 1.0, width: float | None = None) -> "Potential":
        w = width if width is not None else d / 4.0
        if not w > 0:
            raise ValueError("Gaussian width must be positive")
        r = ring_distance(np.arange(d), d).astype(float)
        return cls("gaussian-profile", strength, strength * np.exp(-(r**2) / (2.0 * w**2)))

    @classmethod
    def soft_coulomb_1d(cls, d: int, strength: float = 1.0, a0: float = 1.0) -> "Potential":
        if a0 <= 0:
            raise ValueError("core softening a0 must be positive")
        r = ring_distance(np.arange(d), d).astype(float)
        return cls("soft-coulomb-1d", strength, strength / (r + a0))


def kinetic_matrix(d: int) -> np.ndarray:
    """Periodic nearest-neighbor -Delta: 2 on the diagonal, -1 on neighbors."""
    t = 2.0 * np.eye(d)
    for x in range(d):
        t[x, (x + 1) % d] -= 1.0
        t[x, (x - 1) % d] -= 1.0
    return t


@dataclass(frozen=True)
class LatticeModel:
    d: int
    potential: Potential
    kinetic: np.ndarray = field(default=None)  # type: ignore[assignment]
    vmat: np.ndarray = field(init=False, repr=False, compare=False)  # the circulant v(x - y)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least 2 sites")
        if len(self.potential.values) != self.d:
            raise ValueError("potential table length must equal d")
        if self.kinetic is None:
            object.__setattr__(self, "kinetic", kinetic_matrix(self.d))
        sites = np.arange(self.d)
        object.__setattr__(self, "vmat", self.potential.values[(sites[:, None] - sites) % self.d])


@dataclass
class SectorHamiltonian:
    """H_N on the fixed-N occupation basis, pair term carrying 1/N."""

    n_particles: int
    matrix: csr_matrix
    states: np.ndarray


@dataclass
class FockHamiltonian:
    """Second-quantized Hamiltonian on the truncated basis; block-diagonal
    across number sectors and equal to the sector Hamiltonian on each block."""

    coupling_n: int
    matrix: csr_matrix
    basis: OccupationBasis


def interaction_diagonal(states: np.ndarray, model: LatticeModel) -> np.ndarray:
    """Diagonal of (1/2) sum_{x,y} v(x-y) a*_x a*_y a_y a_x = pair counts."""
    occ = states.astype(float)
    v = model.vmat
    quad = np.einsum("ix,xy,iy->i", occ, v, occ)
    return 0.5 * (quad - model.potential.values[0] * occ.sum(axis=1))


class HamiltonianParts:
    """The parts of H_N = T + V/N on one basis that do not depend on N.

    ``hopping`` is dGamma(T) in CSR with every diagonal entry stored, zeros
    included, at ``diagonal``: one ladder product t_xy a*_x a_y for each
    nonzero t_xy off the diagonal, and sum_x t_xx n_x on it.
    ``interaction`` is the pair-count diagonal V (``interaction_diagonal``),
    or the array given for it, which must be that diagonal: the
    fluctuation operators of the same basis already hold it
    (``FluctuationOperators.quartic_diag``).  So each N's H_N is one
    fill of a copy of the hopping data (``build_fock_hamiltonian``), and
    every diagonal entry stays stored.  H_N conserves the number, so its
    rows on the sectors [0, top] hold no entry beyond them: they are H_N
    on the basis cut at top.  ``model`` and ``basis`` are the ones they
    are built for.  Read-only once built.
    """

    def __init__(self, model: LatticeModel, basis: OccupationBasis, *, interaction: np.ndarray | None = None):
        if basis.d != model.d:
            raise ValueError("basis and model disagree on d")
        if interaction is not None and np.shape(interaction) != (basis.size,):
            raise ValueError("the interaction diagonal does not match the basis")
        t, size = model.kinetic, basis.size
        every = np.arange(size)
        root = np.sqrt(basis.states.astype(float))
        # sqrt(n_x) (t_xx sqrt(n_x)) on the diagonal, as the product a*_x a_x holds it
        entries = [(sum(root[:, x] * (t[x, x] * root[:, x]) for x in range(model.d)), every, every)]
        for x, y in zip(*np.nonzero((t != 0.0) & ~np.eye(model.d, dtype=bool))):
            # t_xy a*_x a_y: a_y lowers a state, and a*_x raises the result
            # to the one state a_x maps onto it, the one entry of its row in a_x
            down, up = basis.annihilator(y).tocoo(), basis.annihilator(x)
            at = up.indptr[down.row]
            entries.append((up.data[at] * (t[x, y] * down.data), up.indices[at], down.col))
        data, rows, cols = (np.concatenate(column) for column in zip(*entries))
        self.hopping = csr_matrix((data, (rows, cols)), shape=(size, size))  # canonical, explicit zeros kept
        h = self.hopping
        self.diagonal = np.flatnonzero(h.indices == np.repeat(every, np.diff(h.indptr))).astype(np.int32)
        self.interaction = interaction_diagonal(basis.states, model) if interaction is None else interaction
        self.model = model
        self.basis = basis

    def fill(self, n: int, top: int) -> csr_matrix:
        """H_N on the sectors [0, top], every diagonal entry stored."""
        rows = int(self.basis.sector_offsets[top + 1])
        end = int(self.hopping.indptr[rows])
        data = self.hopping.data[:end].copy()
        data[self.diagonal[:rows]] += self.interaction[:rows] / n
        return csr_matrix((data, self.hopping.indices[:end], self.hopping.indptr[: rows + 1]), shape=(rows, rows))


def build_fock_hamiltonian(
    model: LatticeModel,
    n: int,
    basis: OccupationBasis,
    parts: HamiltonianParts | None = None,
    top: int | None = None,
) -> FockHamiltonian:
    """H_N on the sectors [0, top] of ``basis`` (default: every sector),
    filled from ``parts`` (of this model and basis; built here when not
    given).  A ``top`` outside 0..m_max, or parts built for another basis
    or model object, is a ``ValueError``."""
    if n < 1:
        raise ValueError("coupling parameter N must be >= 1")
    if basis.d != model.d:
        raise ValueError("basis and model disagree on d")
    top = basis.m_max if top is None else top
    if not 0 <= top <= basis.m_max:
        raise ValueError(f"top sector {top} outside 0..{basis.m_max}")
    if parts is None:
        parts = HamiltonianParts(model, basis)
    elif parts.basis is not basis or parts.model is not model:
        raise ValueError("the parts belong to another basis or model")
    return FockHamiltonian(n, parts.fill(n, top), basis)


def build_sector_hamiltonian(
    model: LatticeModel, n: int, capacity: int = DEFAULT_CAPACITY
) -> SectorHamiltonian:
    """H_N = sum_j T_j + (1/N) sum_{i<j} v(x_i - x_j) on the sector-N basis.

    Assembled directly from occupation moves, independently of the Fock-space
    ladder matrices.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    d = model.d
    dim = sector_dimension(d, n)
    if dim > capacity:
        raise CapacityError(f"sector N={n} has dimension {dim} > capacity {capacity}")
    tuples = list(_sector_tuples(d, n))
    index = {s: i for i, s in enumerate(tuples)}
    states = np.array(tuples, dtype=np.int64)
    t = model.kinetic
    rows, cols, vals = [], [], []
    # diagonal: kinetic on-site + particle-pair interaction
    occ = states.astype(float)
    diag = occ @ np.diag(t)
    v = model.potential.values
    for x in range(d):
        diag += v[0] / n * occ[:, x] * (occ[:, x] - 1.0) / 2.0
        for y in range(x + 1, d):
            diag += v[(x - y) % d] / n * occ[:, x] * occ[:, y]
    rows.extend(range(dim))
    cols.extend(range(dim))
    vals.extend(diag)
    # hopping: move one particle from y to x
    for i, s in enumerate(tuples):
        for y in range(d):
            if s[y] == 0:
                continue
            for x in range(d):
                if x == y or t[x, y] == 0.0:
                    continue
                target = list(s)
                target[y] -= 1
                target[x] += 1
                j = index[tuple(target)]
                rows.append(j)
                cols.append(i)
                vals.append(t[x, y] * np.sqrt(s[y] * (s[x] + 1.0)))
    mat = csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return SectorHamiltonian(n, mat, states)


def product_amplitudes(phi: np.ndarray, n: int, states: np.ndarray) -> np.ndarray:
    """Amplitudes of the symmetrized phi^{x N} on sector-N occupation tuples:
    sqrt(N!/prod n_x!) prod phi_x^{n_x}."""
    log_fact = log_factorials(n)
    log_w = 0.5 * (log_fact[n] - log_fact[states].sum(axis=1))
    powers = np.prod(np.asarray(phi, dtype=complex)[None, :] ** states, axis=1)
    return np.exp(log_w) * powers


def embed_product_state(phi: np.ndarray, n: int, basis: OccupationBasis) -> FockVector:
    """The N-fold product of phi as a unit vector supported on sector N."""
    phi = np.asarray(phi, dtype=complex)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > 1e-12:
        raise NormalizationError(f"phi must be normalized; |norm - 1| = {abs(nrm - 1.0):.2e}")
    if n > basis.m_max:
        raise ValueError(f"sector {n} exceeds the cutoff m_max={basis.m_max}")
    amp = np.zeros(basis.size, dtype=complex)
    sl = basis.sector_slice(n)
    amp[sl] = product_amplitudes(phi, n, basis.sector_states(n))
    return FockVector(basis, amp)

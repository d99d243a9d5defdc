"""Occupation-number basis for bosons on a periodic lattice, truncated at a
total particle number, with sparse ladder operators.

The basis is graded: states are grouped by total occupation n (sectors), and
within each sector ordered lexicographically with the site-0 occupation
descending, so e.g. for d=2 the order is (0,0), (1,0), (0,1), (2,0), (1,1),
(0,2), ...  Sector blocks are contiguous, which makes sector projections and
number-operator moments cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, lgamma
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix

from .errors import CapacityError

DEFAULT_CAPACITY = 500_000


def sector_dimension(d: int, n: int) -> int:
    """Number of occupation tuples of d sites summing to n."""
    return comb(n + d - 1, d - 1)


def basis_dimension(d: int, m_max: int) -> int:
    """Total number of tuples with sum <= m_max."""
    return comb(m_max + d, d)


def log_factorials(m: int) -> np.ndarray:
    """log k! for k = 0..m, indexed by k (so ``log_factorials(m)[states]``
    holds log n_x! for occupation tuples with entries <= m)."""
    return np.array([lgamma(k + 1) for k in range(m + 1)])


def _sector_tuples(d: int, n: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (n,)
        return
    for k in range(n, -1, -1):
        for rest in _sector_tuples(d - 1, n - k):
            yield (k,) + rest


class OccupationBasis:
    """Occupation tuples (n_0, ..., n_{d-1}) with sum(n) <= m_max.

    A tuple's position is a combinatorial rank (``indices_of``), so no
    tuple -> index map is stored, and the tuples are built by unranking
    every position.  The per-site annihilation matrices, from
    which every composite operator in the package is built, are built here
    from that rank, so a basis is read-only once constructed.  The tables
    of the Weyl operators (``mode_rotation``) are built on first use and
    kept with the basis.
    """

    def __init__(self, d: int, m_max: int, capacity: int = DEFAULT_CAPACITY):
        if d < 2:
            raise ValueError(f"need at least 2 sites, got d={d}")
        if m_max < 0:
            raise ValueError(f"m_max must be >= 0, got {m_max}")
        size = basis_dimension(d, m_max)
        if size > capacity:
            raise CapacityError(
                f"basis with d={d}, m_max={m_max} has {size} states,"
                f" exceeding the capacity bound {capacity}"
            )
        self.d = d
        self.m_max = m_max
        self.size = size
        # _ranks[j, r]: the tuples of j sites with sum < r; all below size, so exact
        self._ranks = np.array(
            [[comb(r + j - 1, j) if r else 0 for r in range(m_max + 1)] for j in range(d + 1)],
            dtype=np.int64,
        )
        self.sector_offsets = np.append(self._ranks[d], size)
        # unrank every position: the tail sums of indices_of, site by site,
        # each the largest r whose rank term fits in what is left
        rest = np.arange(size, dtype=np.int64)
        tails = np.empty((size, d), dtype=np.int64)
        for x in range(d):
            ranks = self._ranks[d - x]
            tails[:, x] = np.searchsorted(ranks, rest, side="right") - 1
            rest -= ranks[tails[:, x]]
        self.states = tails.copy()
        self.states[:, :-1] -= tails[:, 1:]
        self.totals = tails[:, 0]
        self._annihilators: dict[int, csr_matrix] = {}
        for x in range(d):
            src = np.nonzero(self.states[:, x] > 0)[0]
            occ = self.states[src].copy()
            occ[:, x] -= 1
            vals = np.sqrt(self.states[src, x].astype(float))
            self._annihilators[x] = csr_matrix(
                (vals, (self.indices_of(occ), src)), shape=(self.size, self.size)
            )

    def indices_of(self, occ) -> np.ndarray:
        """Basis positions of the occupation tuples in the rows of ``occ``.

        Sectors come in order of the total, and among tuples that agree on
        the sites before x a larger n_x comes first.  So the rank adds the
        lower sectors and, for each site x, the tuples with a larger n_x:
        those whose sites after x hold fewer particles than ``occ`` does.
        """
        occ = np.asarray(occ, dtype=np.int64)
        if occ.ndim != 2 or occ.shape[1] != self.d:
            raise ValueError(f"occupation tuples must have {self.d} entries")
        tails = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]  # tails[:, x] = sum_{y >= x} n_y
        if occ.size and (occ.min() < 0 or tails[:, 0].max() > self.m_max):
            raise ValueError(f"occupation tuple outside the basis (entries >= 0, sum <= {self.m_max})")
        return self._ranks[np.arange(self.d, 0, -1), tails].sum(axis=1)

    def index_of(self, occ) -> int:
        return int(self.indices_of([occ])[0])

    def state_of(self, i: int) -> tuple[int, ...]:
        return tuple(int(n) for n in self.states[i])

    def sector_slice(self, n: int) -> slice:
        if not 0 <= n <= self.m_max:
            raise ValueError(f"sector {n} outside 0..{self.m_max}")
        return slice(int(self.sector_offsets[n]), int(self.sector_offsets[n + 1]))

    def sector_states(self, n: int) -> np.ndarray:
        return self.states[self.sector_slice(n)]

    def annihilator(self, x: int) -> csr_matrix:
        """Sparse matrix of a_x: maps |n> to sqrt(n_x) |n - e_x>."""
        if not 0 <= x < self.d:
            raise ValueError(f"site {x} outside 0..{self.d - 1}")
        return self._annihilators[x]

    def creator(self, x: int) -> csr_matrix:
        """Adjoint of annihilator(x); the image beyond m_max is dropped."""
        return self.annihilator(x).conj().T.tocsr()

    @cached_property
    def mode_rotation(self):
        """The index tables and block factorizations ``weyl.weyl_apply`` runs
        on (``weyl.ModeRotation``), built on first use."""
        from .weyl import ModeRotation  # weyl builds on this module

        return ModeRotation(self)

    def number_diagonal(self) -> np.ndarray:
        return self.totals.astype(float)

    def parity_diagonal(self) -> np.ndarray:
        """Diagonal of (-1)^N."""
        return np.where(self.totals % 2 == 0, 1.0, -1.0)


def build_basis(d: int, m_max: int, capacity: int = DEFAULT_CAPACITY) -> OccupationBasis:
    return OccupationBasis(d, m_max, capacity=capacity)


@dataclass
class FockVector:
    """Complex amplitudes over an OccupationBasis."""

    basis: OccupationBasis
    amp: np.ndarray

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude shape {self.amp.shape} does not match basis size {self.basis.size}"
            )

    @classmethod
    def vacuum(cls, basis: OccupationBasis) -> "FockVector":
        amp = np.zeros(basis.size, dtype=complex)
        amp[0] = 1.0
        return cls(basis, amp)

    @classmethod
    def unit(cls, basis: OccupationBasis, occ) -> "FockVector":
        amp = np.zeros(basis.size, dtype=complex)
        amp[basis.index_of(occ)] = 1.0
        return cls(basis, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def inner(self, other: "FockVector") -> complex:
        return complex(np.vdot(self.amp, other.amp))

    def copy(self) -> "FockVector":
        return FockVector(self.basis, self.amp.copy())

    def sector_weights(self) -> np.ndarray:
        """Probability weight per total-occupation sector (unnormalized)."""
        w = np.abs(self.amp) ** 2
        off = self.basis.sector_offsets
        return np.add.reduceat(w, off[:-1])


def annihilate(x: int, psi: FockVector) -> FockVector:
    """a_x psi; sends n_x = 0 components to zero."""
    return FockVector(psi.basis, psi.basis.annihilator(x) @ psi.amp)


def number_moment(psi: FockVector, j: int) -> float:
    """<psi, N^j psi> computed exactly from sector weights."""
    w = psi.sector_weights()
    n = np.arange(len(w), dtype=float)
    return float(np.sum(n**j * w))

"""Weyl operators, coherent states and smeared ladder operators on the truncated basis.

W(f) = exp(a*(f) - a(f)) is applied by exponentiating the compressed
skew-Hermitian generator, so the result is unitary to machine precision even
though the cutoff makes a*(f) itself lossy.  The direct normal-ordered
assembly of the coherent state W(f)|vac> is kept as an independent
construction for cross-checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from .basis import FockVector, OccupationBasis, log_factorials
from .errors import TruncationError
from .propagate import PropagationBudget, expm_apply

CUTOFF_CAP = 400  # the largest cutoff minimal_cutoff tries


def annihilation_of(f: np.ndarray, basis: OccupationBasis) -> csr_matrix:
    """a(f) = sum_x conj(f_x) a_x (antilinear in f)."""
    f = np.asarray(f, dtype=complex)
    out = None
    for x in range(basis.d):
        if f[x] == 0:
            continue
        term = np.conj(f[x]) * basis.annihilator(x)
        out = term if out is None else out + term
    if out is None:
        return csr_matrix((basis.size, basis.size), dtype=complex)
    return out.tocsr()


def weyl_generator(f: np.ndarray, basis: OccupationBasis) -> csr_matrix:
    """The skew-Hermitian a*(f) - a(f)."""
    a = annihilation_of(f, basis)
    return (a.conj().T - a).tocsr()


def weyl_apply(f: np.ndarray, psi: FockVector, budget: PropagationBudget) -> FockVector:
    """W(f) psi = exp(a*(f) - a(f)) psi; exactly norm-preserving."""
    f = np.asarray(f, dtype=complex)
    if not np.any(f):
        return psi.copy()
    s = weyl_generator(f, psi.basis)
    h = (1j * s).tocsr()  # Hermitian; exp(S) = exp(-i H) with H = iS
    return FockVector(psi.basis, expm_apply(h, psi.amp, 1.0, budget))


def poisson_tail(lam: float, m_max: int) -> float:
    """P(X > m_max) for X ~ Poisson(lam).

    Below the mean the tail is large, and it is 1 minus the lower terms.
    From the mean on it is the sum of the upper terms, the first taken in
    log space, so that a tail far below the rounding of 1 keeps its
    relative accuracy; the terms fall by lam / k, and the sum stops where
    they no longer change it.
    """
    if lam == 0.0:
        return 0.0
    if m_max < lam:
        logs = -lam + np.arange(m_max + 1) * math.log(lam) - log_factorials(m_max)
        return float(max(0.0, 1.0 - np.exp(logs).sum()))
    k = m_max + 1
    term = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
    total = term
    while term > 1e-17 * total:
        k += 1
        term *= lam / k
        total += term
    return total


def minimal_cutoff(lam: float, eps: float) -> int:
    """Smallest m_max up to CUTOFF_CAP whose Poisson(lam) tail mass is below eps."""
    for m in range(CUTOFF_CAP + 1):
        if poisson_tail(lam, m) < eps:
            return m
    raise TruncationError(f"no cutoff below {CUTOFF_CAP} reaches tail mass {eps} at lambda={lam}")


def displacement_floor(n: int, m_max: int) -> float:
    """Smallest singular value of a - sqrt(N) on one mode cut at m_max.

    It equals sigma_min(a(phi) - sqrt(N)) on the d-site basis for any unit
    phi, because a mode rotation preserves the total-number cutoff.  Divided
    by sum_x |phi(x)| it bounds the conjugation-identity residual at t = 0
    from below, whatever implements the displacement.
    """
    mat = np.diag(np.sqrt(np.arange(1.0, m_max + 1)), 1) - math.sqrt(n) * np.eye(m_max + 1)
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def coherent_state(
    f: np.ndarray,
    basis: OccupationBasis,
    eps_trunc: float = 1e-10,
) -> FockVector:
    """exp(-|f|^2/2) sum_n f^{(x) n_x} / sqrt(prod n_x!) over the basis.

    Raises TruncationError when the Poisson tail beyond the cutoff exceeds
    eps_trunc; agrees with weyl_apply(f, vacuum) within propagation tolerance.
    """
    f = np.asarray(f, dtype=complex)
    lam = float(np.vdot(f, f).real)
    tail = poisson_tail(lam, basis.m_max)
    if tail > eps_trunc:
        raise TruncationError(
            f"Poisson tail {tail:.3e} beyond m_max={basis.m_max} exceeds eps_trunc={eps_trunc:.1e}"
        )
    states = basis.states
    log_fact = log_factorials(basis.m_max)[states].sum(axis=1)
    powers = np.prod(f[None, :] ** states, axis=1)
    amp = math.exp(-lam / 2.0) * powers * np.exp(-0.5 * log_fact)
    return FockVector(basis, amp)

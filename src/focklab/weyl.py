"""Weyl operators and coherent states on the truncated basis.

W(f) = exp(a*(f) - a(f)) is applied by a mode rotation (``ModeRotation``).
Every one-body unitary Gamma(U) conserves the total number, so it commutes
with the cutoff, and W(f) = Gamma(U) W(|f| e_0) Gamma(U)* holds exactly on
the truncated space for any U with U e_0 = f / |f|.  Gamma(U) is a diagonal
of site phases times two-mode rotations, and W(|f| e_0) is the single-mode
truncated displacement on each fixed occupation of the other sites, so
every factor is a batch of small real orthogonal blocks.  The Krylov
exponential of the compressed generator a*(f) - a(f) is the test suite's
oracle, and the direct normal-ordered assembly of the coherent state
W(f)|vac> is kept as an independent construction for cross-checks.  A
``WeylFrame`` holds Gamma(U) of one orbital phi, and so serves W(c phi)
for every real c.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import FockVector, OccupationBasis, log_factorials
from .errors import TruncationError
from .propagate import _tridiag_eigh

CUTOFF_CAP = 400  # the largest cutoff minimal_cutoff tries


def weyl_apply(f: np.ndarray, psi: FockVector) -> FockVector:
    """W(f) psi = exp(a*(f) - a(f)) psi on psi's basis, by the ``WeylFrame``
    of f applied at c = 1: exact up to rounding, so norm-preserving to
    machine precision, with no tolerance to budget."""
    if not np.any(f):
        return psi.copy()
    return FockVector(psi.basis, WeylFrame(psi.basis.mode_rotation, f).apply(1.0, psi.amp))


def _tridiagonal_exponential(c: np.ndarray):
    """(lam, p, q) with exp(beta T) = (p cos(beta lam) + q sin(beta lam)) p^T
    for every real beta, T the real antisymmetric tridiagonal with
    T[j+1, j] = c[j] = -T[j, j+1].

    With D = diag(i^j), T = D (-i S) D* for the symmetric tridiagonal S of
    off-diagonal c, so exp(beta T) = D V e^{-i beta lam} V^T D* for
    S = V diag(lam) V^T.  S's spectrum is symmetric, (lam, v) pairing with
    (-lam, (-1)^j v), so the cosine part couples positions of equal parity
    only and the sine part positions of opposite parity only.  The real part
    is then the product above, with p = diag((-1)^{floor(j/2)}) V and
    q = diag((-1)^{j+1}) p.
    """
    size = len(c) + 1
    lam, v = _tridiag_eigh(np.zeros(size), c) if size > 1 else (np.zeros(1), np.ones((1, 1)))
    j = np.arange(size)
    p = ((-1.0) ** (j // 2))[:, None] * v
    return lam, p, ((-1.0) ** (j + 1))[:, None] * p


class _BlockFamily:
    """exp(beta T_s) for the block sizes s = 1..top, T_s the antisymmetric
    tridiagonal of off-diagonal ``coupling(s)``, from one factorization per
    size."""

    def __init__(self, top: int, coupling):
        self._factors = [_tridiagonal_exponential(coupling(s)) for s in range(1, top + 1)]
        self._lam = np.concatenate([lam for lam, _, _ in self._factors])

    def blocks(self, beta: float) -> list[np.ndarray]:
        """The real orthogonal exp(beta T_s), s = 1..top."""
        cos, sin = np.cos(beta * self._lam), np.sin(beta * self._lam)
        out, at = [], 0
        for lam, p, q in self._factors:
            end = at + len(lam)
            out.append((p * cos[at:end] + q * sin[at:end]) @ p.T)
            at = end
        return out


class _BlockPass:
    """The block-diagonal structure of one factor of W(f).

    Each block is a run of states r, r + step, ..., r + (s - 1) step, its
    representative r given with the block size s; there is a block of every
    size s = 1..m_max + 1.  ``order`` lists the basis positions size by
    size, each size's blocks laid out position-major (s x count), so a
    size's amplitudes are one contiguous array whose real view (s x 2 count)
    the real s x s block multiplies in one product.  The positions come from
    one ``indices_of`` call.
    """

    def __init__(self, basis: OccupationBasis, reps: np.ndarray, sizes: np.ndarray, step: np.ndarray):
        by_size = np.argsort(sizes, kind="stable")
        reps = reps[by_size]
        self.counts = np.bincount(sizes, minlength=basis.m_max + 2)[1:].tolist()
        occ, at = [], 0
        for size, count in enumerate(self.counts, start=1):
            run = np.arange(size)[:, None, None] * step
            occ.append((reps[None, at:at + count] + run).reshape(-1, basis.d))
            at += count
        self.order = basis.indices_of(np.concatenate(occ))

    def apply(self, blocks: list[np.ndarray], amp: np.ndarray, inverse: bool = False) -> np.ndarray:
        """The factor whose block of size s is ``blocks[s - 1]``, or its
        inverse, each block's transpose, on a vector or a stack's columns."""
        src = amp[self.order]
        dst = np.empty_like(src)
        at = 0
        for size, (count, block) in enumerate(zip(self.counts, blocks), start=1):
            end = at + size * count
            x = src[at:end].view(np.float64).reshape(size, -1)
            y = dst[at:end].view(np.float64).reshape(size, -1)
            np.matmul(block.T if inverse else block, x, out=y)
            at = end
        out = np.empty_like(amp)
        out[self.order] = dst
        return out


class ModeRotation:
    """The mode-rotation route to W(f) on one basis: its index tables and
    block factorizations, built on first use by ``OccupationBasis.mode_rotation``
    and released with the basis.

    With u = |f| / ||f|| the site magnitudes and theta the site phases of f,
    U = diag(e^{i theta}) R_{d-1} ... R_1 maps e_0 to f / ||f||, R_x the real
    rotation by beta_x = atan2(||u[x:]||, u[x-1]) in the plane (x-1, x).
    Gamma(R_x) = exp(beta_x J) with J = a*_x a_{x-1} - a*_{x-1} a_x, which
    keeps n_{x-1} + n_x = k and every other site: on each such block,
    indexed by n_x = 0..k, J is the antisymmetric tridiagonal with
    J[j+1, j] = sqrt((k - j)(j + 1)).  W(||f|| e_0) keeps every site but 0:
    on each fixed (n_1, ..., n_{d-1}) of total t it is the single-mode
    displacement exp(||f|| (b* - b)) cut at m_max - t, b*[j+1, j] = sqrt(j + 1).
    One apply of a ``WeylFrame`` is 2(d-1) + 1 passes of block products and
    two diagonal phase products; a rotation by 0 is the identity and is
    skipped.

    Nothing here changes after construction, so threads may share it; two
    threads that build it at once build the same tables.
    """

    def __init__(self, basis: OccupationBasis):
        d, m, states = basis.d, basis.m_max, basis.states
        self._sites = [states[:, x] for x in range(d)]
        self._m_max = m
        self._planes = []
        for x in range(1, d):
            reps = states[states[:, x] == 0]  # n_x = 0 starts each block
            step = np.zeros(d, dtype=np.int64)
            step[x - 1], step[x] = -1, 1
            self._planes.append(_BlockPass(basis, reps, reps[:, x - 1] + 1, step))
        reps = states[states[:, 0] == 0]
        self._shift = _BlockPass(basis, reps, m + 1 - reps.sum(axis=1), np.eye(d, dtype=np.int64)[0])
        self._rotation = _BlockFamily(m + 1, lambda s: np.sqrt((s - 1.0 - np.arange(s - 1)) * np.arange(1, s)))
        self._displacement = _BlockFamily(m + 1, lambda s: np.sqrt(np.arange(1.0, s)))


class WeylFrame:
    """Gamma(U) of one orbital phi != 0, U e_0 = phi / ||phi||, built once on
    a basis's ``ModeRotation``: the site phases, as one table of powers
    e^{i theta_x n} per site, and the rotation blocks of each plane.
    ``phi`` is kept.

    W(c phi) = Gamma(U) W(c ||phi|| e_0) Gamma(U)* for every real c, so one
    frame serves W(sqrt(N) phi) and W(-sqrt(N) phi) for every N, and only
    the displacement blocks depend on c.  Nothing here changes after
    construction, so threads may share a frame.
    """

    def __init__(self, rotation: ModeRotation, phi: np.ndarray):
        self.phi = phi = np.asarray(phi, dtype=complex)
        mags = np.abs(phi)
        self.norm = float(np.linalg.norm(mags))
        u = mags / self.norm
        tails = np.sqrt(np.cumsum(u[::-1] ** 2)[::-1])
        betas = np.arctan2(tails[1:], u[:-1])
        self._rotation = rotation
        self._powers = np.exp(1j * np.outer(np.angle(phi), np.arange(rotation._m_max + 1)))
        planes = zip(rotation._planes, betas)
        self._blocks = [(plane, rotation._rotation.blocks(beta)) for plane, beta in planes if beta != 0.0]

    def apply(self, c: float, amp: np.ndarray) -> np.ndarray:
        """W(c phi) amp; amp a vector or a (size x k) stack of them."""
        rotation = self._rotation
        sites = rotation._sites
        # e^{i theta . n} per state, from the site tables of powers
        phase = self._powers[0][sites[0]]
        for x in range(1, len(sites)):
            phase *= self._powers[x][sites[x]]
        phase = phase.reshape(phase.shape + (1,) * (amp.ndim - 1))  # over a stack's columns
        amp = amp * phase.conj()
        for plane, blocks in reversed(self._blocks):
            amp = plane.apply(blocks, amp, inverse=True)
        amp = rotation._shift.apply(rotation._displacement.blocks(c * self.norm), amp)
        for plane, blocks in self._blocks:
            amp = plane.apply(blocks, amp)
        return amp * phase


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
    eps_trunc.  It agrees with weyl_apply(f, vacuum) up to the truncation
    tail: this state is the untruncated coherent state cut at m_max, while
    W(f) is the exponential of the truncated generator.
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

"""Unitary propagation engines.

Two engines and one sampling policy:

* ``StaticPropagator`` applies exp(-i H t) for a fixed sparse Hermitian H, via
  a cached dense eigendecomposition up to ``DENSE_CUTOFF`` and, above it, a
  Lanczos/Krylov approximation on the three-term recurrence (no full
  reorthogonalization) in adaptive substeps, each basis stopping at the
  first dimension whose iterate has converged.  The Krylov route runs on H
  minus each number sector's mean diagonal (one sector by default), held
  as a complex matrix, and restores the sector phases exactly.
* ``evolve_timedep`` integrates a time-dependent generator family with the
  midpoint exponential rule (second-order Magnus): one Krylov exponential of
  gen(t + dt/2) per step.  Steps may run backward (t1 < t0).  An optional
  per-step hook may widen the space a step acts on and have it redone.
* ``through_times`` walks one trajectory through a set of sample times,
  evolving each segment between consecutive distinct times once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite, sqrt
from typing import Callable

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dstevd
from scipy.sparse import csr_matrix, diags

from .basis import FockVector
from .errors import ConvergenceError

_BREAKDOWN = 1e-13
KRYLOV_DIM = 40  # Krylov subspace cap per substep
DENSE_CUTOFF = 600  # up to this dimension, StaticPropagator diagonalizes instead
_FRACTION_BISECTIONS = 60  # a substep that resolves no fraction above 2**-60 fails
_FRACTION_RTOL = 2.0**-10  # precision of the resolved fraction
# from dimension _FIRST_CHECK on, each iterate is compared with the one _LAG
# dimensions below it.  Without reorthogonalization an iterate's error can
# stall for a dimension as a ghost Ritz value appears, and over the stall
# neighbouring iterates agree: lag 1 stops short (README)
_FIRST_CHECK = 4
_LAG = 2
# the error estimate of a substep rounds to about 2e-15 |v|, so a smaller
# share of the budget is met at this floor instead of never being met
_ESTIMATE_FLOOR = 1e-14
# it also carries the phase round-off of exp(-i tau w), about eps |tau w|
# for each Ritz value w: a share below _PHASE_FLOOR max|w| |tau| |v| is met
# there, a floor that grows with the interval like the round-off does, up
# to _PHASE_CAP |v|, beyond which an estimate vouches for nothing
_PHASE_FLOOR = 1e-14
_PHASE_CAP = 1e-8
_NON_FINITE = "non-finite Lanczos coefficient: the generator or the state holds NaN or inf"


@dataclass
class PropagationBudget:
    tol: float = 1e-10        # target error for a whole evolve call
    dt: float = 0.01          # step size for time-dependent generators

    def __post_init__(self):
        if not (0 < self.tol < inf and 0 < self.dt < inf):  # NaN included
            raise ValueError(f"tol and dt must be positive and finite, got tol={self.tol}, dt={self.dt}")


def _as_array(psi):
    if isinstance(psi, FockVector):
        return psi.amp, psi.basis
    return np.asarray(psi, dtype=complex), None


def _wrap(amp, basis):
    return FockVector(basis, amp) if basis is not None else amp


def _tridiag_eigh(alpha, beta):
    """(w, u): the ascending eigenvalues and the eigenvectors of the real
    symmetric tridiagonal (alpha, beta), by LAPACK's dstevd.  A failed solve
    (nonzero ``info``) raises ``ConvergenceError``."""
    w, u, info = dstevd(alpha, beta)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolver dstevd failed (info={info})")
    return w, u


def _expm_tridiag(alpha, beta, t):
    """(exp(-i t T) e1, max |w|) for the real symmetric tridiagonal
    T = (alpha, beta) with eigenvalues w."""
    if len(alpha) == 1:
        return np.exp(-1j * t * alpha[:1]), abs(alpha[0])
    w, u = _tridiag_eigh(alpha, beta)
    return u @ (np.exp(-1j * t * w) * u[0, :]), max(-w[0], w[-1])


def _converged_iterate(alpha, beta, dim, t, tol, recent):
    """exp(-i t T) e1 for the leading dim x dim block T of the tridiagonal
    (alpha, beta) when it has converged, else None.

    ``recent`` holds the iterates of the dimensions below dim, oldest first,
    and this one is appended to it.  From dimension ``_FIRST_CHECK`` on, the
    iterate has converged when it differs from the one ``_LAG`` dimensions
    below by at most max(tol, _phase_floor(max|w|, t)), tol relative to the
    norm of the Krylov start vector.  Call it at every dimension, in order:
    this is the stopping rule of every substep.
    """
    if dim < _FIRST_CHECK - _LAG:
        return None
    y, w_max = _expm_tridiag(alpha[:dim], beta[: dim - 1], t)
    recent.append(y)
    if dim < _FIRST_CHECK:
        return None
    prev = recent.pop(0)
    diff = y.copy()
    diff[: len(prev)] -= prev
    if np.linalg.norm(diff) <= max(tol, _phase_floor(w_max, t)):
        return y
    return None


def _lanczos_vector(matvec, vs, beta, j, scratch):
    """(w, alpha_j, |w|) for w = A v_j - beta_{j-1} v_{j-1} - alpha_j v_j,
    the basis ``vs`` holding v_0..v_j and ``beta`` beta_0..beta_{j-1}.

    One local pass, none over the whole basis, removes what is left of
    v_j: the orthogonality lost as Ritz values converge spoils neither
    exp(-i A t) v nor its estimate (Druskin, Greenbaum and Knizhnerman
    1998).  The updates run in place on w through ``scratch``, an array
    of w's shape, so they allocate nothing.  They are numpy ufuncs, not
    ``scipy.linalg.blas.zaxpy``: scipy loads its own OpenBLAS, and on its
    default threads those calls between sparse products made a step three
    times slower (see the README)."""
    w = matvec(vs[j])
    if j > 0:
        w -= np.multiply(vs[j - 1], beta[j - 1], out=scratch)
    alpha = np.vdot(vs[j], w).real
    w -= np.multiply(vs[j], alpha, out=scratch)
    w -= np.multiply(vs[j], np.vdot(vs[j], w), out=scratch)
    return w, alpha, _norm(w)


def _norm(x):
    """The 2-norm of x, by one BLAS dot product."""
    return sqrt(np.vdot(x, x).real)


def _lanczos_step(matvec, v, t, tol, m_cap, depth=0):
    """exp(-i A t) v via Lanczos, in adaptive substeps that each use one basis.

    Each substep builds one Krylov basis for the rest of the interval.  When
    it converges for the whole rest the step is done; otherwise the substep
    advances by the longest ``tau`` its basis resolves within its share
    ``tol * tau / t`` of the budget, and the next substep continues from
    there.  So no basis is discarded, and one is held at a time.  ``depth``
    is unused: it stays only because the benchmark's tracer wraps this
    function by name with that signature.
    """
    if t == 0.0:
        return v.copy()
    rest = t
    while True:
        # rest / t is exactly 1 on the first substep: its test is tol itself
        v, frac = _lanczos_substep(matvec, v, rest, tol * (rest / t), m_cap)
        if frac == 1.0:
            return v
        rest -= frac * rest


def _lanczos_substep(matvec, v, t, tol, m_cap):
    """One Lanczos basis applied to exp(-i A t) v: returns (state, frac).

    ``tol`` below ``_ESTIMATE_FLOOR * |v|`` is raised to that floor, and
    below the estimate's phase round-off ``_phase_floor(max|w|, t) * |v|``
    (w the Ritz values) to that one.  The basis grows one vector at a time
    and stops at the first dimension whose iterate has converged
    (``_converged_iterate``); ``frac`` is then 1.0 and the state is that
    iterate of exp(-i A t) v.  Otherwise the basis stops at ``m_cap``
    vectors, ``frac`` is the fraction of t it resolves within ``frac * tol``
    and the state is exp(-i A frac t) v.  Non-finite Lanczos coefficients,
    a failed tridiagonal solve, and a basis that resolves no fraction above
    2**-60, raise ``ConvergenceError``.
    """
    beta0 = _norm(v)
    if not isfinite(beta0):
        raise ConvergenceError(_NON_FINITE)
    if beta0 == 0.0:
        return v.copy(), 1.0
    tol = max(tol, _ESTIMATE_FLOOR * beta0)
    n = v.shape[0]
    m_cap = min(m_cap, n)
    vs = np.empty((m_cap, n), dtype=complex)
    # a product by the reciprocal: a complex division is 6x slower
    np.multiply(v, 1.0 / beta0, out=vs[0])
    alpha = np.empty(m_cap)
    beta = np.empty(m_cap)
    scratch = np.empty(n, dtype=complex)
    recent = []
    scale = None
    for j in range(m_cap):
        w, alpha[j], b = _lanczos_vector(matvec, vs, beta, j, scratch)
        if not (isfinite(alpha[j]) and isfinite(b)):
            raise ConvergenceError(_NON_FINITE)
        if scale is None:
            scale = max(abs(alpha[0]), b, 1.0)
        if b <= _BREAKDOWN * scale:
            y, _ = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            return (y * beta0) @ vs[: j + 1], 1.0
        beta[j] = b
        if j + 1 < m_cap:
            np.multiply(w, 1.0 / b, out=vs[j + 1])
        y = _converged_iterate(alpha, beta, j + 1, t, tol / beta0, recent)
        if y is not None:
            return (y * beta0) @ vs[: j + 1], 1.0
    # the continuation estimates against the largest multiple of 4 below
    # m_cap (36 for a cap of 40): a wider lag than the stopping rule's
    frac, y = _resolved_fraction(alpha, beta[: m_cap - 1], 4 * ((m_cap - 1) // 4), t, tol / beta0)
    return (y * beta0) @ vs, frac


def _phase_floor(w_max, t):
    """The phase round-off of exp(-i t w) in an estimate, over |v|."""
    return min(_PHASE_FLOOR * w_max * abs(t), _PHASE_CAP)


def _resolved_fraction(alpha, beta, prev, t, tol):
    """(frac, y(frac t)) for a frac in (0, 1) with
    |y(frac t) - y_prev(frac t)| <= max(frac tol, _phase_floor(max|w|, frac t)),
    where y(tau) and y_prev(tau) are exp(-i tau T) e1 for the tridiagonal
    T = (alpha, beta) with eigenvalues w and for its leading prev x prev
    block.  frac = 1 is known to fail; frac is bisected,
    on one eigendecomposition of each tridiagonal, to relative precision
    ``_FRACTION_RTOL``."""
    if prev < 4:
        raise ConvergenceError("Krylov substep has no error estimate below its dimension cap")
    w, u = _tridiag_eigh(alpha, beta)
    w_prev, u_prev = _tridiag_eigh(alpha[:prev], beta[: prev - 1])
    w_max = max(-w[0], w[-1])
    lo, hi, y_lo = 0.0, 1.0, None
    for _ in range(_FRACTION_BISECTIONS):
        mid = 0.5 * (lo + hi)
        y = u @ (np.exp(-1j * (mid * t) * w) * u[0, :])
        diff = y.copy()
        diff[:prev] -= u_prev @ (np.exp(-1j * (mid * t) * w_prev) * u_prev[0, :])
        if np.linalg.norm(diff) <= max(mid * tol, _phase_floor(w_max, mid * t)):
            lo, y_lo = mid, y
        else:
            hi = mid
        if hi - lo <= _FRACTION_RTOL * lo:
            break
    if y_lo is None:
        raise ConvergenceError(
            f"Krylov substep resolves no fraction of its interval above 2**-{_FRACTION_BISECTIONS}"
        )
    return lo, y_lo


def expm_apply(h_sparse, v: np.ndarray, t: float, budget: PropagationBudget) -> np.ndarray:
    """exp(-i h_sparse t) v for Hermitian h_sparse, Krylov route."""
    matvec = h_sparse.dot
    return _lanczos_step(matvec, np.asarray(v, dtype=complex), t, budget.tol, KRYLOV_DIM)


class StaticPropagator:
    """Reusable exp(-i H t) for a fixed Hermitian H.

    Dense spectral factorization is computed once when the dimension permits;
    otherwise each apply runs the Krylov engine on H centred on its number
    sectors.

    ``sectors`` holds the offsets of the number sectors H conserves (as
    ``OccupationBasis.sector_offsets``); by default the whole space is one
    sector.  With f(k) the mean diagonal of H over sector k and F the
    operator that is f(k) on sector k, F commutes with H, so
    exp(-i H t) = exp(-i F t) exp(-i (H - F) t) exactly, for one sector
    whatever H is.  The Krylov engine then resolves the spread of H within
    the sectors, not the spread of their centres, and each apply restores
    the sector phases exp(-i f(k) t).  An H with an entry between two given
    sectors is a ``ValueError``.  The route holds H - F once as a complex
    matrix (scipy would convert a real one on every product) and keeps no
    reference to the H passed in, save, when H is complex and stores every
    diagonal entry, the index arrays it shares (``_centre_sectors``).
    """

    def __init__(self, h_sparse, budget: PropagationBudget, sectors=None):
        self.budget = budget
        self.dim = h_sparse.shape[0]
        self._dense = None
        if self.dim <= DENSE_CUTOFF:
            dense = np.asarray(h_sparse.todense())
            if not np.isfinite(dense).all():
                raise ConvergenceError(_NON_FINITE)
            self._dense = eigh(dense)
            return
        op, self._centres, self._sizes = _centre_sectors(h_sparse, (0, self.dim) if sectors is None else sectors)
        self._krylov_op = op.astype(np.complex128, copy=False)

    def apply(self, psi, t: float):
        amp, basis = _as_array(psi)
        if t == 0.0:
            return _wrap(amp.copy(), basis)
        if self._dense is not None:
            w, u = self._dense
            out = u @ (np.exp(-1j * w * t) * (u.conj().T @ amp))
        else:
            out = expm_apply(self._krylov_op, amp, t, self.budget)
            out *= np.repeat(np.exp(-1j * t * self._centres), self._sizes)
        return _wrap(out, basis)


def _centre_sectors(h_sparse, offsets):
    """(H - F as CSR, f, sector sizes) for the sectors starting at
    ``offsets``, with f(k) the mean diagonal of H over sector k and F the
    diagonal operator that is f(k) on sector k.  An H that stores every
    diagonal entry once (``model.build_fock_hamiltonian`` fills it so) has
    F subtracted at those entries of a copy of its data, sharing its pattern."""
    sizes = np.diff(offsets)
    # labels are gathered once per stored entry: int32 keeps those transients small
    sector = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    h = h_sparse.tocsr()
    row = np.repeat(np.arange(h.shape[0], dtype=np.int32), np.diff(h.indptr))
    if ((sector[row] != sector[h.indices]) & (h.data != 0)).any():
        raise ValueError("H couples two number sectors: it does not conserve the particle number")
    centres = np.bincount(sector, h.diagonal().real, len(sizes)) / sizes
    on_diagonal = np.flatnonzero(h.indices == row)
    if not np.array_equal(row[on_diagonal], np.arange(h.shape[0])):
        return h - diags(np.repeat(centres, sizes)), centres, sizes
    data = h.data.astype(np.result_type(h.data, centres))
    data[on_diagonal] -= np.repeat(centres, sizes)
    return csr_matrix((data, h.indices, h.indptr), shape=h.shape), centres, sizes


def evolve_timedep(
    gen: Callable[[float], "object"],
    psi,
    t0: float,
    t1: float,
    budget: PropagationBudget,
    widen: Callable | None = None,
):
    """Midpoint-exponential integration of i d/dt psi = gen(t) psi from t0 to t1.

    ``widen(start, end)``, when given, is called after every step.  It
    returns None to accept the step, or a new start state (``start`` in a
    larger space, on which ``gen`` now acts) from which the step is redone;
    ``psi`` is then a plain amplitude array, as is the result."""
    amp, basis = _as_array(psi)
    if t1 == t0:
        return _wrap(amp.copy(), basis)
    span = t1 - t0
    n_steps = max(1, ceil(abs(span) / budget.dt))
    h = span / n_steps
    tol_local = budget.tol / n_steps
    for k in range(n_steps):
        tm = t0 + (k + 0.5) * h
        step = _lanczos_step(gen(tm).dot, amp, h, tol_local, KRYLOV_DIM)
        while widen is not None and (grown := widen(amp, step)) is not None:
            amp = grown
            step = _lanczos_step(gen(tm).dot, amp, h, tol_local, KRYLOV_DIM)
        amp = step
    return _wrap(amp, basis)


def through_times(advance: Callable, psi, times):
    """Yield (t, state) at each distinct time in increasing order, starting
    from ``psi`` at t = 0.

    ``advance(state, s, t)`` carries a state from s to t.  It runs once per
    segment between consecutive distinct times (never for t = 0), and only
    the current state is held.  Each segment is held to its own error
    budget, so the error at a time is bounded by the sum over the segments
    before it.
    """
    s = 0.0
    for t in sorted(set(float(t) for t in times)):
        if t != s:
            psi, s = advance(psi, s, t), t
        yield t, psi

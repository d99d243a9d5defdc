"""Unitary propagation engines.

Two engines and one sampling policy:

* ``StaticPropagator`` applies exp(-i H t) for a fixed sparse Hermitian H, via
  a cached dense eigendecomposition up to ``DENSE_CUTOFF`` and a
  Lanczos/Krylov approximation with full reorthogonalization and adaptive
  substeps above it.
* ``evolve_timedep`` integrates a time-dependent generator family with the
  midpoint exponential rule (second-order Magnus): one Krylov exponential of
  gen(t + dt/2) per step.  Steps may run backward (t1 < t0).  An optional
  per-step hook may widen the space a step acts on and have it redone.
* ``through_times`` walks one trajectory through a set of sample times,
  evolving each segment between consecutive distinct times once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import Callable

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .basis import FockVector
from .errors import ConvergenceError

_BREAKDOWN = 1e-13
KRYLOV_DIM = 40  # Krylov subspace cap per substep
DENSE_CUTOFF = 600  # up to this dimension, StaticPropagator diagonalizes instead
_FRACTION_BISECTIONS = 60  # a substep that resolves no fraction above 2**-60 fails
_FRACTION_RTOL = 2.0**-10  # precision of the resolved fraction
_NON_FINITE = "non-finite Lanczos coefficient: the generator or the state holds NaN or inf"


@dataclass
class PropagationBudget:
    tol: float = 1e-10        # target error for a whole evolve call
    dt: float = 0.01          # step size for time-dependent generators

    def __post_init__(self):
        if self.tol <= 0 or self.dt <= 0:
            raise ValueError("tol and dt must be positive")


def _as_array(psi):
    if isinstance(psi, FockVector):
        return psi.amp, psi.basis
    return np.asarray(psi, dtype=complex), None


def _wrap(amp, basis):
    return FockVector(basis, amp) if basis is not None else amp


def _expm_tridiag(alpha, beta, t):
    """exp(-i t T) e1 for the real symmetric tridiagonal T = (alpha, beta)."""
    if len(alpha) == 1:
        return np.exp(-1j * t * alpha[:1])
    w, u = eigh_tridiagonal(alpha, beta)
    return u @ (np.exp(-1j * t * w) * u[0, :])


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

    ``frac`` is 1.0 when the estimate converges within ``tol`` for all of t;
    then the state is exp(-i A t) v.  Otherwise the basis stops at ``m_cap``
    vectors, ``frac`` is the fraction of t it resolves within ``frac * tol``
    and the state is exp(-i A frac t) v.  Non-finite Lanczos coefficients,
    and a basis that resolves no fraction above 2**-60, raise
    ``ConvergenceError``.
    """
    beta0 = np.linalg.norm(v)
    if not isfinite(beta0):
        raise ConvergenceError(_NON_FINITE)
    if beta0 == 0.0:
        return v.copy(), 1.0
    n = v.shape[0]
    m_cap = min(m_cap, n)
    vs = np.empty((m_cap, n), dtype=complex)
    vs[0] = v / beta0
    alpha = np.empty(m_cap)
    beta = np.empty(m_cap)
    y_prev = None
    scale = None
    for j in range(m_cap):
        w = matvec(vs[j])
        if j > 0:
            w -= beta[j - 1] * vs[j - 1]
        alpha[j] = np.vdot(vs[j], w).real
        w -= alpha[j] * vs[j]
        # full reorthogonalization keeps the basis orthonormal to machine
        # precision, which is what makes the step exactly norm-preserving
        # (V conj(w))* equals V* w and does not copy the basis V
        w -= vs[: j + 1].T @ (vs[: j + 1] @ w.conj()).conj()
        b = np.linalg.norm(w)
        if not (isfinite(alpha[j]) and isfinite(b)):
            raise ConvergenceError(_NON_FINITE)
        if scale is None:
            scale = max(abs(alpha[0]), b, 1.0)
        if b <= _BREAKDOWN * scale:
            y = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            return (y * beta0) @ vs[: j + 1], 1.0
        beta[j] = b
        if j + 1 < m_cap:
            vs[j + 1] = w / b
        if j >= 3 and (j % 4 == 3 or j + 1 == m_cap):
            y = _expm_tridiag(alpha[: j + 1], beta[:j], t)
            if y_prev is not None:
                diff = y.copy()
                diff[: len(y_prev)] -= y_prev
                if np.linalg.norm(diff) * beta0 <= tol:
                    return (y * beta0) @ vs[: j + 1], 1.0
            y_prev = y
    # compare with the dimension checked before m_cap, a multiple of 4
    frac, y = _resolved_fraction(alpha, beta[: m_cap - 1], 4 * ((m_cap - 1) // 4), t, tol / beta0)
    return (y * beta0) @ vs, frac


def _resolved_fraction(alpha, beta, prev, t, tol):
    """(frac, y(frac t)) for a frac in (0, 1) with
    |y(frac t) - y_prev(frac t)| <= frac tol, where y(tau) and y_prev(tau)
    are exp(-i tau T) e1 for the tridiagonal T = (alpha, beta) and for its
    leading prev x prev block.  frac = 1 is known to fail; frac is bisected,
    on one eigendecomposition of each tridiagonal, to relative precision
    ``_FRACTION_RTOL``."""
    if prev < 4:
        raise ConvergenceError("Krylov substep has no error estimate below its dimension cap")
    w, u = eigh_tridiagonal(alpha, beta)
    w_prev, u_prev = eigh_tridiagonal(alpha[:prev], beta[: prev - 1])
    lo, hi, y_lo = 0.0, 1.0, None
    for _ in range(_FRACTION_BISECTIONS):
        mid = 0.5 * (lo + hi)
        y = u @ (np.exp(-1j * (mid * t) * w) * u[0, :])
        diff = y.copy()
        diff[:prev] -= u_prev @ (np.exp(-1j * (mid * t) * w_prev) * u_prev[0, :])
        if np.linalg.norm(diff) <= mid * tol:
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
    otherwise each apply falls back to the Krylov engine.
    """

    def __init__(self, h_sparse, budget: PropagationBudget | None = None):
        self.budget = budget or PropagationBudget()
        self.h = h_sparse
        self.dim = h_sparse.shape[0]
        self._dense = None
        if self.dim <= DENSE_CUTOFF:
            w, u = eigh(np.asarray(h_sparse.todense()))
            self._dense = (w, u)

    def apply(self, psi, t: float):
        amp, basis = _as_array(psi)
        if t == 0.0:
            return _wrap(amp.copy(), basis)
        if self._dense is not None:
            w, u = self._dense
            out = u @ (np.exp(-1j * w * t) * (u.conj().T @ amp))
        else:
            out = expm_apply(self.h, amp, t, self.budget)
        return _wrap(out, basis)


def evolve_timedep(
    gen: Callable[[float], "object"],
    psi,
    t0: float,
    t1: float,
    budget: PropagationBudget | None = None,
    widen: Callable | None = None,
):
    """Midpoint-exponential integration of i d/dt psi = gen(t) psi from t0 to t1.

    ``widen(start, end)``, when given, is called after every step.  It
    returns None to accept the step, or a new start state (``start`` in a
    larger space, on which ``gen`` now acts) from which the step is redone;
    ``psi`` is then a plain amplitude array, as is the result."""
    budget = budget or PropagationBudget()
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

"""Decomposition of N-fold product states into a circle average of coherent
states, and the associated normalization constant and Fourier coefficients.

The identity behind the whole module: for a unit one-particle amplitude phi,

    phi^{x N} = d_N * (1/2pi) \\int dtheta e^{i theta N} W(e^{-i theta} sqrt(N) phi) |vac>

with d_N^2 = N! e^N / N^N.  Discretizing the circle with K >= m_max + 1
points makes the average an exact sector projection within the truncated
space (discrete Fourier orthogonality), so quadrature introduces no error of
its own.  Gauge covariance, e^{-i theta N} W(f) e^{i theta N} = W(e^{-i theta} f)
with N vac = 0, makes every node's coherent state the theta=0 state times
e^{-i theta N}; so the reconstruction builds one coherent state and weights
each sector m by its K-node sum (1/K) sum_k e^{i theta_k (N - m)}.  The sum
of K coherent states is kept as the test oracle ``reconstruct_by_nodes`` in
tests/oracles.py.

The coefficients R_m are exact integers from a three-term recurrence; two
independent closed forms (a Leibniz sum, and a binomial sum for m <= N-1)
are its cross-checks.  They are tied to generalized Laguerre polynomials
evaluated in their oscillatory regime (the connection holds in absolute
value; the sign conventions differ for odd m, and only R_m^2 enters the
identities used downstream); the Laguerre sum is kept as the test oracle
``laguerre_times_factorial`` in tests/oracles.py.  The Parseval partial sums
are exact fractions, and only the comparison with d_N^2 and the scaled A_m
are rounded, in standard-library ``decimal`` at MP_DPS digits (a decimal
context is thread-local).  The 60-digit mpmath versions of both are test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import comb, exp, factorial, lgamma, log, pi, sqrt

import numpy as np

from .basis import FockVector, OccupationBasis
from .errors import AliasingError, TruncationError
from .fluctuations import FluctuationOperators, generator_family
from .hartree import HartreeFlow
from .model import embed_product_state
from .propagate import PropagationBudget, evolve_timedep
from .weyl import coherent_state, weyl_apply

MP_DPS = 60


@dataclass(frozen=True)
class NormConstant:
    """d_N = sqrt(N!) / (N^{N/2} e^{-N/2}), handled in log space."""

    n: int
    log_squared: float

    @property
    def squared(self) -> float:
        return exp(self.log_squared)

    @property
    def value(self) -> float:
        return exp(0.5 * self.log_squared)


def product_norm_constant(n: int) -> NormConstant:
    if n < 1:
        raise ValueError("N must be >= 1")
    return NormConstant(n, lgamma(n + 1) + n - n * log(n))


def coeff_binomial_form(n: int, m: int) -> int:
    """Finite-sum form, valid for m <= N-1:
    sum_k (-1)^{m-k} N^{m-k} (N-1)(N-2)...(N-k) C(m,k)."""
    if not 0 <= m <= n - 1:
        raise ValueError("the finite-sum form requires 0 <= m <= N-1")
    total = 0
    falling = 1  # (N-1)...(N-k), empty product at k=0
    for k in range(m + 1):
        total += (-1) ** (m - k) * n ** (m - k) * falling * comb(m, k)
        falling *= n - 1 - k
    return total


def coeff_leibniz_form(n: int, m: int) -> int:
    """(d/dz)^{N-1} [e^z (z-N)^m] at z=0, via the Leibniz rule; exact for
    every m since every term is an integer."""
    if n < 1 or m < 0:
        raise ValueError("need N >= 1 and m >= 0")
    total = 0
    for j in range(min(n - 1, m) + 1):
        total += comb(n - 1, j) * (factorial(m) // factorial(m - j)) * (-n) ** (m - j)
    return total


def expansion_coefficients(n: int, m_max: int) -> list[int]:
    """R_0, ..., R_{m_max} by the three-term recurrence

        R_0 = 1,  R_1 = -1,  R_{k+1} = -(k+1) R_k - N k R_{k-1},

    which follows from sum_m R_m x^m / m! = (1+x)^{N-1} e^{-Nx}, because
    that G satisfies (1+x) G' = -(1 + N x) G.  Exact integers throughout;
    the Leibniz and binomial forms are its cross-checks."""
    if n < 1 or m_max < 0:
        raise ValueError("need N >= 1 and m >= 0")
    out = [1, -1][: m_max + 1]
    for k in range(1, m_max):
        out.append(-(k + 1) * out[k] - n * k * out[k - 1])
    return out


def expansion_coefficient(n: int, m: int) -> int:
    """R_m by the recurrence of ``expansion_coefficients``."""
    return expansion_coefficients(n, m)[m]


def scaled_from_r(n: int, m: int, r: int) -> float:
    """A_m from R_m = r: the square root of r^2 / (m! N^m) in MP_DPS digits."""
    with localcontext() as ctx:
        ctx.prec = MP_DPS
        a = float((Decimal(r * r) / (factorial(m) * n**m)).sqrt())
    return -a if r < 0 else a


def scaled_coefficient(n: int, m: int) -> float:
    """A_m = R_m / (sqrt(m!) N^{m/2})."""
    return scaled_from_r(n, m, expansion_coefficient(n, m))


@dataclass
class ParsevalReport:
    n: int
    m_reached: int
    rel_error: float
    decay_constant: float
    converged: bool
    r: list[int]              # R_0, ..., R_{m_reached}
    residuals: list[float]    # the partial sum's relative residual through each m


def parseval_identity_check(n: int, tol: float = 1e-8, m_cap: int | None = None) -> ParsevalReport:
    """Partial sums of sum_m R_m^2/(N^m m!) against d_N^2, plus the empirical
    flat-bound constant max_{1<=m<=N} |A_m| m^{1/4}.

    The partial sum through m is the exact fraction S_m / (N^m m!) with
    S_m = N m S_{m-1} + R_m^2; only its comparison with d_N^2 = e^N N!/N^N
    is rounded, to MP_DPS digits, once per m."""
    if m_cap is None:
        m_cap = 8 * n + 80
    rs = expansion_coefficients(n, max(m_cap, n))
    kras = max(abs(scaled_from_r(n, m, rs[m])) * m**0.25 for m in range(1, n + 1))
    residuals = []
    with localcontext() as ctx:
        ctx.prec = MP_DPS
        target = Decimal(n).exp() * factorial(n) / n**n
        total, denom = 0, 1  # S_m and N^m m!
        for m in range(m_cap + 1):
            if m:
                total *= n * m
                denom *= n * m
            total += rs[m] * rs[m]
            residuals.append(float(abs(total / Decimal(denom) - target) / target))
            if residuals[-1] < tol:
                break
    m = len(residuals) - 1
    return ParsevalReport(n, m, residuals[-1], kras, residuals[-1] < tol, rs[: m + 1], residuals)


def reconstruct_product(
    phi: np.ndarray,
    n: int,
    k_points: int,
    basis: OccupationBasis,
    eps_trunc: float = 1e-10,
) -> tuple[FockVector, float]:
    """The K-node trapezoidal phase average of coherent states against the
    embedded product state; K >= m_max + 1 prevents sector aliasing.

    By gauge covariance the node-theta coherent state is the theta=0 state
    with each sector-m amplitude times e^{-i theta m}.  So the average is one
    coherent state with sector m weighted by (1/K) sum_k e^{i theta_k (N - m)}:
    1 on sector N and, up to rounding, 0 on the others.  An N above the
    cutoff is a ``TruncationError``.
    """
    if n > basis.m_max:
        raise TruncationError(f"N={n} exceeds the basis cutoff m_max={basis.m_max}")
    if k_points <= basis.m_max:
        raise AliasingError(
            f"K={k_points} <= m_max={basis.m_max} aliases sectors congruent mod K"
        )
    dn = product_norm_constant(n)
    cs = coherent_state(sqrt(n) * np.asarray(phi, complex), basis, eps_trunc)
    theta = 2.0 * pi * np.arange(k_points) / k_points
    weights = np.exp(1j * np.outer(n - np.arange(basis.m_max + 1), theta)).mean(axis=1)
    rec = FockVector(basis, dn.value * weights[basis.totals] * cs.amp)
    target = embed_product_state(phi, n, basis)
    return rec, float(np.linalg.norm(rec.amp - target.amp))


def displaced_product_profile(
    phi: np.ndarray,
    n: int,
    theta: float,
    basis: OccupationBasis,
    budget: PropagationBudget,
) -> FockVector:
    """psi(theta) = d_N e^{-i theta N} W*(e^{-i theta} sqrt(N) phi) phi^{x(N-1)};
    the integrand state of the product-state phase average, norm d_N.
    ``budget`` is unused, since W is applied exactly (``weyl.weyl_apply``):
    it stays only because the benchmark's gate passes it."""
    dn = product_norm_constant(n)
    base = embed_product_state(phi, n - 1, basis)
    shifted = weyl_apply(-np.exp(-1j * theta) * sqrt(n) * np.asarray(phi, complex), base)
    return FockVector(basis, dn.value * np.exp(-1j * theta * n) * shifted.amp)


@dataclass
class RemainderProbeReport:
    n: int
    t: float
    site_abs: np.ndarray        # |f_N(x)| per site
    total_square: float      # sum_x |f_N(x)|^2


def remainder_probe(
    flow: HartreeFlow,
    n: int,
    t: float,
    basis: OccupationBasis,
    budget: PropagationBudget,
) -> RemainderProbeReport:
    """The one-particle remainder of the product-state phase average along
    the Hartree flow ``flow`` (which carries the model and phi_0):

    f_N(x) = avg_theta < psi(theta), U^theta(0;t) a_x U^theta(t;0) vac >

    with U^theta the full fluctuation dynamics along the gauge-rotated
    Hartree orbital e^{-i theta} phi_t.  Every theta term equals the theta=0
    term: with G = e^{-i theta N}, psi(theta) = e^{-i theta} G psi(0),
    U^theta = G U^0 G*, G vac = vac and G* a_x G = e^{-i theta} a_x, and the
    number cutoff commutes with G.  So the average is its theta=0 term, two
    evolutions in all.
    """
    if n > basis.m_max:
        raise TruncationError(f"N={n} exceeds the basis cutoff m_max={basis.m_max}")
    gen = generator_family(FluctuationOperators(flow.model, basis), "full", n, flow)
    psi = displaced_product_profile(flow.at(0.0), n, 0.0, basis, budget)
    fwd_psi = evolve_timedep(gen, psi, 0.0, t, budget)
    fwd_vac = evolve_timedep(gen, FockVector.vacuum(basis), 0.0, t, budget)
    f = np.array([np.vdot(fwd_psi.amp, basis.annihilator(x) @ fwd_vac.amp) for x in range(basis.d)])
    return RemainderProbeReport(n, t, np.abs(f), float(np.sum(np.abs(f) ** 2)))

"""Fluctuation dynamics around the Hartree flow.

Three time-dependent generators act on the truncated Fock space, all built
from the instantaneous Hartree orbital phi_t:

* ``full``     — the quadratic form of the Bogoliubov pair (A, B) of phi_t
                 (``bogoliubov_pair``) plus the N^{-1/2} cubic term and the
                 N^{-1} quartic term;
* ``reduced``  — full without the cubic term (parity conserving);
* ``limiting`` — the quadratic form only; independent of N.

``full`` acts on the whole basis.  ``reduced`` and ``limiting`` conserve the
parity of the number, and every probe starts them from the vacuum, so they
act on the even sectors only (``Space``).

The probes below certify the Weyl conjugation identity, growth of the
number of particles, and the gaps between the dynamics, all from the
vacuum.  They are reductions over ``fluctuation_trajectory``, which evolves
one (kind, N) pair once through the sample times, on the leading sectors it
occupies: the conjugation residual (``displacement_residual``) is read on
the full state; ``conjugation_identity_residual`` reaches that state by the
static route on the Fock Hamiltonian instead.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, identity

from .basis import FockVector, OccupationBasis, number_moment
from .errors import TruncationError
from .hartree import HartreeFlow, phase_rotate
from .model import LatticeModel, build_fock_hamiltonian, interaction_diagonal
from .propagate import PropagationBudget, StaticPropagator, evolve_timedep, through_times
from .weyl import weyl_apply

GENERATOR_KINDS = ("full", "reduced", "limiting")
TOP_SECTOR_LIMIT = 1e-6
WINDOW_STEP = 4  # a trajectory's first window top, and the sectors each growth adds


class _Layout:
    """One CSR sparsity pattern holding a fixed list of terms.

    ``term_map`` is the (pattern nnz x terms) CSR matrix of the terms' values
    at their pattern positions, so ``term_map @ c`` is the data of
    sum_k c_k T_k.  Its rows are the pattern's entries in order, so the
    pattern's first r rows are filled by the first ``indptr[r]`` rows of
    ``term_map``, and both are read through views.  ``diagonal`` indexes
    the diagonal, which is always in the pattern; ``span[r - 1]`` is one
    past the largest column in the first r rows.
    """

    def __init__(self, terms, dim: int):
        pattern = identity(dim, format="csr")
        for term in terms:
            pattern = pattern + abs(term)
        pattern.sum_duplicates()  # canonical, so the entry keys are sorted
        keys = _entry_keys(pattern.tocoo())
        self.indices = pattern.indices
        self.indptr = pattern.indptr
        self.shape = (dim, dim)
        self.diagonal = np.searchsorted(keys, np.arange(dim, dtype=np.int64) * (dim + 1))
        self.span = np.maximum.accumulate(pattern.indices[pattern.indptr[1:] - 1]) + 1
        # a counting sort by position lays the map out in CSR, each entry's
        # terms in ascending order; placing every term twice (count, then
        # fill) holds no copy of the values besides the map itself
        rows = np.zeros(pattern.nnz + 1, dtype=np.int32)
        for term in terms:
            rows[_placed(term, keys)[1] + 1] += 1  # a term holds each position once
        rows = np.cumsum(rows, dtype=np.int32)
        free = rows[:-1].copy()
        data = np.empty(rows[-1], dtype=complex)
        cols = np.empty(rows[-1], dtype=np.int32)
        for k, term in enumerate(terms):
            values, positions = _placed(term, keys)
            slots = free[positions]
            data[slots] = values
            cols[slots] = k
            free[positions] += 1
        self.term_map = csr_matrix((data, cols, rows), shape=(pattern.nnz, len(terms)))

    def fill(self, coefficients: np.ndarray, diagonal: np.ndarray) -> csr_matrix:
        """sum_k coefficients[k] T_k + diag(diagonal) on the pattern's first
        len(diagonal) rows, as a (rows x span) CSR matrix."""
        rows = len(diagonal)
        end = int(self.indptr[rows])
        term_map = self.term_map
        if rows < self.shape[0]:
            cut = term_map.indptr[end]
            term_map = csr_matrix(
                (term_map.data[:cut], term_map.indices[:cut], term_map.indptr[: end + 1]),
                shape=(end, term_map.shape[1]),
            )
        data = term_map @ coefficients
        data[self.diagonal[:rows]] += diagonal
        return csr_matrix(
            (data, self.indices[:end], self.indptr[: rows + 1]), shape=(rows, int(self.span[rows - 1]))
        )


class _LeadingBlock:
    """The leading (dim x dim) block of a matrix, held as the matrix's first
    dim rows (``rows``, a dim x span CSR matrix).  A product pads its input
    with zeros up to the span, so the entries right of the block act on
    zeros and the product costs the block's rows only.  The padded input is
    one buffer per block, whose head each product overwrites: a block is
    not shared between threads."""

    def __init__(self, rows: csr_matrix):
        self.rows = rows
        self.shape = (rows.shape[0], rows.shape[0])
        # the CSR arrays of the rows, which every product reads
        self.nnz, self.data, self.indices = rows.nnz, rows.data, rows.indices
        self._padded = np.zeros(rows.shape[1], dtype=complex)

    def dot(self, v: np.ndarray) -> np.ndarray:
        self._padded[: self.shape[0]] = v
        return self.rows @ self._padded


def _placed(term, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A term's stored values and their positions among the sorted entry keys
    of a pattern that holds it.  Products of ladder matrices store each
    entry once; the pattern sum drops explicit zeros, so they are
    skipped."""
    coo = term.tocoo()
    stored = coo.data != 0
    return coo.data[stored], np.searchsorted(keys, _entry_keys(coo)[stored])


def _entry_keys(coo) -> np.ndarray:
    """row * dim + col of each stored entry; sorted for a canonical matrix."""
    return coo.row.astype(np.int64) * coo.shape[1] + coo.col


class Space:
    """The states a generator kind acts on, in basis order: every sector of
    ``basis``, or (``even``) the even sectors only.  ``positions`` are their
    basis positions, ``offsets[k]`` counts them in the sectors below k, and
    ``top`` is the highest sector they reach."""

    def __init__(self, basis: OccupationBasis, even: bool):
        keep = basis.totals % 2 == 0 if even else np.ones(basis.size, dtype=bool)
        self.basis = basis
        self.positions = np.flatnonzero(keep)
        self._outside = np.flatnonzero(~keep)
        per_sector = np.bincount(basis.totals[keep], minlength=basis.m_max + 1)
        self.offsets = np.concatenate(([0], np.cumsum(per_sector)))
        self.top = basis.m_max - basis.m_max % 2 if even else basis.m_max

    @property
    def size(self) -> int:
        return len(self.positions)

    def restrict(self, psi: FockVector) -> np.ndarray:
        """psi's amplitudes on the space; a psi with amplitude elsewhere is
        a ``ValueError``."""
        if np.any(psi.amp[self._outside]):
            raise ValueError("the state has amplitude outside the sectors this generator acts on")
        return psi.amp[self.positions]

    def embed(self, amp: np.ndarray) -> FockVector:
        """The state on the space's first len(amp) states as a vector on the
        whole basis."""
        out = np.zeros(self.basis.size, dtype=complex)
        out[self.positions[: len(amp)]] = amp
        return FockVector(self.basis, out)


def bogoliubov_pair(model: LatticeModel, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian A = T + diag(v * |phi|^2) + v(x-y) phi_x conj(phi_y) and
    the symmetric B = v(x-y) phi_x phi_y of the quadratic generator at phi,
    sum A_xy a*_x a_y + (1/2) sum (B_xy a*_x a*_y + conj(B_xy) a_y a_x)."""
    phi = np.asarray(phi, dtype=complex)
    v = model.vmat
    a = model.kinetic + np.diag(v @ (np.abs(phi) ** 2)) + v * np.outer(phi, phi.conj())
    return a, v * np.outer(phi, phi)


class FluctuationOperators:
    """Fixed-pattern generator layouts reused across generator evaluations.

    Every generator is a linear combination of fixed ladder monomials, one
    per distinct operator on the site pairs T or v couples, plus a dense
    diagonal.  ``bogoliubov_pair`` weights a*_x a_y (x != y) by A_xy and
    a*_x a*_y (x <= y, halved when x = y) by B_xy; the cubic a*_x a*_y a_x
    carries v(x-y) phi_t(y) N^{-1/2}; the diagonal is occupation @ Re diag(A)
    plus quartic/N.  ``__init__`` lays out one pattern for ``full`` on the
    whole basis and one shared by ``reduced`` and ``limiting`` on the even
    sectors (``space``): their monomials are built on the whole basis, since
    their ladder factors pass through the odd sectors, and restricted to the
    even states.  An assembly is then one small sparse product into the
    pattern's data.
    """

    def __init__(self, model: LatticeModel, basis: OccupationBasis):
        if model.d != basis.d:
            raise ValueError("model and basis disagree on d")
        self.model = model
        self.basis = basis
        d = model.d
        a = [basis.annihilator(x) for x in range(d)]
        ad = [basis.creator(x) for x in range(d)]
        self.quartic_diag = interaction_diagonal(basis.states, model)
        self.occupation = basis.states.astype(float)
        coupled = model.vmat != 0.0
        self._hop_sites = np.nonzero((coupled | (model.kinetic != 0.0)) & ~np.eye(d, dtype=bool))
        self._pair_sites = np.nonzero(np.triu(coupled))
        self._cubic_sites = np.nonzero(coupled)
        # the ladder monomials are real, so each transpose is the adjoint
        hops = [ad[x] @ a[y] for x, y in zip(*self._hop_sites)]                                # a*_x a_y
        pairs = [ad[x] @ ad[y] * (0.5 if x == y else 1.0) for x, y in zip(*self._pair_sites)]  # a*_x a*_y
        cubic = [ad[x] @ (ad[y] @ a[x]) for x, y in zip(*self._cubic_sites)]                   # a*_x a*_y a_x
        quadratic = [*hops, *pairs, *(m.T for m in pairs)]
        self._full = _Layout(quadratic + cubic + [m.T for m in cubic], basis.size)
        self._whole = Space(basis, even=False)
        self._even = Space(basis, even=True)
        keep = self._even.positions
        self._reduced = _Layout([m[keep][:, keep] for m in quadratic], self._even.size)
        self._even_diagonals = (self.occupation[keep], self.quartic_diag[keep])

    def space(self, kind: str) -> Space:
        """The states the generator of ``kind`` acts on."""
        return self._whole if kind == "full" else self._even

    def _fill(self, kind: str, n: int, phi: np.ndarray, rows: int) -> csr_matrix:
        """The generator's first ``rows`` rows (see ``_Layout.fill``)."""
        a, b = bogoliubov_pair(self.model, phi)
        coefficients = np.concatenate([a[self._hop_sites], b[self._pair_sites], b[self._pair_sites].conj()])
        occupation, quartic = (self.occupation, self.quartic_diag) if kind == "full" else self._even_diagonals
        diagonal = occupation[:rows] @ a.diagonal().real
        if kind == "limiting":
            return self._reduced.fill(coefficients, diagonal)
        diagonal = diagonal + quartic[:rows] / n
        if kind == "reduced":
            return self._reduced.fill(coefficients, diagonal)
        cubic = (self.model.vmat * phi)[self._cubic_sites] / np.sqrt(n)
        return self._full.fill(np.concatenate([coefficients, cubic, np.conj(cubic)]), diagonal)

    def assemble(self, kind: str, n: int, phi: np.ndarray, top: int | None = None):
        """The generator of the requested kind at Hartree orbital phi, on
        ``space(kind)``.

        With ``top`` below the space's top sector, the generator on its
        sectors [0, top] only: the leading block of the whole generator,
        which is the generator on the basis cut at ``top`` (see
        ``SectorWindow``): only the block's rows are filled, and a
        ``_LeadingBlock`` is returned."""
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind != "limiting" and n < 1:
            raise ValueError("N must be >= 1")
        space = self.space(kind)
        rows = space.size
        if top is not None and top < space.top:
            rows = int(space.offsets[top + 1])
        gen = self._fill(kind, n, phi, rows)
        return gen if rows == space.size else _LeadingBlock(gen)


def generator_family(
    ops: FluctuationOperators,
    kind: str,
    n: int,
    flow: HartreeFlow,
    cutoff: int | None = None,
    phase: float = 0.0,
    window: "SectorWindow | None" = None,
):
    """t -> generator matrix, with phi_t optionally gauge-rotated by e^{i phase},
    on the sectors of ``window`` as they are when it is called.  ``cutoff``
    is unused: it stays only because the benchmark's tracer binds this
    function's arguments by name and reads it."""

    def gen(t: float):
        phi = flow.at(t)
        if phase != 0.0:
            phi = phase_rotate(phi, phase)
        return ops.assemble(kind, n, phi, top=None if window is None else window.top)

    return gen


class SectorWindow:
    """The leading sectors [0, top] of a ``Space`` a trajectory is evolved on.

    Every generator term is normal ordered (a*a, aa, a*a*, a*a*a, a*aa and
    occupation diagonals), so no factor of a matrix element passes through a
    sector above both of its ends: the generator on the basis cut at m is
    exactly the leading block of the generator on the space, and the space's
    sector order keeps that block leading.  A state held on [0, top]
    therefore evolves exactly as on the basis cut at top.  The window starts
    at [0, WINDOW_STEP] and grows by WINDOW_STEP sectors up to the space's
    top, so on the even sectors every top is even; ``widen`` is the per-step
    hook of ``evolve_timedep`` that grows it.
    """

    def __init__(self, space: Space, tol: float):
        self.space = space
        self.tol = tol
        self.top = min(WINDOW_STEP, space.top)

    @property
    def dim(self) -> int:
        return int(self.space.offsets[self.top + 1])

    def widen(self, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
        """None to accept a step from ``start`` to ``end``.  If ``end`` holds
        more than tol**2 of its squared norm in the top sector, and the
        window is not yet the whole space, grow the window by WINDOW_STEP
        sectors and return ``start`` zero-padded to it, to redo the step."""
        if self.top == self.space.top:
            return None
        top = end[self.space.offsets[self.top]:]
        if np.vdot(top, top).real <= self.tol**2 * np.vdot(end, end).real:
            return None
        self.top = min(self.top + WINDOW_STEP, self.space.top)
        grown = np.zeros(self.dim, dtype=complex)
        grown[: len(start)] = start
        return grown


def check_truncation(amp: np.ndarray, space: Space):
    """Raise TruncationError if ``amp``, a state on the leading states of
    ``space``, holds more than TOP_SECTOR_LIMIT of its squared norm in the
    space's top sector: the highest sector the state can reach, which for
    the even sectors at an odd cutoff is m_max - 1."""
    top = amp[space.offsets[space.top]:]
    weight = float(np.vdot(top, top).real)
    if weight > TOP_SECTOR_LIMIT * float(np.vdot(amp, amp).real):
        raise TruncationError(
            f"top-sector occupancy {weight:.3e} exceeds {TOP_SECTOR_LIMIT:.0e} of the norm; raise m_max"
        )


def evolve_fluctuation(
    ops: FluctuationOperators,
    kind: str,
    n: int,
    flow: HartreeFlow,
    psi: FockVector,
    s: float,
    t: float,
    budget: PropagationBudget,
) -> FockVector:
    """U(t;s) psi for the requested generator kind (time-ordered midpoint
    rule), on the whole of ``ops.space(kind)``.  psi lies on ``ops.basis``;
    for ``reduced`` and ``limiting`` it must be even (no amplitude on an
    odd sector), else ``ValueError``."""
    space = ops.space(kind)
    amp = evolve_timedep(generator_family(ops, kind, n, flow), space.restrict(psi), s, t, budget)
    check_truncation(amp, space)
    return space.embed(amp)


def fluctuation_trajectory(
    ops: FluctuationOperators,
    kind: str,
    n: int,
    flow: HartreeFlow,
    times,
    budget: PropagationBudget,
):
    """Yield (t, U(t;0) vacuum) at each distinct sample time, in increasing
    order, as vectors on ``ops.basis``.  The state is evolved once, segment
    by segment, and only the current state is held.

    Each segment is one ``evolve_timedep`` call on the leading sectors of
    ``ops.space(kind)`` the state occupies (``SectorWindow``).  The window
    grows whenever a step leaves more than ``budget.tol**2`` of the squared
    norm in its top sector, and that step is redone from its zero-padded
    start; so the window's top sector never holds an amplitude above
    ``budget.tol``.  Once the window is the whole space, every segment is
    checked for truncation (``TOP_SECTOR_LIMIT``) as on a fixed cutoff.
    ``evolve_fluctuation`` evolves on the whole space throughout and is the
    oracle."""
    space = ops.space(kind)
    window = SectorWindow(space, budget.tol)
    gen = generator_family(ops, kind, n, flow, window=window)

    def advance(amp, s, t):
        amp = evolve_timedep(gen, amp, s, t, budget, widen=window.widen)
        check_truncation(amp, space)
        return amp

    vacuum = np.zeros(window.dim, dtype=complex)
    vacuum[0] = 1.0
    for t, amp in through_times(advance, vacuum, times):
        yield t, space.embed(amp)


def parity_element(psi: FockVector) -> float:
    """max_x |<psi, a_x psi>|; vanishes when psi has definite parity."""
    return max(
        abs(complex(np.vdot(psi.amp, psi.basis.annihilator(x) @ psi.amp)))
        for x in range(psi.basis.d)
    )


def _probe_inputs(model, phi0, hartree_dt, basis):
    """Generator blocks and a Hartree flow for a stand-alone probe."""
    return FluctuationOperators(model, basis), HartreeFlow(phi0, model, hartree_dt)


def _state_at(ops, kind, n, flow, t, budget) -> FockVector:
    [(_, psi)] = fluctuation_trajectory(ops, kind, n, flow, [t], budget)
    return psi


def displacement_residual(f: np.ndarray, chi: FockVector) -> float:
    """max_x ||(a_x - f(x)) W(f) chi - W(f) a_x chi||: the conjugation
    identity W*(f) a_x W(f) = a_x + f(x) read on a fluctuation state chi,
    in which the dynamics drop out (``conjugation_identity_residual``); a
    finite cutoff keeps it from 0 (``weyl.displacement_floor``).  W(f) is
    applied once, to the stack [chi, a_0 chi, ..., a_{d-1} chi]."""
    ladders = [chi.basis.annihilator(x) for x in range(chi.basis.d)]
    stack = np.column_stack([chi.amp] + [a @ chi.amp for a in ladders])
    moved = chi.basis.mode_rotation.apply(f, stack) if np.any(f) else stack
    shifted = moved[:, 0]  # W(f) chi
    return max(float(np.linalg.norm(a @ shifted - fx * shifted - w)) for a, fx, w in zip(ladders, f, moved.T[1:]))


def conjugation_identity_residual(
    flow: HartreeFlow,
    n: int,
    t: float,
    budget: PropagationBudget,
    *,
    basis: OccupationBasis,
) -> float:
    """Residual of the conjugation identity behind the fluctuation dynamics.

    The model and phi_s come from ``flow``.  With f_s = sqrt(N) phi_s and
    U(t;0) = W*(f_t) e^{-iHt} W(f_0), the identity compares U*(t;0)
    (a_x - f_t(x)) applied to e^{-iHt} W(f_0) vac with U*(t;0) routed
    factor by factor through a_x.  Both sides end in the same left factor
    W(-f_0) e^{iHt}, which is unitary, so it is dropped: with
    psi2 = e^{-iHt} W(f_0) vac this returns

        max_x || (a_x - f_t(x)) psi2 - W(f_t) a_x W(-f_t) psi2 ||,

    ``displacement_residual`` on W(-f_t) psi2 = U(t;0) vac up to a phase.
    The reduction is exact on the truncated space, where W (the exponential
    of a skew-Hermitian matrix) and e^{-iHt} (H Hermitian) are exactly
    unitary; W is applied exactly (``weyl.weyl_apply``) and the Krylov route
    of e^{-iHt} preserves norms to the propagation budget, so the untrimmed
    two-sided route agrees to within that budget.

    The identity is exact only in the untruncated algebra.  At a finite
    cutoff the residual has a floor: at t = 0 every unit vector v obeys
    max_x ||(a_x - sqrt(N) phi0(x)) v|| >= sigma_min / sum_x |phi0(x)|, with
    sigma_min the smallest singular value of a(phi0) - sqrt(N) on the
    truncated algebra (phi0 normalized), whatever implements the
    displacement.  sigma_min equals that of the single-mode a - sqrt(N) cut
    at m_max (``weyl.displacement_floor``): 7.8e-4 at N=4, m_max=18, 2.1e-9
    at m_max=32.  The cutoff must push it well below the accuracy asked of
    the residual, so the caller chooses it: ``basis`` has no default.
    """
    f0 = np.sqrt(n) * flow.at(0.0)
    ft = np.sqrt(n) * flow.at(t)
    # the propagator is released after its one apply
    prop = StaticPropagator(
        build_fock_hamiltonian(flow.model, n, basis).matrix, budget, sectors=basis.sector_offsets
    )
    psi2 = prop.apply(weyl_apply(f0, FockVector.vacuum(basis)), t)
    del prop
    return displacement_residual(ft, weyl_apply(-ft, psi2))


def number_growth_probe(
    kind: str,
    model: LatticeModel,
    n: int,
    phi0: np.ndarray,
    j: int,
    times,
    budget: PropagationBudget,
    *,
    basis: OccupationBasis,
    hartree_dt: float = 1e-3,
) -> list[tuple[str, int, int, float, float]]:
    """Rows (kind, N, j, t, <N^j>) along U(t;0) vacuum, one per sample time in
    sorted order, moments from sector weights.  Raises TruncationError if the
    top sector fills beyond 1e-6."""
    if j < 1:
        raise ValueError("moment order j must be >= 1")
    times = [float(t) for t in times]
    ops, flow = _probe_inputs(model, phi0, hartree_dt, basis)
    return [
        (kind, n, j, t, number_moment(psi, j))
        for t, psi in fluctuation_trajectory(ops, kind, n, flow, times, budget)
        for _ in range(times.count(t))
    ]


def dynamics_gap(
    model: LatticeModel,
    n: int,
    phi0: np.ndarray,
    t: float,
    budget: PropagationBudget,
    *,
    basis: OccupationBasis,
    hartree_dt: float = 1e-3,
) -> float:
    """|| (U_N(t;0) - U'(t;0)) vacuum || with U' the reduced dynamics."""
    ops, flow = _probe_inputs(model, phi0, hartree_dt, basis)
    u_full = _state_at(ops, "full", n, flow, t, budget)
    u_reduced = _state_at(ops, "reduced", n, flow, t, budget)
    return float(np.linalg.norm(u_full.amp - u_reduced.amp))


def parity_defect(
    model: LatticeModel,
    n: int,
    phi0: np.ndarray,
    t: float,
    budget: PropagationBudget,
    *,
    basis: OccupationBasis,
    hartree_dt: float = 1e-3,
) -> float:
    """max_x |<vac, U* a_x U vac>| along the reduced dynamics U; it
    vanishes because U conserves parity."""
    ops, flow = _probe_inputs(model, phi0, hartree_dt, basis)
    return parity_element(_state_at(ops, "reduced", n, flow, t, budget))

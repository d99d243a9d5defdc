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
one (kind, N) pair once through the sample times by the midpoint rule, on
the leading sectors it occupies.

The full dynamics is the Weyl-conjugated Schroedinger evolution,
U_N(t;0) = e^{-iN g(t)} W*(sqrt(N) phi_t) e^{-iH_N t} W(sqrt(N) phi_0), with
g the scalar term the generator omits (``HartreeFlow.phase``).  H_N
conserves the number and does not depend on t, so
``conjugated_trajectory`` reaches the full state by one static evolution,
with no time step; the fluctuation suite takes its full states from it, and
the midpoint route of ``full`` is its oracle.  What every N shares, the
N-independent parts of H_N and each sample time's Weyl frame and phase, is
built once (``ConjugatedRoute``), the trajectory's only input besides N
and the budget.  The conjugation residual (``displacement_residual``) is
read on the full state; ``conjugation_identity_residual`` shares the H_N
fill and the Weyl frames, but walks the whole basis, with no
leading-sector cut and no truncation check.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, identity

from .basis import FockVector, OccupationBasis, number_moment
from .errors import TruncationError
from .hartree import HartreeFlow, phase_rotate
from .model import HamiltonianParts, LatticeModel, build_fock_hamiltonian, interaction_diagonal
from .propagate import PropagationBudget, StaticPropagator, evolve_timedep, through_times
from .weyl import WeylFrame

GENERATOR_KINDS = ("full", "reduced", "limiting")
TOP_SECTOR_LIMIT = 1e-6
WINDOW_STEP = 4  # a trajectory's first window top, and the sectors each growth adds


class _Layout:
    """One CSR sparsity pattern holding a fixed list of terms.

    ``term_map`` is the (pattern nnz x terms) CSR matrix of the terms' values
    at their pattern positions, so ``term_map @ c`` is the data of
    sum_k c_k T_k.  Its rows are the pattern's entries in order, so the
    pattern's first r rows are filled by the first ``indptr[r]`` rows of
    ``term_map``, and both are read through views.  The map is built by one
    COO to CSR conversion of every term's values at its positions (each
    term placed once, ``_placed``).  ``diagonal`` indexes
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
        # a term holds each position once, so the map has no duplicate to
        # sum, and the conversion keeps each entry's terms in ascending order
        placed = [_placed(term, keys) for term in terms]
        values, positions = [np.concatenate(part) for part in zip(*placed)] or ([], [])  # no term: empty
        columns = np.repeat(np.arange(len(terms)), [len(p) for _, p in placed])
        self.term_map = csr_matrix((values, (positions, columns)), shape=(pattern.nnz, len(terms)), dtype=complex)

    def fill(self, coefficients: np.ndarray, diagonal: np.ndarray, out=None):
        """sum_k coefficients[k] T_k + diag(diagonal) on the pattern's first
        len(diagonal) rows: the whole pattern as a CSR matrix, or fewer rows
        as a ``_LeadingBlock``.  ``out``, a matrix an earlier fill of as many
        rows returned, has its data refilled in place and is returned, so
        no matrix is constructed."""
        rows = len(diagonal)
        if out is None:
            out = self._empty(rows)
        terms = out.terms if isinstance(out, _LeadingBlock) else self.term_map
        out.data[:] = terms @ coefficients
        out.data[self.diagonal[:rows]] += diagonal
        return out

    def _empty(self, rows: int):
        """The matrix ``fill`` writes the pattern's first ``rows`` rows into."""
        end = int(self.indptr[rows])
        matrix = csr_matrix(
            (np.zeros(end, dtype=complex), self.indices[:end], self.indptr[: rows + 1]),
            shape=(rows, int(self.span[rows - 1])),
        )
        if rows == self.shape[0]:
            return matrix
        tm = self.term_map
        cut = tm.indptr[end]
        terms = csr_matrix((tm.data[:cut], tm.indices[:cut], tm.indptr[: end + 1]), shape=(end, tm.shape[1]))
        return _LeadingBlock(matrix, terms)


class _LeadingBlock:
    """The leading (dim x dim) block of a matrix, held as the matrix's first
    dim rows (``rows``, a dim x span CSR matrix), with ``terms``, the rows
    of a ``_Layout``'s term map that fill them.  A product pads its input
    with zeros up to the span, so the entries right of the block act on
    zeros and the product costs the block's rows only.  The padded input is
    one buffer per block, whose head each product overwrites: a block is
    not shared between threads."""

    def __init__(self, rows: csr_matrix, terms: csr_matrix):
        self.rows = rows
        self.terms = terms
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
    plus quartic/N.  ``reduced`` and ``limiting`` share one pattern on the
    even sectors (``space``): their monomials are built on the whole basis,
    since their ladder factors pass through the odd sectors, and restricted
    to the even states.  ``full`` has its own, on the whole basis.  Each
    pattern is laid out on its first assembly, and an assembly is then one
    small sparse product into the pattern's data.
    """

    def __init__(self, model: LatticeModel, basis: OccupationBasis):
        if model.d != basis.d:
            raise ValueError("model and basis disagree on d")
        self.model = model
        self.basis = basis
        d = model.d
        self.quartic_diag = interaction_diagonal(basis.states, model)
        self.occupation = basis.states.astype(float)
        coupled = model.vmat != 0.0
        self._hop_sites = np.nonzero((coupled | (model.kinetic != 0.0)) & ~np.eye(d, dtype=bool))
        self._pair_sites = np.nonzero(np.triu(coupled))
        self._cubic_sites = np.nonzero(coupled)
        self._whole = Space(basis, even=False)
        self._even = Space(basis, even=True)
        keep = self._even.positions
        self._even_diagonals = (self.occupation[keep], self.quartic_diag[keep])

    def _ladders(self) -> tuple[list, list]:
        basis = self.basis
        return [basis.annihilator(x) for x in range(basis.d)], [basis.creator(x) for x in range(basis.d)]

    def _quadratic(self) -> list:
        """The quadratic monomials on the whole basis, in the order of
        ``_fill``'s coefficients."""
        a, ad = self._ladders()
        # the ladder monomials are real, so each transpose is the adjoint
        hops = [ad[x] @ a[y] for x, y in zip(*self._hop_sites)]                                # a*_x a_y
        pairs = [ad[x] @ ad[y] * (0.5 if x == y else 1.0) for x, y in zip(*self._pair_sites)]  # a*_x a*_y
        return [*hops, *pairs, *(m.T for m in pairs)]

    @cached_property
    def _reduced(self) -> _Layout:
        """The layout of ``reduced`` and ``limiting`` on the even sectors,
        built on first use: ``remainder_probe`` assembles neither."""
        keep = self._even.positions
        return _Layout([m[keep][:, keep] for m in self._quadratic()], self._even.size)

    @cached_property
    def _full(self) -> _Layout:
        """The layout of ``full`` on the whole basis, built on first use: the
        suite evolves ``full`` by ``conjugated_trajectory``, so only the
        midpoint route (probes, oracles) assembles it."""
        a, ad = self._ladders()
        cubic = [ad[x] @ (ad[y] @ a[x]) for x, y in zip(*self._cubic_sites)]  # a*_x a*_y a_x
        return _Layout(self._quadratic() + cubic + [m.T for m in cubic], self.basis.size)

    def space(self, kind: str) -> Space:
        """The states the generator of ``kind`` acts on."""
        return self._whole if kind == "full" else self._even

    def _fill(self, kind: str, n: int, phi: np.ndarray, rows: int, out):
        """The generator's first ``rows`` rows (see ``_Layout.fill``)."""
        a, b = bogoliubov_pair(self.model, phi)
        coefficients = np.concatenate([a[self._hop_sites], b[self._pair_sites], b[self._pair_sites].conj()])
        occupation, quartic = (self.occupation, self.quartic_diag) if kind == "full" else self._even_diagonals
        diagonal = occupation[:rows] @ a.diagonal().real
        if kind == "limiting":
            return self._reduced.fill(coefficients, diagonal, out)
        diagonal = diagonal + quartic[:rows] / n
        if kind == "reduced":
            return self._reduced.fill(coefficients, diagonal, out)
        cubic = (self.model.vmat * phi)[self._cubic_sites] / np.sqrt(n)
        return self._full.fill(np.concatenate([coefficients, cubic, np.conj(cubic)]), diagonal, out)

    def assemble(self, kind: str, n: int, phi: np.ndarray, top: int | None = None, out=None):
        """The generator of the requested kind at Hartree orbital phi, on
        ``space(kind)``: a new matrix, or ``out`` refilled.

        With ``top`` below the space's top sector, the generator on its
        sectors [0, top] only: the leading block of the whole generator,
        which is the generator on the basis cut at ``top`` (see
        ``SectorWindow``): only the block's rows are filled, and a
        ``_LeadingBlock`` is returned.  ``out``, a matrix an earlier
        assembly of the same kind and top returned, is refilled in place
        and returned instead (``generator_family``)."""
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind != "limiting" and n < 1:
            raise ValueError("N must be >= 1")
        space = self.space(kind)
        rows = space.size
        if top is not None and top < space.top:
            rows = int(space.offsets[top + 1])
        return self._fill(kind, n, phi, rows, out)


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
    function's arguments by name and reads it.

    The family owns one matrix per window top, which every call at that top
    refills (``FluctuationOperators.assemble``); a wider top releases the
    last one.  So a returned generator holds until the next call, and a
    family serves one evolution at a time; families share nothing they
    write."""
    held = {}  # the window top -> the matrix refilled at it

    def gen(t: float):
        phi = flow.at(t)
        if phase != 0.0:
            phi = phase_rotate(phi, phase)
        top = None if window is None else window.top
        if top not in held:
            held.clear()
        held[top] = ops.assemble(kind, n, phi, top=top, out=held.get(top))
        return held[top]

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

    def advance(amp, s, t):
        # a family per segment: its matrix is released between segments
        gen = generator_family(ops, kind, n, flow, window=window)
        amp = evolve_timedep(gen, amp, s, t, budget, widen=window.widen)
        check_truncation(amp, space)
        return amp

    vacuum = np.zeros(window.dim, dtype=complex)
    vacuum[0] = 1.0
    for t, amp in through_times(advance, vacuum, times):
        yield t, space.embed(amp)


class ConjugatedRoute:
    """What the conjugated trajectories of every N on one basis and Hartree
    flow share (``conjugated_trajectory``): the operators ``ops`` and the
    distinct sample ``times`` it is built for, the N-independent parts of
    H_N (``HamiltonianParts``) and, at t = 0 and at each of the times,
    phi_t's Weyl frame (``WeylFrame``, which serves W(+-sqrt(N) phi_t) for
    every N) and g(t) (``HartreeFlow.phase``).  ``flow`` must be a flow of
    ``ops.model``, else ``ValueError``.  Built once, before the
    trajectories, and read-only after, so threads may share it; it is
    released with its holder."""

    def __init__(self, ops: FluctuationOperators, flow: HartreeFlow, times):
        if flow.model is not ops.model:
            raise ValueError("the flow belongs to another model than the operators")
        self.ops = ops
        self.times = sorted({float(t) for t in times})
        self.parts = HamiltonianParts(ops.model, ops.basis)
        self.frames = {t: WeylFrame(ops.basis.mode_rotation, flow.at(t)) for t in {0.0, *self.times}}
        self.phases = {t: flow.phase(t) for t in self.times}


def _leading_top(psi: FockVector, eps: float) -> int:
    """The smallest k such that psi holds at most eps**2 of its squared norm
    in the sectors above k."""
    weights = psi.sector_weights()
    above = np.append(np.cumsum(weights[::-1])[::-1][1:], 0.0)  # summed from the top sector down
    return int(np.argmax(above <= eps**2 * weights.sum()))


def conjugated_trajectory(route: ConjugatedRoute, n: int, budget: PropagationBudget):
    """Yield (t, U_N(t;0) vacuum) of the ``full`` kind on ``route.ops`` at
    each of ``route.times``, in increasing order, as
    ``fluctuation_trajectory`` does, by the Weyl conjugation identity
    U_N(t;0) = e^{-iN g(t)} W(-f_t) e^{-iH_N t} W(f_0), f_t = sqrt(N) phi_t
    and g the scalar term the generator omits (``HartreeFlow.phase``).

    H_N conserves the number and does not depend on t, so W(f_0) vacuum is
    walked through the times by one sector-centred ``StaticPropagator``: no
    time step, only the Krylov tolerance (per segment) and the cutoff.  It
    is walked on the leading sectors [0, k] beyond which W(f_0) vacuum holds
    at most (tol/10)**2 of its squared norm: on them H_N is H_N on the basis
    cut at k, filled from ``route.parts``, and the part it drops would keep
    its norm, so each state is off by at most tol/10 more.  W is exact
    (``route.frames``).  At t = 0 the vacuum itself is yielded; every other
    state is checked for truncation (``TOP_SECTOR_LIMIT``) on the whole
    basis.  The midpoint route, ``fluctuation_trajectory(ops, "full", ...)``,
    is the oracle."""
    basis = route.ops.basis
    root = np.sqrt(n)
    start = route.frames[0.0].apply(root, FockVector.vacuum(basis).amp)
    top = _leading_top(FockVector(basis, start), budget.tol / 10)
    # H_N is released once the propagator holds it centred
    prop = StaticPropagator(
        build_fock_hamiltonian(route.ops.model, n, basis, parts=route.parts, top=top).matrix,
        budget,
        sectors=basis.sector_offsets[: top + 2],
    )
    for t, psi in through_times(lambda psi, s, t: prop.apply(psi, t - s), start[: prop.dim], route.times):
        if t == 0.0:
            yield t, FockVector.vacuum(basis)
            continue
        moved = np.zeros(basis.size, dtype=complex)
        moved[: prop.dim] = psi * np.exp(-1j * n * route.phases[t])
        xi = FockVector(basis, route.frames[t].apply(-root, moved))
        check_truncation(xi.amp, route.ops.space("full"))
        yield t, xi


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


def displacement_residual(frame: WeylFrame, c: float, chi: FockVector) -> float:
    """max_x ||(a_x - f(x)) W(f) chi - W(f) a_x chi|| for f = c phi, phi the
    orbital of ``frame``: the conjugation identity W*(f) a_x W(f) = a_x +
    f(x) read on a fluctuation state chi, in which the dynamics drop out
    (``conjugation_identity_residual``); a finite cutoff keeps it from 0
    (``weyl.displacement_floor``).  W(f) is applied once, to the stack
    [chi, a_0 chi, ..., a_{d-1} chi]."""
    ladders = [chi.basis.annihilator(x) for x in range(chi.basis.d)]
    moved = frame.apply(c, np.column_stack([chi.amp] + [a @ chi.amp for a in ladders]))
    shifted = moved[:, 0]  # W(f) chi
    f = c * frame.phi
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
    unitary; W is applied exactly (``weyl.WeylFrame``) and the Krylov route
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
    root = np.sqrt(n)
    start = WeylFrame(basis.mode_rotation, flow.at(0.0)).apply(root, FockVector.vacuum(basis).amp)
    # the propagator is a temporary, released after its one apply
    psi2 = StaticPropagator(
        build_fock_hamiltonian(flow.model, n, basis).matrix, budget, sectors=basis.sector_offsets
    ).apply(start, t)
    frame = WeylFrame(basis.mode_rotation, flow.at(t))
    return displacement_residual(frame, root, FockVector(basis, frame.apply(-root, psi2)))


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

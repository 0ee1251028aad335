"""Generic Lindblad engine: Liouvillian assembly, steady states, dynamics.

The master equation convention used throughout is

    drho/dt = -i[H, rho] + sum_k rate_k * D[A_k] rho,
    D[A] rho = 2 A rho A+ - A+A rho - rho A+A,

note the factor 2 inside D: the rates multiply D exactly as written.  Mixing
this with the half-convention is the classic bug in this family of models, so
the dissipator is implemented once, here, and nowhere else.

Density matrices are plain complex ndarrays.  Vectorization is row-major
(numpy C order), so vec(A X B) = (A kron B^T) vec(X).

Assembly: L = G kron I + I kron conj(G) + sum_k 2 rate_k A_k kron conj(A_k),
with G = -iH - sum_k rate_k A_k+ A_k, is assembled in one pass: G is summed
from the stored entries of H and of each A_k, and the entries of the 2 + n_k
Kronecker products are written into one coordinate list whose conversion to
CSR sums the duplicates.  The Liouvillian of a window of levels is assembled
from the window's entries of H and the A_k directly.

Steady states: the vectorized Liouvillian is singular with (generically) a
one-dimensional kernel spanned by the steady state.  The solve works on a
window [lo, hi) of the ladder levels: H and every collapse operator are cut
down to the window, which leaves a valid Lindbladian on it, and its steady
state is padded with zeros.  The first window is the top min(d, 40) levels,
where the collective pump D[J+] of the LMG models holds the state.  Each try
assembles one Liouvillian, that of the window widened by w = max(bw(H),
2 bw(A_k)) levels on each side (bw: the bandwidth; w = 2 for the three LMG
models, since A+A doubles the bandwidth of A).  A padded window state rho
has L rho inside the widened window, and there the cut-down widened spec
acts as the full one, so its product with that assembly is the exact
full-space residual, and the d^2 Liouvillian is not built.  The solve
needs the truncated Liouvillian L_T instead, and takes it from the same
assembly rather than a second one: sliced to the window, the
widened L differs from L_T only in the part of A_k+ A_k that runs through
levels outside the window.  With B_k the entries of A_k in the rows outside
[lo, hi) and the columns inside, and Delta = sum_k rate_k B_k+ B_k,
L_T = L + Delta kron I + I kron conj(Delta) on the window's coordinates.
Delta is nonzero only within bw(A_k) levels of an edge, so the correction is
a few sparse entries, and on the whole ladder there is none.  The
truncation changes L only within w levels of an edge, so an edge whose
nearby residual rows exceed the tolerance moves out by half the window size
(1.5x growth), until the full-space residual meets the tolerance.  Each
failed window costs a full LU, so a window whose next growth would cover the
ladder (3 M >= 2 d for M levels) is widened to the whole ladder at once,
which is the full solve; so d <= 60 is always solved whole.
Within the window the solve works on one sector of the weak symmetry (see
Dynamics below), the sector of the diagonal: the even-parity half of rho for
gamma = 0 and gamma = -1, the populations for gamma = +1.  The maximally
mixed state lies in it and relaxes to the steady state without leaving it.
The entries of Delta are among those of the widened A_k+ A_k, so its offsets
are among the shifts of L and the sector is closed under L_T as well.  One
diagonal row of the sliced Liouvillian is replaced by the trace row, the
system is factorized by sparse LU, and the solve finishes with one step of
iterative refinement on the same factorization.  The refinement step keeps
the relative accuracy of tiny populations (e.g. the far tail of the Dicke
ladder), which the fill-reducing ordering of the factorization alone
loses.  Every steady-state factorization runs SuperLU in its symmetric mode
(X. S. Li, ACM TOMS 31, 302 (2005)): the minimum-degree ordering of A^T + A
is applied to rows and columns alike, and a diagonal entry is the pivot
unless it is below 1e-4 times the largest entry of its column.  The block
pattern is nearly symmetric, so this keeps the ordering's fill: on the whole
ladder at N = 400 it stores 8.7M L + U entries in about 0.8 s, against 17.9M
in about 1.9 s for COLAMD with partial pivoting.  The threshold 1e-4 lies
between two failures, seen on 200 random points of the three models (N from
4 to 129, rates from 1e-6 to 1; 10.4 s in all with COLAMD, 6.9 s at 1e-4,
states within 1.6e-13).  At 0, where a diagonal pivot may be arbitrarily
small, the uniqueness probe of three weak-rate gamma = -1 points reported
two fixed points.  At 0.1, the off-diagonal pivots it forces break the
ordering: the scan took 37 s, and single gamma = -1 points took up to 55x
as long as with COLAMD.  Even 1e-4 rejects the small diagonal entries of
gamma = -1 at rates below about 2e-5, where a solve takes up to 2x as long
as with COLAMD (README, Known limitations).
The residual is the max-abs entry of the product of an assembled
sparse Liouvillian with vec(rho), so the solver holds one form of the
generator; one product per window gives both the residual and the edge test.
Each window takes one solve, and its outcome is one of three: the residual
meets the tolerance and the window is accepted, an edge can move and the
window grows, or the solve fails with its residual.  The diagonal rows of the
block sum to zero, so the system with any one of them replaced by the trace
row is singular exactly when the block kernel holds a traceless element,
i.e. when it has more than one dimension; another replaced row could not
rescue it, and a singular factorization reports a non-unique steady state.
Uniqueness is probed further on the accepted window by re-solving the block
with a different replaced row and by factorizing the complement block C of
L_T, taken from the same assembly:
nothing leaves the block, so in the ordering (block, complement) the
Liouvillian is block upper-triangular, and if C is nonsingular the kernel is
the block kernel padded with zeros.

Dynamics: L has a weak symmetry (Buca & Prosen, NJP 14, 073007 (2012)) that
the level offsets of the operators show.  -iH rho moves a coordinate (i, j)
by the offset of a nonzero entry of H, and D[A_k] rho at a positive rate by
the difference of two offsets of A_k, so L takes (i, j) only to coordinates
(k, l) with k - l = i - j mod g, g the gcd of those shifts (g = 2d where
every shift is 0, so that i - j itself is kept).  A state never leaves the
sectors of its initial coordinates and of their mirrors (j, i), so
propagation slices the Liouvillian to those sectors and applies its
exponential by the truncated Taylor method of Al-Mohy & Higham (SIAM J. Sci.
Comput. 33, 488 (2011)), the algorithm of ``scipy.sparse.linalg.expm_multiply``.
Since L(rho+) = L(rho)+, a Hermitian state stays Hermitian, so the
propagation runs on its real coordinates (Re rho_ij for i <= j, Im rho_ij
for i < j) with a real sparse generator; the initial state must therefore be
Hermitian.  It works to double precision, so there is no tolerance to
choose.  The reduction is exact and needs no symmetry flag: for the
gamma = 0 model (g = 2) started in a Dicke state the block is the
even-parity part of rho (i - j even), about half the unknowns; for
gamma = +1 (H diagonal, g = 2d) from a diagonal state it is the N + 1
populations; a start with odd coherences keeps the whole space.  Where the
moves run one way only, a sector holds coordinates the state never reaches:
for gamma = 0 at lambda = Gamma_a = 0 (H diagonal, D[J+] alone), from a
Dicke state the block is every population, although only those above the
start fill.  The others stay exactly 0 and cost only their share of each
product.
The pattern reaches every level, but the magnitudes do not: from all-up at
N = 100 and lambda = 0.12, no |rho_ij| below level 22 exceeds 1e-16 by
t = 10.  So the real coordinates are propagated on a window of levels
[lo, hi): those whose two levels both lie in it, with the exact slice of L
to them and the Taylor shift and 1-norm of that slice, so a narrow window
also takes fewer substeps.  A window is built as for the steady solve, by
one assembly of its levels widened by w, on the sectors of the initial
state; the slice of that assembly to the window is the exact slice of L,
since w >= bw(A_k) forms every entry of A_k+ A_k there in full, so the d^2
Liouvillian is built only for a window that is the whole ladder.  The first
window is the levels rho0 occupies, widened by 20 on each side.  After each
output step, the coordinates within w levels of an edge that can move must not exceed
2^-53 max|x|, the rounding unit of the state; where they do, the edge moves
out by half the window size (1.5x growth), clipped to the ladder, and the
step is redone from its start on the wider window, to which the state
carries over by its level coordinates.  There is no jump to the whole
ladder: a failed window costs one redone step, while a window wider than
the state slows every later product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# Largest |rho - rho^+| entry that :func:`evolve` accepts in an initial state.
HERMITIAN_TOL = 1e-12


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; carries the best residual achieved."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


class NonUniqueSteadyStateError(SteadyStateError):
    """Detected a Liouvillian null space of dimension > 1."""


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus (rate, collapse operator) pairs in the factor-2 D convention.

    The operators may be given as scipy sparse matrices or dense arrays; they
    are stored as complex CSR.  The Hamiltonian must be square and Hermitian
    to 1e-10 in every entry, each rate >= 0 and each collapse operator of the
    Hamiltonian's shape.
    """

    hamiltonian: sp.csr_matrix
    dissipators: tuple = ()

    def __post_init__(self):
        csr = lambda op: sp.csr_matrix(op, dtype=np.complex128)
        h = csr(self.hamiltonian)
        if h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
        if abs(h - h.conj().T).max() > 1e-10:
            raise ValueError("hamiltonian must be Hermitian")
        dissipators = tuple((rate, csr(op)) for rate, op in self.dissipators)
        for rate, op in dissipators:
            if rate < 0:
                raise ValueError(f"dissipator rate must be >= 0, got {rate}")
            if op.shape != h.shape:
                raise ValueError("dissipator dimension mismatch")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", dissipators)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass
class TrajectoryResult:
    """Output of :func:`evolve`: times, a (T, d, d) state stack, and complex expectation values.

    ``window`` is the levels (lo, hi) of the last window the state was
    propagated on, ``block_size`` the number of vec coordinates in that
    window's block (its coordinates in the sectors of rho0's, see the module
    docstring), and ``matvecs`` the number of sparse products
    the propagation took, those of steps redone on a wider window included.
    ``windows`` is the level count of every window the state was propagated
    on, the last one last.
    """

    times: np.ndarray
    states: np.ndarray | None = None
    expectations: dict = field(default_factory=dict)
    block_size: int = 0
    matvecs: int = 0
    window: tuple = (0, 0)
    windows: tuple = ()


def liouvillian_apply(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H,rho] + sum_k rate_k D[A_k] rho, evaluated densely.

    The dense reference form of the generator, built from matrix products
    and independent of :func:`liouvillian_matrix`; the solvers do not call it.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"dimension mismatch: spec dim {spec.dim}, state {rho.shape}")
    h = spec.hamiltonian.toarray()
    out = -1j * (h @ rho - rho @ h)
    for rate, op in spec.dissipators:
        a = op.toarray()
        ad = a.conj().T
        ada = ad @ a
        out += rate * (2.0 * (a @ rho @ ad) - ada @ rho - rho @ ada)
    return out


def _entries(op: sp.csr_matrix, lo: int, hi: int) -> tuple:
    """Rows, columns and values of the stored entries of ``op`` within the levels [lo, hi), from lo."""
    first, last = op.indptr[lo], op.indptr[hi]
    rows = np.repeat(np.arange(hi - lo), np.diff(op.indptr[lo:hi + 1]))
    cols, vals = op.indices[first:last].astype(np.intp) - lo, op.data[first:last]
    if (lo, hi) == (0, op.shape[0]):
        return rows, cols, vals  # the whole ladder keeps every entry
    keep = (cols >= 0) & (cols < hi - lo)
    return rows[keep], cols[keep], vals[keep]


def liouvillian_matrix(spec: LindbladSpec, window: tuple | None = None) -> sp.csr_matrix:
    """Sparse vectorized Liouvillian (row-major vec convention), assembled in one pass.

    L = G kron I + I kron conj(G) + sum_k 2 rate_k A_k kron conj(A_k), with
    G = -iH - sum_k rate_k A_k+ A_k.  G is summed densely from the stored
    entries of H and the products of pairs of entries in a row of each A_k;
    the entries of the 2 + n_k Kronecker products are then written into one
    coordinate list, whose conversion to CSR sums the duplicates.  With
    ``window = (lo, hi)`` it is the Liouvillian of ``spec`` truncated to the
    levels [lo, hi): H and every A_k cut down to them, and A_k+ A_k formed
    from the cut A_k, which is again a Lindbladian.
    """
    lo, hi = (0, spec.dim) if window is None else window
    d = hi - lo
    g = np.zeros((d, d), dtype=np.complex128)
    rows, cols, vals = _entries(spec.hamiltonian, lo, hi)
    np.add.at(g, (rows, cols), -1j * vals)
    jumps = []
    for rate, op in spec.dissipators:
        rows, cols, vals = _entries(op, lo, hi)
        # (A+A)_kl = sum_i conj(A_ik) A_il: every ordered pair (p, q) of entries in a row i.
        per_row = np.bincount(rows, minlength=d)
        count = per_row[rows]
        p = np.repeat(np.arange(len(rows)), count)
        q = np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
        q += (np.cumsum(per_row) - per_row)[rows[p]]  # + the first entry of the row
        np.add.at(g, (cols[p], cols[q]), -rate * (vals[p].conj() * vals[q]))
        jumps.append(((rows, cols, 2.0 * rate * vals), (rows, cols, vals.conj())))
    g_rows, g_cols = np.nonzero(g)
    g_vals = g[g_rows, g_cols]
    level, ones = np.arange(d), np.ones(d)
    terms = [((g_rows, g_cols, g_vals), (level, level, ones)),
             ((level, level, ones), (g_rows, g_cols, g_vals.conj())), *jumps]
    total = sum(len(x[0]) * len(y[0]) for x, y in terms)
    index = np.int32 if d * d < 2**31 else np.int64
    rows, cols = np.empty(total, dtype=index), np.empty(total, dtype=index)
    vals = np.empty(total, dtype=np.complex128)
    start = 0
    for (xr, xc, xv), (yr, yc, yv) in terms:
        # Entry (i, k) of X and (j, l) of Y give entry (i d + j, k d + l) of X kron Y.
        stop = start + len(xr) * len(yr)
        shape = (len(xr), len(yr))
        np.add.outer(xr * d, yr, out=rows[start:stop].reshape(shape))
        np.add.outer(xc * d, yc, out=cols[start:stop].reshape(shape))
        np.multiply.outer(xv, yv, out=vals[start:stop].reshape(shape))
        start = stop
    lv = sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    lv.eliminate_zeros()
    return lv


def _factorize(mat: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a steady-state system in SuperLU's symmetric mode.

    The minimum-degree ordering of A^T + A is applied to rows and columns
    alike, and a diagonal entry is taken as the pivot unless it is below 1e-4
    times the largest entry of its column (the module docstring gives the
    reasons for both).  Raises RuntimeError if the matrix is found exactly
    singular.
    """
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-4,
                     options=dict(SymmetricMode=True))


def _solve_block(lv_r: sp.csr_matrix, trace: np.ndarray, row: int) -> tuple:
    """Solve L_R v = 0, tr v = 1 on a block with its diagonal row ``trace[row]`` replaced.

    ``trace`` holds the block positions of the diagonal entries of rho.  The
    diagonal rows of a Lindblad Liouvillian sum to zero (trace preservation),
    so replacing one of them loses no information.  The system is factorized
    once by :func:`_factorize`; one step of iterative refinement on that
    factorization (one matvec, one triangular solve) restores the relative
    accuracy of tiny populations.  Returns v and the number of entries SuperLU
    stores for L and U.  Raises RuntimeError if the factorization finds the
    matrix exactly singular.
    """
    replaced = trace[row]
    start, stop = lv_r.indptr[replaced], lv_r.indptr[replaced + 1]
    indices = np.concatenate((lv_r.indices[:start], trace, lv_r.indices[stop:]))
    data = np.concatenate((lv_r.data[:start], np.ones(len(trace), dtype=lv_r.dtype),
                           lv_r.data[stop:]))
    indptr = lv_r.indptr.copy()
    indptr[replaced + 1:] += len(trace) - (stop - start)
    mat = sp.csr_matrix((data, indices, indptr), shape=lv_r.shape)
    rhs = np.zeros(lv_r.shape[0], dtype=np.complex128)
    rhs[replaced] = 1.0
    lu = _factorize(mat)
    vec = lu.solve(rhs)
    vec += lu.solve(rhs - mat @ vec)
    return vec, lu.nnz


def _bandwidth(op: sp.csr_matrix) -> int:
    """Largest |i - j| over the stored entries of ``op``."""
    rows, cols, _ = _entries(op, 0, op.shape[0])
    return int(np.abs(rows - cols).max(initial=0))


def _edge_width(spec: LindbladSpec) -> int:
    """w = max(bw(H), 2 bw(A_k)): the levels over which L couples a window to the rest."""
    return max([_bandwidth(spec.hamiltonian)] + [2 * _bandwidth(op) for _, op in spec.dissipators])


def _grown(lo: int, hi: int, grow: tuple, d: int) -> tuple:
    """The window of levels after [lo, hi) when the edges flagged in ``grow`` (lower, upper) fail.

    Each failing edge moves out by half the window size (1.5x growth),
    clipped to the ladder [0, d).
    """
    step = (hi - lo + 1) // 2
    return (max(lo - step, 0) if grow[0] else lo), (min(hi + step, d) if grow[1] else hi)


# Levels of the first window :func:`steady_solution` tries, from the top of the
# ladder (the whole ladder for d <= 60, by its whole-ladder rule); :func:`evolve`
# widens the support of rho0 by half of it on each side.
_FIRST_WINDOW = 40


def _symmetry_modulus(spec: LindbladSpec) -> int:
    """The modulus g of the weak symmetry: L takes (i, j) only to (k, l) with k - l = i - j mod g.

    -iH rho shifts the offset i - j by the offset of a nonzero entry of H, and
    D[A] rho at a positive rate by the difference of two offsets of A (A rho A+
    by o - o', A+A rho by o' - o); g is the gcd of these shifts.  Where every
    shift is 0, i - j itself is conserved, and g = 2d tells all 2d - 1
    offsets apart.
    """
    def offsets(op):
        rows, cols, vals = _entries(op, 0, op.shape[0])
        return (rows - cols)[vals != 0]

    shifts = [offsets(spec.hamiltonian)]
    for rate, op in spec.dissipators:
        if rate > 0:
            o = offsets(op)
            shifts.append(o - o[:1])  # every difference of two offsets is one of these less another
    return int(np.gcd.reduce(np.concatenate(shifts))) or 2 * spec.dim


class _Window:
    """The levels [lo, hi) of the ladder, from one assembly of L on them widened by w levels.

    ``lv`` is the Liouvillian of the widened levels [a, b) = [lo - w,
    hi + w) clipped to the ladder, by :func:`liouvillian_matrix`, with
    w = :func:`_edge_width`; ``span`` is [a, b), ``wide`` = b - a and
    ``inner`` is [lo, hi) counted from a.  The block is a sector of the weak
    symmetry (:func:`_symmetry_modulus`): the coordinates (i, j) with both
    levels in [lo, hi) whose i - j is congruent mod g to one of ``offsets``
    or to its negative (the mirror, so that the block carries Hermitian
    states).  ``mask`` marks them on [lo, hi)^2, ``idx`` and ``full`` are
    their vec indices in the widened window and on the ladder, and ``block``
    is ``lv`` sliced to them, the exact slice of L (see the module
    docstring), which nothing leaves.  The edge rows: ``bands`` are the
    widened levels within w of the lower and the upper edge, and ``edges``
    the real coordinates x (below) with a level there; each is None for an
    edge at the end of the ladder, which cannot move.

    Steady states (offset 0, the sector of the diagonal) solve the Lindbladian
    truncated to [lo, hi), whose Liouvillian :meth:`truncated` takes from
    ``lv``; the full-space residual of a window state padded with zeros is its
    product with ``lv``.  Dynamics (the offsets of the initial state's
    coordinates) propagates the exact block in real coordinates:
    L(rho+) = L(rho)+, so on Hermitian states L is real-linear in x,
    Re rho_ij for i <= j, then Im rho_ij for i < j, one per block
    coordinate.  ``to_block`` maps x back to the block (at most two entries
    per row), and ``taylor`` steps the real generator L_R = [Re (L to_block)
    on the rows i <= j; Im (L to_block) on i < j].
    """

    def __init__(self, spec: LindbladSpec, lo: int, hi: int, offsets: np.ndarray | tuple):
        d, width = spec.dim, _edge_width(spec)
        a, b = max(lo - width, 0), min(hi + width, d)
        self.spec, self.span, self.inner, self.wide = spec, slice(a, b), slice(lo - a, hi - a), b - a
        g, offsets = _symmetry_modulus(spec), np.asarray(offsets)
        sector = np.zeros(g, dtype=bool)
        sector[offsets % g] = sector[-offsets % g] = True
        levels = np.arange(lo, hi)
        self.mask = sector[(levels[:, None] - levels) % g]
        i, j = np.nonzero(self.mask)
        self.i, self.j = i + lo - a, j + lo - a
        self.idx = self.i * self.wide + self.j
        self.full = (i + lo) * d + j + lo
        self.lv = liouvillian_matrix(spec, (a, b))
        self.block = self.lv[self.idx][:, self.idx]
        self.upper, self.strict = np.flatnonzero(self.i <= self.j), np.flatnonzero(self.i < self.j)
        self.bands = (slice(0, lo - a + width) if lo > 0 else None,
                      slice(max(hi - a - width, 0), b - a) if hi < d else None)
        of_x = np.concatenate((self.upper, self.strict))  # the block coordinate of each x
        low, high = self.i[of_x], self.j[of_x]  # i <= j for each x
        self.edges = (np.flatnonzero(low < lo - a + width) if lo > 0 else None,
                      np.flatnonzero(high >= hi - a - width) if hi < d else None)

    # -- steady states --------------------------------------------------------------

    def truncated(self, coords: np.ndarray, exact: sp.csr_matrix) -> sp.csr_matrix:
        """L_T, the Liouvillian of the spec truncated to [lo, hi), on the window's ``coords``.

        ``coords`` are widened vec indices and ``exact`` is ``lv`` sliced to
        them.  There L_T = L + Delta kron I + I kron conj(Delta), with
        Delta = sum_k rate_k B_k+ B_k and B_k the entries of A_k in the rows
        outside [lo, hi) and the columns inside: the part of A_k+ A_k that
        the widened spec forms and the truncated one does not.
        """
        lo, hi, m = self.inner.start, self.inner.stop, self.wide
        if hi - lo == m:  # no level outside the window: L_T = L
            return exact
        outside = np.r_[:lo, hi:m]
        delta = np.zeros((m, m), dtype=np.complex128)
        for rate, op in self.spec.dissipators:
            cut = op[self.span, self.span][outside][:, lo:hi].toarray()  # B_k
            delta[lo:hi, lo:hi] += rate * (cut.conj().T @ cut)
        p, q = np.nonzero(delta)
        at = np.full((m, m), -1)  # the position in ``coords`` of each widened coordinate
        at.flat[coords] = np.arange(len(coords))
        # Delta kron I takes (q, l) to (p, l), and I kron conj(Delta) takes (l, q) to (l, p).
        rows = np.concatenate((at[p], at[:, p].T)).ravel()
        cols = np.concatenate((at[q], at[:, q].T)).ravel()
        vals = np.concatenate((np.repeat(delta[p, q], m), np.repeat(delta[p, q].conj(), m)))
        keep = (rows >= 0) & (cols >= 0)
        return exact + sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=exact.shape)

    @cached_property
    def system(self) -> tuple:
        """L_T on the block, and the block positions of the window's diagonal entries."""
        diagonal = np.arange(self.inner.start, self.inner.stop) * (self.wide + 1)
        return self.truncated(self.idx, self.block), np.searchsorted(self.idx, diagonal)

    def state(self, vec: np.ndarray) -> np.ndarray:
        """The Hermitian unit-trace d x d state with ``vec`` on the block and zeros elsewhere."""
        rho = np.zeros((self.spec.dim,) * 2, dtype=np.complex128)
        rho.flat[self.full] = vec
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    def residual(self, rho: np.ndarray, tol: float) -> tuple:
        """max |L rho| over the full space for a window state ``rho``,
        and whether each edge, lower and upper, can move and has residual rows above ``tol``.

        Both come from one product.  The truncation changes L only within
        w levels of an edge, so residual rows there above ``tol`` ask for a
        wider window.
        """
        rows = np.abs(self.lv @ rho[self.span, self.span].reshape(-1)).reshape(self.wide, -1)
        top = float(rows.max())
        grow = tuple(band is not None and bool(rows[band].max(initial=0.0) > tol)
                     for band in self.bands)
        return (top if np.isfinite(top) else np.inf), grow

    def complement(self) -> sp.csr_matrix:
        """L_T on the window coordinates outside the block."""
        i, j = np.nonzero(~self.mask)
        comp = (i + self.inner.start) * self.wide + j + self.inner.start
        return self.truncated(comp, self.lv[comp][:, comp])

    # -- dynamics -------------------------------------------------------------------

    @cached_property
    def to_block(self) -> sp.csr_matrix:
        n, i, j = len(self.idx), self.i, self.j
        # The upper-triangle representative of each coordinate, and its Im sign.
        rep = np.where(i <= j, np.arange(n), np.searchsorted(self.idx, j * self.wide + i))
        sign = np.sign(j - i)
        off = np.flatnonzero(sign)
        rows = np.concatenate((np.arange(n), off))
        cols = np.concatenate((np.searchsorted(self.upper, rep),
                               len(self.upper) + np.searchsorted(self.strict, rep[off])))
        vals = np.concatenate((np.ones(n), 1j * sign[off]))
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    @cached_property
    def taylor(self) -> _Taylor:
        lt = (self.block @ self.to_block).tocsr()
        generator = sp.vstack((lt[self.upper].real, lt[self.strict].imag), format="csr")
        generator.eliminate_zeros()
        return _Taylor(generator)

    def to_real(self, vec: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian state given on the block."""
        return np.concatenate((vec[self.upper].real, vec[self.strict].imag))

    def edges_over(self, y: np.ndarray) -> tuple:
        """Whether each edge, lower and upper, can move and has an entry of ``y`` > 2^-53 max|y|."""
        tol = 2.0**-53 * np.abs(y).max()
        return tuple(rows is not None and bool(np.abs(y[rows]).max(initial=0.0) > tol)
                     for rows in self.edges)


@dataclass(frozen=True)
class SteadySolution:
    """Output of :func:`steady_solution`.

    ``rho`` is the d x d state, ``window`` the levels (lo, hi) it was solved
    on (zero outside them) and ``residual`` its max-abs full-space residual.
    ``lu_nnz`` is the number of entries SuperLU stores for L and U of the
    factorization that gave ``rho``, and ``windows`` the level count of every
    window tried, the accepted one last.
    """

    rho: np.ndarray
    window: tuple
    residual: float
    lu_nnz: int = 0
    windows: tuple = ()


def steady_solution(spec: LindbladSpec, tol: float = 1e-10,
                    check_unique: bool = True) -> SteadySolution:
    """Steady state of the Lindblad generator, to max-abs residual ``tol`` on the full space.

    The solve runs on a window [lo, hi) of the levels (see the module
    docstring).  The first window is the top min(d, 40) levels.  Each try
    assembles the Liouvillian once, on the window widened by the operators'
    bandwidth: its product with the zero-padded state is the exact
    full-space residual, and the generator of the spec truncated to the
    window, which the solve needs, is that assembly plus a correction at the
    window's edges for the collapse terms that run through levels outside
    it.  Each edge whose residual rows exceed ``tol`` moves out by half the
    window size until the gate passes; a window of at least 2d/3 levels is
    the whole ladder.  In the window the solve runs on the sector of the
    weak symmetry that holds the diagonal, once per window.
    ``check_unique`` probes a second replaced row inside the block and
    factorizes the complement block of the accepted window, whose singularity
    would allow a second fixed point outside it; neither probe assembles
    anything.  Returns the state with the window it was accepted on and its
    residual (:class:`SteadySolution`).

    Raises ValueError if no dissipator has a positive rate,
    :class:`SteadyStateError` with the residual if a window misses the
    tolerance with no edge left to grow (the whole ladder always), and
    :class:`NonUniqueSteadyStateError` if the kernel appears degenerate:
    always if the block system is singular, and by the probes under
    ``check_unique``.
    """
    if not any(rate > 0 for rate, _ in spec.dissipators):
        raise ValueError("steady_solution requires a dissipator with a positive rate")
    d = spec.dim
    lo, hi = 0, min(d, _FIRST_WINDOW)
    windows = []
    while True:
        if 3 * (hi - lo) >= 2 * d:
            # The next growth would cover the ladder anyway, and each failed window costs a full LU.
            lo, hi = 0, d
        win = _Window(spec, lo, hi, (0,))
        windows.append(hi - lo)
        try:
            vec, lu_nnz = _solve_block(*win.system, 0)
        except RuntimeError:
            # Every replaced diagonal row gives a singular system once one does.
            raise NonUniqueSteadyStateError(
                "non-unique steady state: block solve singular") from None
        rho = win.state(vec)
        res, grow = win.residual(rho, tol)
        if res <= tol:
            break
        if not any(grow):
            raise SteadyStateError(
                f"steady state did not converge: residual {res:.3e} > tol {tol:.1e}",
                residual=res,
            )
        lo, hi = _grown(lo, hi, grow, d)

    if check_unique:
        # An exactly singular re-solve means the trace constraint did not pin
        # the block kernel down: more than one fixed point.
        try:
            rho2 = win.state(_solve_block(*win.system, (hi - lo) // 2)[0])
        except RuntimeError:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: probe solve singular", residual=res
            ) from None
        res2 = win.residual(rho2, tol)[0]
        if res2 <= 10.0 * max(tol, res) and np.max(np.abs(rho2 - rho)) > 100.0 * tol:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: two fixed points found", residual=res
            )
        # A singular complement block allows a fixed point outside the block.
        comp = win.complement()
        if comp.shape[0]:
            try:
                _factorize(comp)
            except RuntimeError:
                raise NonUniqueSteadyStateError(
                    "non-unique steady state: complement block singular", residual=res
                ) from None
    return SteadySolution(rho, (lo, hi), res, lu_nnz, tuple(windows))


# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011): the
# largest t||A||_1 for which m Taylor terms reach double precision.  m = 1-30
# from table A.3 of Higham & Al-Mohy, "Computing matrix functions" (Acta
# Numerica, 2010), m = 35-55 from table 3.1 of the 2011 paper; the same values
# as scipy's ``expm_multiply``.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class _Taylor:
    """exp(dt A) x for a real sparse generator A by the truncated Taylor method of Al-Mohy & Higham.

    Set up once per generator: A is shifted by mu = tr(A)/n and the exact
    1-norm of the shifted matrix is taken.  Each step of length dt picks the
    first (m, s) that minimises m*s with s = ceil(dt ||A - mu||_1 / theta_m),
    cached per step length, takes s substeps of the m-term Taylor series of
    exp(dt (A - mu) / s) with the early stop of the paper, and rescales by
    exp(dt mu / s).  This works to double precision with no tolerance to
    choose.  Wherever dt ||A - mu||_1 <= 63.4 (their condition 3.13) it takes
    the same (m, s) as ``expm_multiply``; above that it takes more substeps,
    never fewer.  ``matvecs`` counts the products.
    """

    def __init__(self, generator: sp.csr_matrix):
        n = generator.shape[0]
        self.mu = generator.diagonal().sum() / n
        self.a = generator - self.mu * sp.identity(n, format="csr")
        self.norm = float(abs(self.a).sum(axis=0).max())
        self.matvecs = 0
        self._params = {}
        self._abs = np.empty(n)

    def _degree_and_substeps(self, dt: float) -> tuple:
        if dt not in self._params:
            scaled = dt * self.norm
            self._params[dt] = (0, 1) if scaled == 0.0 else min(
                ((k, int(np.ceil(scaled / theta))) for k, theta in _THETA.items()),
                key=lambda ms: ms[0] * ms[1])
        return self._params[dt]

    def step(self, x: np.ndarray, dt: float) -> np.ndarray:
        """exp(dt A) x as a new array."""
        m, s = self._degree_and_substeps(dt)
        eta = np.exp(dt * self.mu / s)
        f = np.array(x, dtype=np.float64)
        for _ in range(s):
            b = f
            c1 = f_max = np.abs(b, out=self._abs).max()
            for j in range(m):
                b = self.a @ b
                b *= dt / (s * (j + 1))
                self.matvecs += 1
                c2 = np.abs(b, out=self._abs).max()
                f += b
                # max|f| <= (previous max|f| + c2)(1 + 2^-51), rounding included,
                # so the exact max is needed only where that bound could pass the stop test.
                f_max = (f_max + c2) * (1.0 + 2.0**-51)
                if c1 + c2 <= 2.0**-53 * f_max:
                    f_max = np.abs(f, out=self._abs).max()
                    if c1 + c2 <= 2.0**-53 * f_max:
                        break
                c1 = c2
            f *= eta
        return f


def _vec_rows(ops: dict) -> sp.csr_matrix:
    """One sparse row vec(op^T) per operator, so that Tr(op @ rho) = vec(op^T) . vec(rho)."""
    d = next(iter(ops.values())).shape[0]
    return sp.vstack([sp.csr_matrix(op.T).reshape(1, d * d) for op in ops.values()]).tocsr()


def evolve(
    spec: LindbladSpec,
    rho0: np.ndarray,
    times,
    observables: dict | None = None,
    keep_states: bool = True,
) -> TrajectoryResult:
    """Propagate rho0 from t = 0 through the increasing output ``times``.

    rho0 must be Hermitian (to ``HERMITIAN_TOL``) and nonzero.  The state is
    propagated on a window of ladder levels, from the levels rho0 occupies
    widened by 20 on each side; a step after which the state reaches an edge
    that can move is redone on a window grown 1.5x at that edge, clipped to
    the ladder.  Unlike :func:`steady_solution`, it does not widen a window
    of at least 2d/3 levels to the whole ladder: a failed window costs the
    steady solver a full LU, but costs ``evolve`` only one redone step, so
    from all-up at N = 100 near lambda_c the state stays on 72 of the 101
    levels.  The edges are tested at the output times only, so the window
    depends on the output grid: at N = 80, lambda = 0.3, 5 outputs on
    [0, 10] stay on 32 levels and 21 outputs grow to 48; both agree with the
    whole-ladder propagation to 1.5e-14.  Each window assembles the
    Liouvillian of its levels widened by the operators' bandwidth and builds
    the real generator on the Hermitian states of the block there: the
    coordinates in the sectors of the weak symmetry that hold those of rho0
    (see the module docstring).  Where the moves of L run one way only, the block can
    hold coordinates the state never reaches, which stay exactly 0: for
    gamma = 0 at lambda = Gamma_a = 0 and N = 30, the start m = 12 is
    propagated on 24 populations, of which it reaches 4, and all-up on 21,
    of which it reaches 1.  No preset is of this kind.  rho0 enters through
    its upper triangle.
    Each step between consecutive output times takes the Al-Mohy & Higham
    Taylor parameters for its length on the window's generator and works to
    double precision, so there is no tolerance to choose.  ``observables``
    maps names to operators whose expectation values Tr(op rho(t)) are read
    from each output state by one sparse product; they are complex arrays,
    since an operator such as J+^2 need not be Hermitian.  ``states`` is a
    ``(len(times), d, d)`` array, or None with ``keep_states=False``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and start at >= 0")
    rho0 = np.asarray(rho0, dtype=np.complex128)
    d = spec.dim
    if rho0.shape != (d, d):
        raise ValueError("initial state dimension mismatch")
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERMITIAN_TOL:
        raise ValueError("initial state must be Hermitian")
    i, j = np.nonzero(rho0)
    if len(i) == 0:
        raise ValueError("initial state must be nonzero")

    observables = observables or {}
    rows = _vec_rows(observables) if observables else None
    values = np.zeros((len(observables), len(times)), dtype=np.complex128)
    states = np.zeros((len(times), d * d), dtype=np.complex128) if keep_states else None
    half, occupied = _FIRST_WINDOW // 2, np.concatenate((i, j))
    lo, hi = max(int(occupied.min()) - half, 0), min(int(occupied.max()) + 1 + half, d)
    offsets = i - j  # every window takes the sectors of rho0's coordinates
    win, matvecs = _Window(spec, lo, hi, offsets), 0
    windows = [hi - lo]
    x, t_prev, readout = win.to_real(rho0.reshape(-1)[win.full]), 0.0, None
    for k, t in enumerate(times):
        if t > t_prev:
            while True:
                y = win.taylor.step(x, t - t_prev)
                grow = win.edges_over(y)
                if not any(grow):
                    break
                # The state reached an edge that can move: redo the step on a wider window.
                lo, hi = _grown(lo, hi, grow, d)
                matvecs += win.taylor.matvecs
                wider = _Window(spec, lo, hi, offsets)
                vec = np.zeros(len(wider.full), dtype=np.complex128)
                vec[np.searchsorted(wider.full, win.full)] = win.to_block @ x
                x, win, readout = wider.to_real(vec), wider, None
                windows.append(hi - lo)
            x, t_prev = y, t
        if observables:
            if readout is None:  # x -> Tr(op rho), once per window
                readout = rows[:, win.full] @ win.to_block
            values[:, k] = readout @ x
        if keep_states:
            states[k, win.full] = win.to_block @ x

    return TrajectoryResult(
        times=times,
        states=states.reshape(len(times), d, d) if keep_states else None,
        expectations=dict(zip(observables, values)),
        block_size=len(win.full),
        matvecs=matvecs + win.taylor.matvecs,
        window=(lo, hi),
        windows=tuple(windows),
    )


# The bounds of :func:`validate_density_matrix`: the largest |rho - rho+| entry,
# the largest |tr rho - 1| and the smallest eigenvalue of the Hermitian part.
_STATE_HERMITIAN_TOL, _STATE_TRACE_TOL, _STATE_EIG_FLOOR = 1e-10, 1e-10, -1e-8


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError if rho violates Hermiticity, unit trace, or positivity."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > _STATE_HERMITIAN_TOL:
        raise ValueError(f"state not Hermitian: max dev {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _STATE_TRACE_TOL:
        raise ValueError(f"state trace {tr} != 1")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < _STATE_EIG_FLOOR:
        raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}")


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim

"""Generic Lindblad engine: Liouvillian assembly, steady states, dynamics.

The master equation convention used throughout is

    drho/dt = -i[H, rho] + sum_k rate_k * D[A_k] rho,
    D[A] rho = 2 A rho A+ - A+A rho - rho A+A,

note the factor 2 inside D: the rates multiply D exactly as written.  Mixing
this with the half-convention is the classic bug in this family of models, so
the dissipator is implemented once, here, and nowhere else.

Density matrices are plain complex ndarrays.  Vectorization is row-major
(numpy C order), so vec(A X B) = (A kron B^T) vec(X).

Steady states: the vectorized Liouvillian is singular with (generically) a
one-dimensional kernel spanned by the steady state.  The solve works on a
window [lo, hi) of the ladder levels: H and every collapse operator are cut
down to the window, which leaves a valid Lindbladian on it, and its steady
state is padded with zeros.  The first window is the top min(d, 40) levels,
where the collective pump D[J+] of the LMG models holds the state.  A padded
window state rho has L rho inside the window widened by w = max(bw(H),
2 bw(A_k)) levels on each side (bw: the bandwidth; w = 2 for the three LMG
models, since A+A doubles the bandwidth of A), and there the cut-down
widened spec acts as the full one, so the residual on the full space is
exact from the widened window; neither the d^2 Liouvillian nor its block
search is built.  The truncation changes L only within w levels of an edge,
so an edge whose nearby residual rows exceed the tolerance moves out by
half the window size (1.5x growth), until the full-space residual meets the
tolerance.  A window whose next growth would cover the ladder (3 M >= 2 d
for M levels) is widened to the whole ladder at once, which is the full
solve; so d <= 60 is always solved whole.
Within the window, the maximally mixed state relaxes to the steady state
without leaving the block of vec coordinates reachable from its support
(see Dynamics below), so the solve works on that block only: the even
parity half of rho for gamma = 0 and gamma = -1, the populations for
gamma = +1.  One diagonal row of the sliced Liouvillian is replaced by the
trace row, the system is factorized by sparse LU, and the solve finishes with
one step of iterative refinement on the same factorization.  The refinement
step keeps the relative accuracy of tiny populations (e.g. the far tail of the
Dicke ladder), which the fill-reducing ordering of the factorization alone
loses.  The residual is the max-abs entry of the product of an assembled
sparse Liouvillian with vec(rho), so the solver holds one form of the
generator.  Uniqueness is probed on the accepted window by re-solving the
block with a different replaced row and by factorizing the complement block
C: nothing leaves the block, so in the ordering (block, complement) the
Liouvillian is block upper-triangular, and if C is nonsingular the kernel is
the block kernel padded with zeros.  If the direct solve fails to reach the
residual tolerance for a reason other than the window edges, the maximally
mixed window state is relaxed on the block over doubling horizons as a
fallback.

Dynamics: the generator only couples vec coordinates along its sparsity
pattern, so a state never leaves the coordinates reachable from the support
of its initial value.  Propagation slices the Liouvillian to that reachable
block and applies its exponential by the truncated Taylor method of Al-Mohy &
Higham (SIAM J. Sci. Comput. 33, 488 (2011)), the algorithm of
``scipy.sparse.linalg.expm_multiply``.  Since L(rho+) = L(rho)+,
a Hermitian state stays Hermitian, so the propagation runs on its real
coordinates (Re rho_ij for i <= j, Im rho_ij for i < j) with a real sparse
generator; the initial state must therefore be Hermitian.  It works to double
precision, so there is no tolerance to choose.  The reduction is exact and
needs no symmetry flag: for the gamma = 0 model started in a Dicke state the
block is the even-parity part of rho (i - j even, the weak Z2 symmetry of
Buca & Prosen, NJP 14, 073007 (2012)), about half the unknowns; for
gamma = +1 from a diagonal state it is the N + 1 populations; a start with
odd coherences keeps the whole space.
The pattern reaches every level, but the magnitudes do not: from all-up at
N = 100 and lambda = 0.12, no |rho_ij| below level 22 exceeds 1e-16 by
t = 10.  So the real coordinates are propagated on a window of levels
[lo, hi): those whose two levels both lie in it, with the real generator
sliced to them and the Taylor shift and 1-norm of that slice, so a narrow
window also takes fewer substeps.  The first window is the levels rho0
occupies, widened by 20 on each side.  After each output step, the
coordinates within w levels of an edge that can move (w as for the steady
window) must not exceed 2^-53 max|x|, the rounding unit of the state;
where they do, the edge moves out by the steady solver's rule and the step
is redone from its start on the wider window.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import expectation_support, expectation_values

logger = logging.getLogger(__name__)

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

    ``block_size`` is the number of vec coordinates in the block reachable
    from rho0, ``window`` the levels (lo, hi) of the last window the state
    was propagated on, and ``matvecs`` the number of sparse products the
    propagation took, those of steps redone on a wider window included.
    """

    times: np.ndarray
    states: np.ndarray | None = None
    expectations: dict = field(default_factory=dict)
    block_size: int = 0
    matvecs: int = 0
    window: tuple = (0, 0)


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


def liouvillian_matrix(spec: LindbladSpec) -> sp.csr_matrix:
    """Sparse vectorized Liouvillian (row-major vec convention)."""
    d = spec.dim
    ident = sp.identity(d, dtype=np.complex128, format="csr")
    h = spec.hamiltonian
    lv = -1j * (sp.kron(h, ident) - sp.kron(ident, h.T))
    for rate, a in spec.dissipators:
        ad = a.conj().T.tocsr()
        ada = (ad @ a).tocsr()
        lv = lv + rate * (
            2.0 * sp.kron(a, a.conj())
            - sp.kron(ada, ident)
            - sp.kron(ident, ada.T)
        )
    return lv.tocsr()


def _trace_indices(d: int) -> np.ndarray:
    """Vec indices of the diagonal entries (row-major)."""
    return np.arange(d) * (d + 1)


def _finalize_state(vec: np.ndarray, d: int) -> np.ndarray:
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _solve_block(lv_r: sp.csr_matrix, trace: np.ndarray, row: int) -> np.ndarray:
    """Solve L_R v = 0, tr v = 1 on a block with its diagonal row ``trace[row]`` replaced.

    ``trace`` holds the block positions of the diagonal entries of rho.  The
    diagonal rows of a Lindblad Liouvillian sum to zero (trace preservation),
    so replacing one of them loses no information.  The system is factorized
    once by sparse LU; one step of iterative refinement on that factorization
    (one matvec, one triangular solve) restores the relative accuracy of tiny
    populations.  Raises RuntimeError if the factorization finds the matrix
    exactly singular.
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
    lu = spla.splu(mat.tocsc())
    vec = lu.solve(rhs)
    vec += lu.solve(rhs - mat @ vec)
    return vec


def _block_state(vec: np.ndarray, idx: np.ndarray, d: int) -> np.ndarray:
    """The d x d state whose vec coordinates ``idx`` hold ``vec`` and the rest zero."""
    full = np.zeros(d * d, dtype=np.complex128)
    full[idx] = vec
    return _finalize_state(full, d)


def _residual(lv: sp.csr_matrix, rho: np.ndarray) -> float:
    """max |L rho| over the d x d state ``rho``, from the vectorized Liouvillian ``lv``."""
    res = float(np.max(np.abs(lv @ rho.reshape(-1))))
    return res if np.isfinite(res) else np.inf


def _bandwidth(op: sp.csr_matrix) -> int:
    """Largest |i - j| over the stored entries of ``op``."""
    coo = op.tocoo()
    return int(np.abs(coo.row - coo.col).max(initial=0))


def _truncate(spec: LindbladSpec, lo: int, hi: int) -> LindbladSpec:
    """``spec`` with H and every collapse operator cut down to the levels [lo, hi)."""
    if (lo, hi) == (0, spec.dim):
        return spec
    return LindbladSpec(spec.hamiltonian[lo:hi, lo:hi],
                        tuple((rate, op[lo:hi, lo:hi]) for rate, op in spec.dissipators))


def _edge_width(spec: LindbladSpec) -> int:
    """w = max(bw(H), 2 bw(A_k)): the levels over which L couples a window to the rest."""
    return max([_bandwidth(spec.hamiltonian)] + [2 * _bandwidth(op) for _, op in spec.dissipators])


def _grown(lo: int, hi: int, grow: tuple, d: int) -> tuple:
    """The window of levels after [lo, hi) when the edges flagged in ``grow`` (lower, upper) fail.

    Each failing edge moves out by half the window size (1.5x growth), and a
    window of at least 2d/3 levels is the whole ladder, since its next growth
    would cover the ladder anyway.
    """
    step = (hi - lo + 1) // 2
    lo, hi = (max(lo - step, 0) if grow[0] else lo), (min(hi + step, d) if grow[1] else hi)
    return (0, d) if 3 * (hi - lo) >= 2 * d else (lo, hi)


# Levels of the first window :func:`steady_solution` tries, from the top of the
# ladder; :func:`evolve` widens the support of rho0 by half of it on each side.
_FIRST_WINDOW = 40


class _Window:
    """The Lindbladian truncated to the levels [lo, hi), and the full-space residual of its states.

    ``lv`` is the truncated Liouvillian and ``lv_r`` its block on the vec
    coordinates ``idx`` reachable from the maximally mixed window state,
    whose diagonal entries sit at the block positions ``trace``.  A window
    state padded with zeros has L rho inside the window widened by ``width``
    levels on each side, and there the widened truncated spec acts as the
    full one, so its Liouvillian ``lv_wide`` gives the exact full-space
    residual.
    """

    def __init__(self, spec: LindbladSpec, lo: int, hi: int, width: int):
        self.m = hi - lo
        self.lv = liouvillian_matrix(_truncate(spec, lo, hi))
        self.idx, self.lv_r = _reachable_block(self.lv, maximally_mixed(self.m).reshape(-1))
        self.trace = np.searchsorted(self.idx, _trace_indices(self.m))
        a, b = max(lo - width, 0), min(hi + width, spec.dim)
        self.lv_wide = self.lv if (a, b) == (lo, hi) else liouvillian_matrix(_truncate(spec, a, b))
        self.inner, self.wide = slice(lo - a, hi - a), b - a
        # Rows of the widened window within ``width`` of the lower and upper window edge.
        self.edges = (slice(0, lo - a + width), slice(max(hi - a - width, 0), b - a))
        self.growable = (lo > 0, hi < spec.dim)

    def state(self, vec: np.ndarray) -> np.ndarray:
        return _block_state(vec, self.idx, self.m)

    def _padded(self, rho: np.ndarray) -> np.ndarray:
        if self.wide == self.m:
            return rho
        pad = np.zeros((self.wide, self.wide), dtype=np.complex128)
        pad[self.inner, self.inner] = rho
        return pad

    def residual(self, rho: np.ndarray) -> float:
        """max |L rho| over the full space, for the window state ``rho`` padded with zeros."""
        return _residual(self.lv_wide, self._padded(rho))

    def edges_over(self, rho: np.ndarray, tol: float) -> tuple:
        """Whether each edge, lower and upper, can move and has residual rows above ``tol``.

        The truncation changes L only within ``width`` levels of an edge, so
        residual rows there above ``tol`` ask for a wider window.
        """
        res = np.abs(self.lv_wide @ self._padded(rho).reshape(-1)).reshape(self.wide, self.wide)
        return tuple(bool(can and (res[rows].max(initial=0.0) > tol))
                     for can, rows in zip(self.growable, self.edges))


@dataclass(frozen=True)
class SteadySolution:
    """Output of :func:`steady_solution`.

    ``rho`` is the d x d state, ``window`` the levels (lo, hi) it was solved
    on (zero outside them) and ``residual`` its max-abs full-space residual.
    """

    rho: np.ndarray
    window: tuple
    residual: float


def steady_state(spec: LindbladSpec, tol: float = 1e-10, check_unique: bool = True) -> np.ndarray:
    """Steady state of the Lindblad generator, to max-abs residual ``tol`` on the full space.

    The solve runs on a window [lo, hi) of the levels (see the module
    docstring).  The first window is the top min(d, 40) levels; the exact
    full-space residual of the zero-padded state is taken from the window
    widened by the operators' bandwidth, and each edge whose residual rows
    there exceed ``tol`` moves out by half the window size until the gate
    passes; a window of at least 2d/3 levels is the whole ladder.  In the
    window the solve runs on the block of vec coordinates
    reachable from the maximally mixed state.  ``check_unique`` probes a
    second replaced row inside the block and factorizes the complement block
    of the accepted window, whose singularity would allow a second fixed
    point outside it.  :func:`steady_solution` also returns the window and
    the residual.

    Raises ValueError if no dissipator has a positive rate,
    :class:`SteadyStateError` if no solution reaches the tolerance and
    :class:`NonUniqueSteadyStateError` if the kernel appears degenerate.
    """
    return steady_solution(spec, tol, check_unique).rho


def steady_solution(spec: LindbladSpec, tol: float = 1e-10,
                    check_unique: bool = True) -> SteadySolution:
    """The solve of :func:`steady_state`, with the window it accepted and the state's residual."""
    if not any(rate > 0 for rate, _ in spec.dissipators):
        raise ValueError("steady_state requires a dissipator with a positive rate")
    d = spec.dim
    width = _edge_width(spec)
    lo, hi = _grown(0, min(d, _FIRST_WINDOW), (False, False), d)
    while True:
        win = _Window(spec, lo, hi, width)
        rho, res, grow = None, np.inf, (False, False)
        for row in (0, win.m - 1):
            try:
                candidate = win.state(_solve_block(win.lv_r, win.trace, row))
            except RuntimeError:
                continue
            r = win.residual(candidate)
            if r < res:
                rho, res = candidate, r
            if res <= tol:
                break
            # A window too small fails at its edges whichever row is replaced.
            grow = win.edges_over(rho, tol)
            if any(grow):
                break
        if not any(grow):
            break
        lo, hi = _grown(lo, hi, grow, d)

    if res > tol:
        logger.info("direct steady-state residual %.3e > tol, falling back to relaxation", res)
        rho, res = _steady_by_integration(win, tol)
        if res > tol:
            raise SteadyStateError(
                f"steady state did not converge: residual {res:.3e} > tol {tol:.1e}",
                residual=res,
            )

    if check_unique:
        # An exactly singular re-solve means the trace constraint did not pin
        # the block kernel down: more than one fixed point.
        try:
            rho2 = win.state(_solve_block(win.lv_r, win.trace, win.m // 2))
        except RuntimeError:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: probe solve singular", residual=res
            ) from None
        if win.residual(rho2) <= 10.0 * max(tol, res) and np.max(np.abs(rho2 - rho)) > 100.0 * tol:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: two fixed points found", residual=res
            )
        # A singular complement block allows a fixed point outside the block.
        comp = np.setdiff1d(np.arange(win.m * win.m), win.idx, assume_unique=True)
        if len(comp):
            try:
                spla.splu(win.lv[comp][:, comp].tocsc())
            except RuntimeError:
                raise NonUniqueSteadyStateError(
                    "non-unique steady state: complement block singular", residual=res
                ) from None
    if win.m < d:
        rho, window_rho = np.zeros((d, d), dtype=np.complex128), rho
        rho[lo:hi, lo:hi] = window_rho
    return SteadySolution(rho, (lo, hi), res)


def _steady_by_integration(win: _Window, tol: float):
    """Relax the maximally mixed state of the window until its full-space residual drops below tol.

    The state evolves on the window's reachable block.  Horizons double from
    10 and stop at t = 1e4.
    """
    rho = maximally_mixed(win.m)
    coords = _RealCoordinates(win.lv_r, win.idx, win.m)
    taylor = _Taylor(coords.generator)
    x = coords.to_real(rho.reshape(-1)[win.idx])
    t, horizon = 0.0, 10.0
    res = win.residual(rho)
    while t < 1e4 and res > tol:
        x = taylor.step(x, horizon)
        rho = win.state(coords.to_block @ x)
        t += horizon
        horizon *= 2.0
        res = win.residual(rho)
    return rho, res


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


class _RealCoordinates:
    """The generator on the Hermitian states of a block, in real coordinates.

    ``lv`` is the generator on the vec coordinates ``idx`` of a d x d state,
    a block closed under (i, j) -> (j, i).  L(rho+) = L(rho)+, so on Hermitian
    states L is real-linear in the real coordinates x: Re rho_ij for i <= j,
    then Im rho_ij for i < j, one per block coordinate.  ``to_block`` maps x
    back to the block (at most two entries per row), and the real generator
    is L_R = [Re (L to_block) on the rows i <= j; Im (L to_block) on i < j].
    ``low`` and ``high`` are the levels min(i, j) and max(i, j) of each real
    coordinate.
    """

    def __init__(self, lv: sp.csr_matrix, idx: np.ndarray, d: int):
        n = len(idx)
        i, j = np.divmod(idx, d)
        # The upper-triangle representative of each coordinate, and its Im sign.
        rep = np.where(i <= j, np.arange(n), np.searchsorted(idx, j * d + i))
        sign = np.sign(j - i)
        self.upper, self.strict = np.flatnonzero(i <= j), np.flatnonzero(i < j)
        off = np.flatnonzero(sign)
        rows = np.concatenate((np.arange(n), off))
        cols = np.concatenate((np.searchsorted(self.upper, rep),
                               len(self.upper) + np.searchsorted(self.strict, rep[off])))
        vals = np.concatenate((np.ones(n), 1j * sign[off]))
        self.to_block = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        lt = (lv @ self.to_block).tocsr()
        self.generator = sp.vstack((lt[self.upper].real, lt[self.strict].imag), format="csr")
        self.generator.eliminate_zeros()
        of_x = np.concatenate((self.upper, self.strict))  # the block coordinate of each x
        self.low, self.high = np.minimum(i, j)[of_x], np.maximum(i, j)[of_x]
        self.d = d

    def to_real(self, vec: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian state given on the block."""
        return np.concatenate((vec[self.upper].real, vec[self.strict].imag))


class _LevelWindow:
    """The coordinates of a :class:`_RealCoordinates` whose two levels both lie in [lo, hi).

    ``sel`` selects them and ``taylor`` steps the real generator sliced to
    them, with the slice's own shift and 1-norm.  ``edges`` selects, within
    ``sel``, the coordinates within ``width`` levels of the lower and the upper
    edge, or is None for an edge at the end of the ladder, which cannot move.
    """

    def __init__(self, coords: _RealCoordinates, lo: int, hi: int, width: int):
        self.sel = np.flatnonzero((coords.low >= lo) & (coords.high < hi))
        self.taylor = _Taylor(coords.generator[self.sel][:, self.sel])
        low, high = coords.low[self.sel], coords.high[self.sel]
        self.edges = (np.flatnonzero(low < lo + width) if lo > 0 else None,
                      np.flatnonzero(high >= hi - width) if hi < coords.d else None)

    def edges_over(self, y: np.ndarray) -> tuple:
        """Whether each edge, lower and upper, can move and has an entry of ``y`` > 2^-53 max|y|."""
        tol = 2.0**-53 * np.abs(y).max()
        return tuple(rows is not None and bool(np.abs(y[rows]).max(initial=0.0) > tol)
                     for rows in self.edges)


def _reachable_block(lv: sp.csr_matrix, vec: np.ndarray):
    """Vec coordinates ``lv`` can reach from the support of ``vec``, and ``lv`` sliced to them.

    A breadth-first search over the nonzero entries of ``lv`` by columns
    (coordinate j reaches i where L_ij != 0) visits each column once.  Since
    no coordinate outside the set is coupled to one inside it, the sliced
    generator propagates the state exactly.  The search also adds the mirror
    (j, i) of every coordinate (i, j), so the block carries Hermitian states
    even where a stored zero breaks the symmetry of the pattern.
    """
    d = math.isqrt(len(vec))
    mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
    cols = (lv != 0).tocsc()  # the boolean pattern, without stored zeros
    indptr, rows = cols.indptr, cols.indices
    reach = vec != 0
    reach |= reach[mirror]
    frontier = np.flatnonzero(reach)
    # Deduplicates a frontier without sorting (np.unique also imports numpy.ma, ~1 MB).
    slot = np.empty(d * d, dtype=np.intp)
    while len(frontier):
        # Row indices of every entry in the frontier's columns, in one gather.
        start, count = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        hit = rows[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
        hit = hit[~reach[hit]]
        hit = np.concatenate([hit, mirror[hit]])
        order = np.arange(len(hit))
        slot[hit] = order
        frontier = hit[slot[hit] == order]
        reach[frontier] = True
    idx = np.flatnonzero(reach)
    return idx, lv[idx][:, idx]


def evolve(
    spec: LindbladSpec,
    rho0: np.ndarray,
    times,
    observables: dict | None = None,
    keep_states: bool = True,
) -> TrajectoryResult:
    """Propagate rho0 from t = 0 through the increasing output ``times``.

    rho0 must be Hermitian (to ``HERMITIAN_TOL``) and nonzero: the
    Liouvillian is assembled once and sliced to the block reachable from the
    support of rho0 (see the module docstring), and its real generator on the
    Hermitian states of that block is built once.  rho0 enters through its
    upper triangle.  The state is propagated on a window of ladder levels,
    from the levels rho0 occupies widened by 20 on each side; a step after
    which the state reaches an edge that can move is redone on a wider
    window.  Each step between consecutive output times takes the Al-Mohy &
    Higham Taylor parameters for its length on the window's generator and
    works to double precision, so there is no tolerance to choose; each
    stored state is mapped back to complex coordinates.  ``states`` is a
    ``(len(times), d, d)`` array.  ``observables`` maps names to operators
    whose expectation values Tr(op rho(t)) are evaluated on all states in one
    product; they are complex arrays, since an operator such as J+^2 need not
    be Hermitian.  ``keep_states=False`` stores, of each state, only the reachable
    coordinates the observables read, and returns no states.
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
    occupied = np.flatnonzero(np.any(rho0 != 0, axis=0) | np.any(rho0 != 0, axis=1))
    if len(occupied) == 0:
        raise ValueError("initial state must be nonzero")

    idx, lv_r = _reachable_block(liouvillian_matrix(spec), rho0.reshape(-1))
    coords = _RealCoordinates(lv_r, idx, d)
    if keep_states:
        support, dst, back = None, idx, coords.to_block
    else:
        # Without kept states only the reachable coordinates the observables read are stored.
        support = np.intersect1d(idx, expectation_support(observables)) if observables else idx[:0]
        dst, back = slice(None), coords.to_block[np.searchsorted(idx, support)]
    stack = np.zeros((len(times), d * d if keep_states else len(support)), dtype=np.complex128)
    half = _FIRST_WINDOW // 2
    lo, hi = _grown(max(int(occupied[0]) - half, 0), min(int(occupied[-1]) + 1 + half, d),
                    (False, False), d)
    width = _edge_width(spec)
    win, matvecs = _LevelWindow(coords, lo, hi, width), 0
    x, t_prev = coords.to_real(rho0.reshape(-1)[idx]), 0.0
    for k, t in enumerate(times):
        if t > t_prev:
            while True:
                y = win.taylor.step(x[win.sel], t - t_prev)
                grow = win.edges_over(y)
                if not any(grow):
                    break
                # The state reached an edge that can move: redo the step on a wider window.
                lo, hi = _grown(lo, hi, grow, d)
                matvecs += win.taylor.matvecs
                win = _LevelWindow(coords, lo, hi, width)
            x[win.sel] = y
            t_prev = t
        stack[k, dst] = back @ x

    return TrajectoryResult(
        times=times,
        states=stack.reshape(len(times), d, d) if keep_states else None,
        expectations=expectation_values(observables, stack, support) if observables else {},
        block_size=len(idx),
        matvecs=matvecs + win.taylor.matvecs,
        window=(lo, hi),
    )


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-8,
) -> None:
    """Raise ValueError if rho violates Hermiticity, unit trace, or positivity."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise ValueError(f"state not Hermitian: max dev {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"state trace {tr} != 1")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < eig_floor:
        raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}")


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim

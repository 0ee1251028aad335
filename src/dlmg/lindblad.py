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
one-dimensional kernel spanned by the steady state.  The maximally mixed state
relaxes to it without leaving the block of vec coordinates reachable from its
support (see Dynamics below), so the solve works on that block only: the even
parity half of rho for gamma = 0 and gamma = -1, the N + 1 populations for
gamma = +1.  One diagonal row of the sliced Liouvillian is replaced by the
trace row, the system is factorized by sparse LU, and the solve finishes with
one step of iterative refinement on the same factorization.  The refinement
step keeps the relative accuracy of tiny populations (e.g. the far tail of the
Dicke ladder), which the fill-reducing ordering of the factorization alone
loses.  The residual is checked on the full d x d state.  Uniqueness is
probed by re-solving the block with a different replaced row and by
factorizing the complement block C: nothing leaves the block, so in the
ordering (block, complement) the Liouvillian is block upper-triangular, and
if C is nonsingular the kernel is the block kernel padded with zeros.  If the
direct solve fails to reach the residual tolerance, the maximally mixed state
is relaxed on the block over doubling horizons as a fallback.

Dynamics: the generator only couples vec coordinates along its sparsity
pattern, so a state never leaves the coordinates reachable from the support
of its initial value.  Propagation slices the Liouvillian to that reachable
block and applies its exponential by the truncated Taylor method of Al-Mohy &
Higham (SIAM J. Sci. Comput. 33, 488 (2011)), the algorithm of
``scipy.sparse.linalg.expm_multiply``, with its shift and 1-norm set up once
per trajectory rather than once per output step.  Since L(rho+) = L(rho)+,
a Hermitian state stays Hermitian, so the propagation runs on its real
coordinates (Re rho_ij for i <= j, Im rho_ij for i < j) with a real sparse
generator; the initial state must therefore be Hermitian.  It works to double
precision, so there is no tolerance to choose.  The reduction is exact and
needs no symmetry flag: for the gamma = 0 model started in a Dicke state the
block is the even-parity part of rho (i - j even, the weak Z2 symmetry of
Buca & Prosen, NJP 14, 073007 (2012)), about half the unknowns; for
gamma = +1 from a diagonal state it is the N + 1 populations; a start with
odd coherences keeps the whole space.
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

    ``block_size`` is the number of vec coordinates propagated and
    ``matvecs`` the number of sparse products the propagation took.
    """

    times: np.ndarray
    states: np.ndarray | None = None
    expectations: dict = field(default_factory=dict)
    block_size: int = 0
    matvecs: int = 0


def liouvillian_apply(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H,rho] + sum_k rate_k D[A_k] rho, evaluated densely."""
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


def _residual(spec: LindbladSpec, rho: np.ndarray) -> float:
    res = float(np.max(np.abs(liouvillian_apply(spec, rho))))
    return res if np.isfinite(res) else np.inf


def steady_state(
    spec: LindbladSpec,
    tol: float = 1e-10,
    check_unique: bool = True,
    max_fallback_time: float = 1e4,
) -> np.ndarray:
    """Steady state of the Lindblad generator, to max-abs residual ``tol``.

    The solve runs on the block of vec coordinates reachable from the
    maximally mixed state (see the module docstring); the state is scattered
    back to d x d and its residual is checked there.  ``check_unique`` probes
    a second replaced row inside the block and factorizes the complement
    block, whose singularity would allow a second fixed point outside it.

    Raises :class:`SteadyStateError` if no solution reaches the tolerance and
    :class:`NonUniqueSteadyStateError` if the kernel appears degenerate.
    """
    if not spec.dissipators:
        raise ValueError("steady_state requires at least one dissipator")
    d = spec.dim
    lv = liouvillian_matrix(spec)
    idx, lv_r = _reachable_block(lv, maximally_mixed(d).reshape(-1))
    trace = np.searchsorted(idx, _trace_indices(d))

    rho, res = None, np.inf
    for row in (0, d - 1):
        try:
            candidate = _block_state(_solve_block(lv_r, trace, row), idx, d)
        except RuntimeError:
            continue
        r = _residual(spec, candidate)
        if r < res:
            rho, res = candidate, r
        if res <= tol:
            break

    if res > tol:
        logger.info("direct steady-state residual %.3e > tol, falling back to relaxation", res)
        rho, res = _steady_by_integration(spec, idx, lv_r, tol, max_fallback_time)
        if res > tol:
            raise SteadyStateError(
                f"steady state did not converge: residual {res:.3e} > tol {tol:.1e}",
                residual=res,
            )

    if check_unique:
        # An exactly singular re-solve means the trace constraint did not pin
        # the block kernel down: more than one fixed point.
        try:
            rho2 = _block_state(_solve_block(lv_r, trace, d // 2), idx, d)
        except RuntimeError:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: probe solve singular", residual=res
            ) from None
        if _residual(spec, rho2) <= 10.0 * max(tol, res) and np.max(np.abs(rho2 - rho)) > 100.0 * tol:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: two fixed points found", residual=res
            )
        # A singular complement block allows a fixed point outside the block.
        comp = np.setdiff1d(np.arange(d * d), idx, assume_unique=True)
        if len(comp):
            try:
                spla.splu(lv[comp][:, comp].tocsc())
            except RuntimeError:
                raise NonUniqueSteadyStateError(
                    "non-unique steady state: complement block singular", residual=res
                ) from None
    return rho


def _steady_by_integration(spec, idx, lv_r, tol, max_time):
    """Relax the maximally mixed state on its reachable block until the residual drops below tol."""
    d = spec.dim
    rho = maximally_mixed(d)
    propagator = _Propagator(lv_r, idx, d)
    x = propagator.to_real(rho.reshape(-1)[idx])
    t, horizon = 0.0, 10.0
    res = _residual(spec, rho)
    while t < max_time and res > tol:
        x = propagator.step(x, horizon)
        rho = _block_state(propagator.to_block @ x, idx, d)
        t += horizon
        horizon *= 2.0
        res = _residual(spec, rho)
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


class _Propagator:
    """exp(dt L) on Hermitian states, in real coordinates, by the Taylor method of Al-Mohy & Higham.

    ``lv`` is the generator on the vec coordinates ``idx`` of a d x d state,
    a block closed under (i, j) -> (j, i).  L(rho+) = L(rho)+, so on Hermitian
    states L is real-linear in the real coordinates x: Re rho_ij for i <= j,
    then Im rho_ij for i < j, one per block coordinate.  ``to_block`` maps x
    back to the block (at most two entries per row), and the real generator
    is L_R = [Re (L to_block) on the rows i <= j; Im (L to_block) on i < j].

    Set up once per generator: L_R is shifted by mu = tr(L_R)/n and the exact
    1-norm of the shifted matrix A is taken.  Each step of length dt picks the
    first (m, s) that minimises m*s with s = ceil(dt ||A||_1 / theta_m), takes
    s substeps of the m-term Taylor series of exp(dt A / s) with the early stop
    of the paper, and rescales by exp(dt mu / s).  This works to double
    precision with no tolerance to choose.  Wherever dt ||A||_1 <= 63.4 (their
    condition 3.13) it takes the same (m, s) as ``expm_multiply``; above that
    it takes more substeps, never fewer.  ``matvecs`` counts the products.
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
        lv_real = sp.vstack((lt[self.upper].real, lt[self.strict].imag), format="csr")
        lv_real.eliminate_zeros()
        self.mu = lv_real.diagonal().sum() / n
        self.a = lv_real - self.mu * sp.identity(n, format="csr")
        self.norm = float(abs(self.a).sum(axis=0).max())
        self.matvecs = 0

    def to_real(self, vec: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian state given on the block."""
        return np.concatenate((vec[self.upper].real, vec[self.strict].imag))

    def step(self, x: np.ndarray, dt: float) -> np.ndarray:
        """exp(dt L_R) x as a new array."""
        scaled = dt * self.norm
        if scaled == 0.0:
            m, s = 0, 1
        else:
            m, s = min(((k, int(np.ceil(scaled / theta))) for k, theta in _THETA.items()),
                       key=lambda ms: ms[0] * ms[1])
        eta = np.exp(dt * self.mu / s)
        f = np.array(x, dtype=np.float64)
        for _ in range(s):
            b = f
            c1 = np.abs(b).max()
            for j in range(m):
                b = self.a @ b
                b *= dt / (s * (j + 1))
                self.matvecs += 1
                c2 = np.abs(b).max()
                f += b
                if c1 + c2 <= 2.0**-53 * np.abs(f).max():
                    break
                c1 = c2
            f *= eta
        return f


def _reachable_block(lv: sp.csr_matrix, vec: np.ndarray):
    """Vec coordinates ``lv`` can reach from the support of ``vec``, and ``lv`` sliced to them.

    A boolean sparse matvec grows the set until it stops growing.  Since no
    coordinate outside the set is coupled to one inside it, the sliced
    generator propagates the state exactly.  Each step also adds the mirror
    (j, i) of every coordinate (i, j), so the block carries Hermitian states
    even where a stored zero breaks the symmetry of the pattern.
    """
    d = math.isqrt(len(vec))
    mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
    pattern = lv.astype(bool)
    reach = vec != 0
    while True:
        grown = reach | (pattern @ reach)
        grown |= grown[mirror]
        if np.array_equal(grown, reach):
            break
        reach = grown
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

    rho0 must be Hermitian (to ``HERMITIAN_TOL``): the Liouvillian is sliced
    to the block reachable from the support of rho0 (see the module
    docstring), and a propagator is set up once for it in the real
    coordinates of Hermitian states on that block (shift and exact 1-norm).
    rho0 enters through its upper triangle.  Each step between consecutive
    output times takes the Al-Mohy & Higham Taylor parameters for its length
    and works to double precision, so there is no tolerance to choose; each
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

    idx, lv_r = _reachable_block(liouvillian_matrix(spec), rho0.reshape(-1))
    propagator = _Propagator(lv_r, idx, d)
    if keep_states:
        support, dst, back = None, idx, propagator.to_block
    else:
        # Without kept states only the reachable coordinates the observables read are stored.
        support = np.intersect1d(idx, expectation_support(observables)) if observables else idx[:0]
        dst, back = slice(None), propagator.to_block[np.searchsorted(idx, support)]
    stack = np.zeros((len(times), d * d if keep_states else len(support)), dtype=np.complex128)
    x, t_prev = propagator.to_real(rho0.reshape(-1)[idx]), 0.0
    for k, t in enumerate(times):
        if t > t_prev:
            x = propagator.step(x, t - t_prev)
            t_prev = t
        stack[k, dst] = back @ x

    return TrajectoryResult(
        times=times,
        states=stack.reshape(len(times), d, d) if keep_states else None,
        expectations=expectation_values(observables, stack, support) if observables else {},
        block_size=len(idx),
        matvecs=propagator.matvecs,
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

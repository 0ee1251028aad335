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
one-dimensional kernel spanned by the steady state.  One diagonal row of the
sparse Liouvillian is replaced by the trace row, the system is factorized by
sparse LU at every dimension, and the solve finishes with one step of
iterative refinement on the same factorization.  The refinement step keeps
the relative accuracy of tiny populations (e.g. the far tail of the Dicke
ladder), which the fill-reducing ordering of the factorization alone loses.
Uniqueness is probed by re-solving with a different replaced row.  If the
direct solve fails to reach the residual tolerance, long-time integration
from the maximally mixed state is used as a fallback.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .operators import Operator, expectation

logger = logging.getLogger(__name__)

class SteadyStateError(RuntimeError):
    """Steady-state solve failed; carries the best residual achieved."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


class NonUniqueSteadyStateError(SteadyStateError):
    """Detected a Liouvillian null space of dimension > 1."""


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus (rate, collapse operator) pairs in the factor-2 D convention."""

    hamiltonian: Operator
    dissipators: tuple = ()

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValueError("hamiltonian must be Hermitian")
        for rate, op in self.dissipators:
            if rate < 0:
                raise ValueError(f"dissipator rate must be >= 0, got {rate}")
            if op.dim != self.dim:
                raise ValueError("dissipator dimension mismatch")
        object.__setattr__(self, "dissipators", tuple(self.dissipators))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclass
class TrajectoryResult:
    """Output of :func:`evolve`: times, states, and optional expectation values."""

    times: np.ndarray
    states: list | None = None
    expectations: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Write `t,<observable>...` rows, 15 significant digits."""
        names = list(self.expectations)
        with open(path, "w") as fh:
            fh.write("t," + ",".join(names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.15g}"]
                row += [f"{self.expectations[n][i]:.15g}" for n in names]
                fh.write(",".join(row) + "\n")


def liouvillian_apply(spec: LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i[H,rho] + sum_k rate_k D[A_k] rho, evaluated densely."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (spec.dim, spec.dim):
        raise ValueError(f"dimension mismatch: spec dim {spec.dim}, state {rho.shape}")
    h = spec.hamiltonian.dense()
    out = -1j * (h @ rho - rho @ h)
    for rate, op in spec.dissipators:
        a = op.dense()
        ad = a.conj().T
        ada = ad @ a
        out += rate * (2.0 * (a @ rho @ ad) - ada @ rho - rho @ ada)
    return out


def liouvillian_matrix(spec: LindbladSpec) -> sp.csr_matrix:
    """Sparse vectorized Liouvillian (row-major vec convention)."""
    d = spec.dim
    ident = sp.identity(d, dtype=np.complex128, format="csr")
    h = spec.hamiltonian.sparse()
    lv = -1j * (sp.kron(h, ident) - sp.kron(ident, h.T))
    for rate, op in spec.dissipators:
        a = op.sparse()
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


def _solve_replaced_row(lv: sp.csr_matrix, d: int, row: int) -> np.ndarray:
    """Solve L v = 0, tr v = 1 with the diagonal row ``row`` replaced by the trace row.

    The diagonal rows of a Lindblad Liouvillian sum to zero (trace
    preservation), so replacing one of them loses no information.  The
    system is factorized once by sparse LU; one step of iterative refinement
    on that factorization (one matvec, one triangular solve) restores the
    relative accuracy of tiny populations.  Raises RuntimeError if the
    factorization finds the matrix exactly singular.
    """
    replaced = row * (d + 1)
    start, stop = lv.indptr[replaced], lv.indptr[replaced + 1]
    indices = np.concatenate((lv.indices[:start], _trace_indices(d), lv.indices[stop:]))
    data = np.concatenate((lv.data[:start], np.ones(d, dtype=lv.dtype), lv.data[stop:]))
    indptr = lv.indptr.copy()
    indptr[replaced + 1:] += d - (stop - start)
    mat = sp.csr_matrix((data, indices, indptr), shape=lv.shape)
    rhs = np.zeros(d * d, dtype=np.complex128)
    rhs[replaced] = 1.0
    lu = spla.splu(mat.tocsc())
    vec = lu.solve(rhs)
    vec += lu.solve(rhs - mat @ vec)
    return vec


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

    Raises :class:`SteadyStateError` if no solution reaches the tolerance and
    :class:`NonUniqueSteadyStateError` if the kernel appears degenerate.
    """
    if not spec.dissipators:
        raise ValueError("steady_state requires at least one dissipator")
    d = spec.dim
    lv = liouvillian_matrix(spec)

    rho, res = None, np.inf
    for row in (0, d - 1):
        try:
            candidate = _finalize_state(_solve_replaced_row(lv, d, row), d)
        except RuntimeError:
            continue
        r = _residual(spec, candidate)
        if r < res:
            rho, res = candidate, r
        if res <= tol:
            break

    if res > tol:
        logger.info("direct steady-state residual %.3e > tol, falling back to integration", res)
        rho, res = _steady_by_integration(spec, lv, tol, max_fallback_time)
        if res > tol:
            raise SteadyStateError(
                f"steady state did not converge: residual {res:.3e} > tol {tol:.1e}",
                residual=res,
            )

    if check_unique:
        probe_row = d // 2
        try:
            rho2 = _finalize_state(_solve_replaced_row(lv, d, probe_row), d)
        except RuntimeError:
            # An exactly singular re-solve means the trace constraint did not
            # pin the kernel down: more than one fixed point.
            raise NonUniqueSteadyStateError(
                "non-unique steady state: probe solve singular", residual=res
            ) from None
        if _residual(spec, rho2) <= 10.0 * max(tol, res) and np.max(np.abs(rho2 - rho)) > 100.0 * tol:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: two fixed points found", residual=res
            )

    return rho


def _steady_by_integration(spec, lv, tol, max_time):
    """Relax the maximally mixed state until the residual drops below tol."""
    d = spec.dim
    rho = np.eye(d, dtype=np.complex128) / d
    t, horizon = 0.0, 10.0
    res = _residual(spec, rho)
    while t < max_time and res > tol:
        sol = solve_ivp(
            lambda _, v: lv @ v,
            (0.0, horizon),
            rho.reshape(-1),
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )
        rho = _finalize_state(sol.y[:, -1], d)
        t += horizon
        horizon *= 2.0
        res = _residual(spec, rho)
    return rho, res


def _generator_rate_scale(spec: LindbladSpec) -> float:
    """Crude relaxation-rate scale: sum of rate * ||A||_1 ||A||_inf bounds."""
    scale = 0.0
    for rate, op in spec.dissipators:
        a = op.sparse()
        absa = abs(a)
        norm1 = absa.sum(axis=0).max()
        norminf = absa.sum(axis=1).max()
        scale += rate * float(norm1 * norminf)
    return scale


def evolve(
    spec: LindbladSpec,
    rho0: np.ndarray,
    times,
    tol: float = 1e-9,
    observables: dict | None = None,
    keep_states: bool = True,
) -> TrajectoryResult:
    """Propagate rho0 through the output ``times`` with adaptive RK45.

    ``observables`` maps names to Operators evaluated at every output time.
    Set ``keep_states=False`` to drop the density matrices (saves memory on
    long trajectories when only expectation values are needed).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and start at >= 0")
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (spec.dim, spec.dim):
        raise ValueError("initial state dimension mismatch")

    lv = liouvillian_matrix(spec)
    rate_scale = _generator_rate_scale(spec)
    span = times[-1] - (times[0] if times[0] > 0 else 0.0)
    max_step = 0.1 / rate_scale if rate_scale > 0 else np.inf
    max_step = min(max_step, span / 10.0) if span > 0 else max_step

    t0 = 0.0
    t_eval = times
    if times[0] > 0:
        t_eval = np.concatenate(([0.0], times))
    sol = solve_ivp(
        lambda _, v: lv @ v,
        (t0, times[-1]),
        rho0.reshape(-1),
        method="RK45",
        t_eval=t_eval,
        rtol=tol,
        atol=tol,
        max_step=max_step,
    )
    if not sol.success:
        raise RuntimeError(f"time integration failed: {sol.message}")

    offset = len(t_eval) - len(times)
    states = [sol.y[:, offset + i].reshape(spec.dim, spec.dim) for i in range(len(times))]

    expectations = {}
    if observables:
        for name, op in observables.items():
            expectations[name] = np.array(
                [expectation(op, rho).real for rho in states]
            )
    return TrajectoryResult(
        times=times,
        states=states if keep_states else None,
        expectations=expectations,
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

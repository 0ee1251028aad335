"""Collective angular-momentum algebra in the symmetric Dicke basis.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  Basis ordering is m descending from +j, so index 0 is
the all-spins-up state |j, j> and index N is |j, -j>.  Every other module
inherits this ordering.

Operators are stored dense below ``DENSE_CUTOFF`` and as CSR sparse matrices
above it; the ladder operators are banded, so sparse storage is what matters
once Liouvillian assembly enters the picture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# Dimension above which operator matrices are kept sparse.
DENSE_CUTOFF = 64

HERMITIAN_TOL = 1e-12


class Operator:
    """Square complex matrix acting on the (N+1)-dimensional Dicke sector.

    Thin wrapper around a dense ndarray or a scipy CSR matrix; arithmetic
    (`@`, `+`, `-`, scalar `*`) delegates to the underlying storage.
    """

    __slots__ = ("data", "dim")

    def __init__(self, data):
        if sp.issparse(data):
            data = data.tocsr().astype(np.complex128)
        else:
            data = np.asarray(data, dtype=np.complex128)
            if data.ndim != 2:
                raise ValueError("operator data must be a 2-d matrix")
        if data.shape[0] != data.shape[1]:
            raise ValueError(f"operator must be square, got shape {data.shape}")
        self.data = data
        self.dim = data.shape[0]

    @classmethod
    def from_matrix(cls, mat, dense_cutoff: int = DENSE_CUTOFF) -> "Operator":
        """Wrap ``mat``, choosing dense/sparse storage by dimension."""
        op = cls(mat)
        if op.dim > dense_cutoff and not sp.issparse(op.data):
            op.data = sp.csr_matrix(op.data)
        elif op.dim <= dense_cutoff and sp.issparse(op.data):
            op.data = op.data.toarray()
        return op

    def dense(self) -> np.ndarray:
        """Return the matrix as a dense ndarray."""
        if sp.issparse(self.data):
            return self.data.toarray()
        return self.data

    def sparse(self) -> sp.csr_matrix:
        """Return the matrix in CSR form."""
        if sp.issparse(self.data):
            return self.data
        return sp.csr_matrix(self.data)

    def dag(self) -> "Operator":
        """Hermitian conjugate."""
        if sp.issparse(self.data):
            return Operator(self.data.conj().T.tocsr())
        return Operator(self.data.conj().T)

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        a = self.dense()
        return bool(np.max(np.abs(a - a.conj().T)) <= tol)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Operator):
            return other.data
        return other

    def __matmul__(self, other):
        result = self.data @ self._coerce(other)
        return Operator(result) if isinstance(other, Operator) else result

    def __add__(self, other):
        return Operator(self.data + self._coerce(other))

    def __sub__(self, other):
        return Operator(self.data - self._coerce(other))

    def __mul__(self, scalar):
        return Operator(self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.data)

    def __repr__(self):
        kind = "sparse" if sp.issparse(self.data) else "dense"
        return f"Operator(dim={self.dim}, {kind})"

    def to_json(self) -> str:
        """Debug dump: ``{dim, triplets: [[row, col, re, im], ...]}``."""
        coo = self.sparse().tocoo()
        triplets = [
            [int(r), int(c), float(v.real), float(v.imag)]
            for r, c, v in zip(coo.row, coo.col, coo.data)
        ]
        return json.dumps({"dim": self.dim, "triplets": triplets})


@dataclass(frozen=True)
class DickeAlgebra:
    """Collective spin operators for N spin-1/2 particles, j = N/2 sector."""

    n_spins: int
    j: float
    jx: Operator
    jy: Operator
    jz: Operator
    jplus: Operator
    jminus: Operator
    identity: Operator = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.n_spins + 1


def build_algebra(n_spins: int) -> DickeAlgebra:
    """Construct the Dicke-basis collective spin algebra for ``n_spins`` atoms.

    Basis index i corresponds to m = j - i (m descending from +j), which puts
    the all-up state first.  Satisfies J+- = Jx +- i Jy exactly and the su(2)
    commutation relations to machine precision.
    """
    if not isinstance(n_spins, (int, np.integer)) or n_spins < 1:
        raise ValueError(f"n_spins must be a positive integer, got {n_spins!r}")
    n = int(n_spins)
    j = n / 2.0
    dim = n + 1
    m = j - np.arange(dim)  # m values by basis index, +j first

    jz_mat = np.diag(m.astype(np.complex128))
    # J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; index i -> i-1 is m -> m+1.
    src_m = m[1:]
    ladder = np.sqrt(j * (j + 1) - src_m * (src_m + 1)).astype(np.complex128)
    jp_mat = np.diag(ladder, k=1)
    jm_mat = np.diag(ladder, k=-1)
    jx_mat = (jp_mat + jm_mat) / 2.0
    jy_mat = (jp_mat - jm_mat) / 2j

    wrap = lambda a: Operator.from_matrix(a)
    return DickeAlgebra(
        n_spins=n,
        j=j,
        jx=wrap(jx_mat),
        jy=wrap(jy_mat),
        jz=wrap(jz_mat),
        jplus=wrap(jp_mat),
        jminus=wrap(jm_mat),
        identity=wrap(np.eye(dim, dtype=np.complex128)),
    )


def all_up_state(n_spins: int) -> np.ndarray:
    """Density matrix of |j, j><j, j| (every spin up), the standard initial state."""
    dim = n_spins + 1
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def dicke_state(n_spins: int, m: float) -> np.ndarray:
    """Density matrix of the Dicke state |j, m><j, m|."""
    j = n_spins / 2.0
    idx = round(j - m)
    if not (0 <= idx <= n_spins) or abs((j - idx) - m) > 1e-12:
        raise ValueError(f"m={m} is not a valid projection for N={n_spins}")
    dim = n_spins + 1
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[idx, idx] = 1.0
    return rho


def expectation(op, rho: np.ndarray) -> complex:
    """Trace(op @ rho).

    ``op`` may be an Operator, ndarray, or scipy sparse matrix; ``rho`` is a
    density matrix (plain ndarray).
    """
    mat = op.data if isinstance(op, Operator) else op
    rho = np.asarray(rho)
    dim = mat.shape[0]
    if rho.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: operator {mat.shape}, state {rho.shape}")
    if sp.issparse(mat):
        return complex(mat.multiply(rho.T).sum())
    return complex(np.sum(mat * rho.T))


def _vec_rows(ops: dict) -> sp.csr_matrix:
    """One sparse row vec(op^T) per operator, so that Tr(op @ rho) = vec(op^T) . vec(rho)."""
    mats = [op.data if isinstance(op, Operator) else op for op in ops.values()]
    d = mats[0].shape[0]
    return sp.vstack([sp.csr_matrix(mat.T).reshape(1, d * d) for mat in mats]).tocsr()


def expectation_support(ops: dict) -> np.ndarray:
    """Sorted row-major vec coordinates of rho that Tr(op @ rho) reads for some op in ``ops``."""
    return np.unique(_vec_rows(ops).indices)


def expectation_values(ops: dict, states: np.ndarray, support=None) -> dict:
    """Trace(op @ rho) of each named operator on every state of a stack.

    One linear map over the stacked states: row-major vec(rho) dotted with
    vec(op^T), for all operators at once.  ``states`` is a (T, d, d) stack,
    or with ``support`` a (T, len(support)) stack holding only the vec
    coordinates ``support`` of each state (the others being zero).  Returns
    complex arrays of length T.  Only the vec coordinates some operator
    touches are read: they are gathered from the stack, and the few operator
    rows are made dense on them, so BLAS reads the gathered block in place
    and the stack itself is never copied.
    """
    rows = _vec_rows(ops)
    if support is not None:
        rows = rows[:, support]
    cols = np.unique(rows.indices)
    states = np.asarray(states)
    values = rows[:, cols].toarray() @ states.reshape(len(states), -1)[:, cols].T
    return dict(zip(ops, values))


def commutator(a, b) -> np.ndarray:
    """[a, b] as a dense matrix."""
    am = a.dense() if isinstance(a, Operator) else np.asarray(a)
    bm = b.dense() if isinstance(b, Operator) else np.asarray(b)
    return am @ bm - bm @ am

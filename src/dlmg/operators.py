"""Collective angular-momentum algebra in the symmetric Dicke basis.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  Basis ordering is m descending from +j, so index 0 is
the all-spins-up state |j, j> and index N is |j, -j>.  Every other module
inherits this ordering.

The collective operators are complex CSR matrices (``scipy.sparse``) at every
N: Jz is diagonal and J+- are single off-diagonal bands, so their products
and the Liouvillians built from them stay sparse.  Exact zeros (the m = 0
entry of Jz at even N) are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class DickeAlgebra:
    """Collective spin operators for N spin-1/2 particles, j = N/2 sector, as complex CSR."""

    n_spins: int
    j: float
    jx: sp.csr_matrix
    jy: sp.csr_matrix
    jz: sp.csr_matrix
    jplus: sp.csr_matrix
    jminus: sp.csr_matrix

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

    # J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; index i -> i-1 is m -> m+1.
    src_m = m[1:]
    ladder = np.sqrt(j * (j + 1) - src_m * (src_m + 1)).astype(np.complex128)
    # Jy = (J+ - J-) / 2i entry by entry; 0 - ladder (not -ladder) keeps the
    # real parts +0, as the matrix difference gives them.
    return DickeAlgebra(
        n_spins=n,
        j=j,
        jx=_tridiagonal(dim, ladder / 2.0, 0.0, ladder / 2.0),
        jy=_tridiagonal(dim, (0.0 - ladder) / 2j, 0.0, ladder / 2j),
        jz=_tridiagonal(dim, 0.0, m, 0.0),
        jplus=_tridiagonal(dim, 0.0, 0.0, ladder),
        jminus=_tridiagonal(dim, ladder, 0.0, 0.0),
    )


def _tridiagonal(dim: int, lower, diag, upper) -> sp.csr_matrix:
    """Complex CSR matrix with the given sub-, main and super-diagonal; zeros are not stored."""
    band = np.zeros((dim, 3), dtype=np.complex128)
    band[1:, 0], band[:, 1], band[:-1, 2] = lower, diag, upper
    cols = np.arange(dim)[:, None] + np.arange(-1, 2)
    keep = band != 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return sp.csr_matrix((band[keep], cols[keep], indptr), shape=(dim, dim))


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

    ``op`` is a scipy sparse matrix, such as the operators of
    :class:`DickeAlgebra`, or a dense ndarray; ``rho`` is a density matrix
    (plain ndarray).
    """
    rho = np.asarray(rho)
    if rho.shape != (op.shape[0], op.shape[0]):
        raise ValueError(f"dimension mismatch: operator {op.shape}, state {rho.shape}")
    if sp.issparse(op):
        return complex(op.multiply(rho.T).sum())
    return complex(np.sum(op * rho.T))


def _vec_rows(ops: dict) -> sp.csr_matrix:
    """One sparse row vec(op^T) per operator, so that Tr(op @ rho) = vec(op^T) . vec(rho)."""
    d = next(iter(ops.values())).shape[0]
    return sp.vstack([sp.csr_matrix(op.T).reshape(1, d * d) for op in ops.values()]).tocsr()


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

"""Dicke-basis algebra: ladder structure, su(2) closure, expectation values."""

import numpy as np
import pytest
import scipy.sparse as sp

from dlmg.lindblad import LindbladSpec
from dlmg.operators import (
    all_up_state,
    build_algebra,
    dicke_state,
    expectation,
)


def test_spin_half_matrices():
    alg = build_algebra(1)
    assert np.allclose(alg.jz.toarray(), np.diag([0.5, -0.5]))
    # J+ couples |1/2,-1/2> (index 1) to |1/2,+1/2> (index 0) with unit weight
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.allclose(alg.jplus.toarray(), expected)
    assert np.allclose(alg.jminus.toarray(), expected.T)


def test_spin_one_ladder_weights():
    alg = build_algebra(2)
    off = np.diag(alg.jplus.toarray(), k=1)
    assert np.allclose(off, [np.sqrt(2.0), np.sqrt(2.0)])


@pytest.mark.parametrize("n", [1, 2, 5, 25, 100])
def test_commutator_closure_and_casimir(n):
    alg = build_algebra(n)
    jx, jy, jz = alg.jx.toarray(), alg.jy.toarray(), alg.jz.toarray()
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) <= 1e-12
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) <= 1e-12
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) <= 1e-12
    casimir = jx @ jx + jy @ jy + jz @ jz
    target = alg.j * (alg.j + 1.0) * np.eye(alg.dim)
    assert np.max(np.abs(casimir - target)) <= 1e-10


@pytest.mark.parametrize("n", [1, 3, 10, 80])
def test_ladder_identities_exact(n):
    alg = build_algebra(n)
    jp = alg.jx.toarray() + 1j * alg.jy.toarray()
    jm = alg.jx.toarray() - 1j * alg.jy.toarray()
    assert np.array_equal(jp, alg.jplus.toarray())
    assert np.array_equal(jm, alg.jminus.toarray())


def test_basis_ordering_m_descending():
    alg = build_algebra(6)
    assert np.allclose(np.diag(alg.jz.toarray()).real, [3, 2, 1, 0, -1, -2, -3])
    for op in (alg.jx, alg.jy, alg.jz, alg.jplus, alg.jminus):
        assert isinstance(op, sp.csr_matrix) and op.dtype == np.complex128
    assert alg.jz.nnz == 6  # the m = 0 entry is not stored
    # all-up occupies index 0
    rho = all_up_state(6)
    assert expectation(alg.jz, rho) == pytest.approx(3.0)


def test_expectation_examples():
    alg = build_algebra(10)
    rho = all_up_state(10)
    assert expectation(alg.jz, rho) == pytest.approx(5.0, abs=1e-12)
    assert expectation(np.eye(alg.dim), rho) == pytest.approx(1.0, abs=1e-12)
    # <j,j|Jx^2|j,j> = j/2, cross-checked by brute-force matrix product
    jx2 = alg.jx.toarray() @ alg.jx.toarray()
    brute = (rho @ jx2).trace()
    assert brute == pytest.approx(2.5, abs=1e-12)
    assert expectation(alg.jx @ alg.jx, rho) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_expectation_gathers_the_stored_entries(fmt):
    # Tr(op rho) from the stored entries of op, in any sparse format, against the dense trace.
    rng = np.random.default_rng(5)
    op = sp.random(9, 9, density=0.3, random_state=7, format=fmt) * (1.0 - 2.0j)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = a @ a.conj().T
    assert expectation(op, rho) == pytest.approx(np.trace(op.toarray() @ rho), abs=1e-12)


def test_expectation_hermitian_real():
    rng = np.random.default_rng(3)
    alg = build_algebra(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    val = expectation(alg.jy @ alg.jy, rho)
    assert abs(val.imag) <= 1e-10


def test_expectation_dimension_mismatch():
    alg = build_algebra(4)
    with pytest.raises(ValueError):
        expectation(alg.jz, np.eye(3))


def test_build_algebra_rejects_zero():
    with pytest.raises(ValueError):
        build_algebra(0)


def test_dicke_state_validation():
    rho = dicke_state(4, -2.0)
    assert rho[4, 4] == 1.0
    with pytest.raises(ValueError):
        dicke_state(4, 0.3)


def test_hermitian_flag():
    # The algebra's Hermitian operators are exactly Hermitian; LindbladSpec
    # accepts them and a 1e-13 skew, and rejects the non-Hermitian J+.
    alg = build_algebra(5)
    assert abs(alg.jx - alg.jx.conj().T).max() == 0.0
    assert abs(alg.jplus - alg.jplus.conj().T).max() > 0.0
    LindbladSpec(hamiltonian=alg.jx)
    LindbladSpec(hamiltonian=np.array([[1.0, 1e-13], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladSpec(hamiltonian=alg.jplus)

"""Lindblad engine vs independent dense oracles, plus trajectory invariants."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, null_space
from scipy.sparse.linalg import expm_multiply

from dlmg import lindblad
from dlmg.lindblad import (
    LindbladSpec,
    NonUniqueSteadyStateError,
    SteadyStateError,
    evolve,
    liouvillian_apply,
    liouvillian_matrix,
    maximally_mixed,
    steady_solution,
    validate_density_matrix,
)
from dlmg.models import LMGParams, build_conventional, build_gamma0, build_isotropic
from dlmg.observables import (_coherent_state, moment_operators, rescaled_concurrence,
                              spin_moments, trajectory_moments)
from dlmg.operators import all_up_state, build_algebra, dicke_state, expectation


def elementwise_superoperator(h, dissipators):
    """Independent oracle: assemble the vectorized generator entry by entry.

    Row-major vec convention; D[A] rho = 2 A rho A+ - A+A rho - rho A+A.
    """
    d = h.shape[0]
    lv = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    val = 0.0j
                    if l == j:
                        val += -1j * h[i, k]
                    if i == k:
                        val += 1j * h[l, j]
                    for rate, a in dissipators:
                        ada = a.conj().T @ a
                        val += rate * 2.0 * a[i, k] * np.conj(a[j, l])
                        if l == j:
                            val -= rate * ada[i, k]
                        if i == k:
                            val -= rate * np.conj(ada[j, l])
                    lv[i * d + j, k * d + l] = val
    return lv


def gamma0_spec(n, h, lam, gamma_a, gamma_b):
    params = LMGParams(n_atoms=n, h=h, lam=lam, Gamma_a=gamma_a, Gamma_b=gamma_b)
    return build_gamma0(params, build_algebra(n))


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# -- liouvillian_apply ---------------------------------------------------------


def test_apply_eigenstate_is_stationary():
    alg = build_algebra(6)
    spec = LindbladSpec(hamiltonian=alg.jz)
    zero = liouvillian_apply(spec, all_up_state(6))
    assert np.max(np.abs(zero)) <= 1e-14


def test_apply_all_up_dark_state_of_pump():
    # lam = 0 and Gamma_a = 0 leaves -2h Jz plus the J+ pump: all-up is dark.
    spec = gamma0_spec(5, h=0.7, lam=0.0, gamma_a=0.0, gamma_b=0.3)
    zero = liouvillian_apply(spec, all_up_state(5))
    assert np.max(np.abs(zero)) <= 1e-14


def test_apply_matches_elementwise_superoperator_n2():
    spec = gamma0_spec(2, h=1.0, lam=1.0, gamma_a=0.01, gamma_b=0.2)
    lv_oracle = elementwise_superoperator(
        spec.hamiltonian.toarray(), [(r, op.toarray()) for r, op in spec.dissipators]
    )
    rho = maximally_mixed(3)
    direct = liouvillian_apply(spec, rho)
    via_oracle = (lv_oracle @ rho.reshape(-1)).reshape(3, 3)
    assert np.max(np.abs(direct - via_oracle)) <= 1e-13
    # and the engine's sparse assembly agrees entrywise
    assert np.max(np.abs(liouvillian_matrix(spec).toarray() - lv_oracle)) <= 1e-13


def test_apply_traceless_and_hermitian():
    rng = np.random.default_rng(1)
    spec = gamma0_spec(4, h=1.0, lam=1.3, gamma_a=0.02, gamma_b=0.25)
    for _ in range(5):
        rho = random_density(rng, 5)
        out = liouvillian_apply(spec, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_apply_linearity():
    rng = np.random.default_rng(2)
    spec = gamma0_spec(3, h=0.8, lam=0.9, gamma_a=0.01, gamma_b=0.2)
    r1, r2 = random_density(rng, 4), random_density(rng, 4)
    a, b = 0.3 + 0.1j, -1.2 + 0.7j
    lhs = liouvillian_apply(spec, a * r1 + b * r2)
    rhs = a * liouvillian_apply(spec, r1) + b * liouvillian_apply(spec, r2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_apply_dimension_mismatch():
    spec = gamma0_spec(3, h=1.0, lam=0.5, gamma_a=0.0, gamma_b=0.2)
    with pytest.raises(ValueError):
        liouvillian_apply(spec, np.eye(3))


def test_factor_two_dissipator_convention():
    # Single-qubit decay at rate g: D[J-] gives d<Jz>/dt = -2g at the top state,
    # pinning the factor-2 convention.
    alg = build_algebra(1)
    g = 0.37
    spec = LindbladSpec(hamiltonian=np.zeros((2, 2)), dissipators=((g, alg.jminus),))
    drho = liouvillian_apply(spec, all_up_state(1))
    djz = np.trace(alg.jz.toarray() @ drho).real
    assert djz == pytest.approx(-2.0 * g, abs=1e-14)


# -- steady_solution ------------------------------------------------------------


def test_steady_state_dark_state():
    spec = gamma0_spec(6, h=1.0, lam=0.0, gamma_a=0.0, gamma_b=0.2)
    rho = steady_solution(spec, tol=1e-12).rho
    assert np.max(np.abs(rho - all_up_state(6))) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_steady_state_matches_null_space(n):
    spec = gamma0_spec(n, h=1.0, lam=0.9, gamma_a=0.015, gamma_b=0.22)
    lv = elementwise_superoperator(
        spec.hamiltonian.toarray(), [(r, op.toarray()) for r, op in spec.dissipators]
    )
    ns = null_space(lv, rcond=1e-12)
    assert ns.shape[1] == 1
    rho_oracle = ns[:, 0].reshape(n + 1, n + 1)
    rho_oracle /= np.trace(rho_oracle)
    rho_oracle = 0.5 * (rho_oracle + rho_oracle.conj().T)
    rho = steady_solution(spec, tol=1e-12).rho
    assert np.max(np.abs(rho - rho_oracle)) <= 1e-10


def test_steady_state_requires_dissipator():
    alg = build_algebra(3)
    spec = LindbladSpec(hamiltonian=alg.jz)
    with pytest.raises(ValueError):
        steady_solution(spec)
    # Zero rates leave the generator unitary, whose kernel is degenerate.
    spec = gamma0_spec(3, h=1.0, lam=1.0, gamma_a=0.0, gamma_b=0.0)
    with pytest.raises(ValueError, match="positive rate"):
        steady_solution(spec)


@pytest.mark.parametrize("check_unique", [True, False])
def test_steady_state_flags_degenerate_kernel(check_unique):
    # Pure dephasing D[Jz] leaves every diagonal state stationary, so the
    # replaced-row block system is singular, whether or not the probes run.
    alg = build_algebra(3)
    spec = LindbladSpec(hamiltonian=np.zeros((4, 4)), dissipators=((0.5, alg.jz),))
    with pytest.raises(NonUniqueSteadyStateError):
        steady_solution(spec, tol=1e-10, check_unique=check_unique)


def test_steady_state_large_n_residual():
    spec = gamma0_spec(70, h=1.0, lam=1.4, gamma_a=0.01, gamma_b=0.2)
    rho = steady_solution(spec, tol=1e-10).rho
    validate_density_matrix(rho)
    assert np.max(np.abs(liouvillian_apply(spec, rho))) <= 1e-10


def dense_replaced_row_steady_state(spec):
    """Oracle: dense LU of the Liouvillian with diagonal row 0 swapped for the trace row."""
    d = spec.dim
    mat = liouvillian_matrix(spec).toarray()
    mat[0, :] = 0.0
    mat[0, np.arange(d) * (d + 1)] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(mat, rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [30, 50, 63])
def test_steady_state_matches_dense_replaced_row_solve(n):
    spec = gamma0_spec(n, h=1.0, lam=1.3, gamma_a=0.01, gamma_b=0.2)
    rho = steady_solution(spec, tol=1e-10).rho
    assert np.max(np.abs(rho - dense_replaced_row_steady_state(spec))) <= 1e-12
    if n == 30:
        # Without a refinement step the sparse solve returned a negative rho_NN here.
        assert rho[-1, -1].real >= 0.0


@settings(max_examples=50)
@given(
    n=st.integers(1, 40),
    h=st.floats(0.1, 2.0),
    lam=st.floats(0.1, 2.0),
    gamma_a=st.floats(0.001, 0.5),
    gamma_b=st.floats(0.001, 0.5),
)
def test_steady_state_is_a_density_matrix(n, h, lam, gamma_a, gamma_b):
    tol = 1e-10
    spec = gamma0_spec(n, h=h, lam=lam, gamma_a=gamma_a, gamma_b=gamma_b)
    rho = steady_solution(spec, tol=tol).rho
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert np.max(np.abs(liouvillian_apply(spec, rho))) <= tol


def test_singular_block_solve_reports_a_non_unique_steady_state(monkeypatch):
    # The solve and the uniqueness probes take their residual from the sparse
    # Liouvillian, never from the dense form.
    def dense_form(*args):
        raise AssertionError("steady_solution called liouvillian_apply")

    monkeypatch.setattr(lindblad, "liouvillian_apply", dense_form)
    spec = gamma0_spec(6, h=1.0, lam=1.3, gamma_a=0.01, gamma_b=0.2)
    steady_solution(spec, tol=1e-10, check_unique=True)

    def singular(*args):
        raise RuntimeError("forced singular factorization")

    # Every replaced row gives a singular system once one does, so the solve stops there.
    monkeypatch.setattr(lindblad, "_solve_block", singular)
    for check_unique in (True, False):
        with pytest.raises(NonUniqueSteadyStateError, match="block solve singular"):
            steady_solution(spec, tol=1e-10, check_unique=check_unique)


def steady_window(spec, lo, hi):
    """The window [lo, hi) as :func:`steady_solution` builds it: on the sector of the diagonal."""
    return lindblad._Window(spec, lo, hi, (0,))


def test_steady_solution_fails_with_the_residual_it_missed(monkeypatch):
    # At d <= 60 the first window is the whole ladder, so a miss has no edge to grow.
    spec = gamma0_spec(30, h=1.0, lam=1.3, gamma_a=0.01, gamma_b=0.2)
    solve_block, calls = lindblad._solve_block, []

    def perturbed(lv_r, trace, row):
        calls.append(row)
        vec, nnz = solve_block(lv_r, trace, row)
        vec[trace[1]] += 1e-3
        return vec, nnz

    win = steady_window(spec, 0, spec.dim)
    rho = win.state(perturbed(*win.system, 0)[0])
    missed = np.max(np.abs(liouvillian_matrix(spec) @ rho.reshape(-1)))
    assert missed > 1e-6
    monkeypatch.setattr(lindblad, "_solve_block", perturbed)
    calls.clear()
    with pytest.raises(SteadyStateError) as info:
        steady_solution(spec, tol=1e-10, check_unique=True)
    assert not isinstance(info.value, NonUniqueSteadyStateError)
    assert info.value.residual == pytest.approx(missed, rel=1e-12)
    assert calls == [0]


def _model_spec(model, n, h, lam, gamma_a, gamma_b, alpha, beta):
    alg = build_algebra(n)
    if model == "gamma0":
        return build_gamma0(LMGParams(n_atoms=n, h=h, lam=lam, Gamma_a=gamma_a, Gamma_b=gamma_b), alg)
    if model == "isotropic":
        params = LMGParams(n_atoms=n, h=h, lam=lam, gamma_anisotropy=1, Gamma_a=gamma_a,
                           Gamma_b=gamma_b)
        return build_isotropic(params, alg)
    params = LMGParams(n_atoms=n, h=h, lam=lam, gamma_anisotropy=-1, Gamma_a=gamma_a,
                       Gamma_b=gamma_a)
    return build_conventional(params, alg, alpha, beta)


def dense_spec(spec):
    """H and the (rate, A_k) pairs of ``spec`` as dense arrays, for the elementwise oracle."""
    return spec.hamiltonian.toarray(), [(rate, op.toarray()) for rate, op in spec.dissipators]


def truncated_spec(spec, lo, hi):
    """``spec`` with H and every collapse operator cut down to the levels [lo, hi)."""
    return LindbladSpec(spec.hamiltonian[lo:hi, lo:hi],
                        tuple((rate, op[lo:hi, lo:hi]) for rate, op in spec.dissipators))


@pytest.mark.parametrize("model", ["gamma0", "isotropic", "conventional"])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_liouvillian_matrix_matches_elementwise_oracle(model, n):
    spec = _model_spec(model, n, 0.7, 1.3, 0.05, 0.2, 0.6, 0.8)
    oracle = elementwise_superoperator(*dense_spec(spec))
    assert np.max(np.abs(liouvillian_matrix(spec).toarray() - oracle)) <= 1e-13


@pytest.mark.parametrize("model", ["gamma0", "isotropic", "conventional"])
@pytest.mark.parametrize("window", [(0, 6), (7, 14), (15, 21), (0, 21)])
def test_windowed_liouvillian_matches_the_truncated_spec(model, window):
    # Windows at the top, in the middle and at the bottom of the ladder, and the whole ladder.
    spec = _model_spec(model, 20, 0.7, 1.3, 0.05, 0.2, 0.6, 0.8)
    lo, hi = window
    lv = liouvillian_matrix(spec, window)
    assert lv.shape == ((hi - lo) ** 2,) * 2
    assert abs(lv - liouvillian_matrix(truncated_spec(spec, lo, hi))).max() <= 1e-13
    if hi - lo <= 7:
        oracle = elementwise_superoperator(*dense_spec(truncated_spec(spec, lo, hi)))
        assert np.max(np.abs(lv.toarray() - oracle)) <= 1e-13
    # The steady window takes L_T from the widened assembly by its edge
    # correction: its block and complement block are the truncated L's, on the
    # set that the truncated L reaches from the maximally mixed state.
    m = hi - lo
    win = steady_window(spec, lo, hi)
    idx = fixed_point_reachable(lv, maximally_mixed(m).reshape(-1))
    assert np.array_equal((win.i - win.inner.start) * m + win.j - win.inner.start, idx)
    comp = np.setdiff1d(np.arange(m * m), idx)
    assert len(comp) and abs(win.system[0] - lv[idx][:, idx]).max() <= 1e-13
    assert abs(win.complement() - lv[comp][:, comp]).max() <= 1e-13


def colamd_factorize(mat):
    """SuperLU with its default COLAMD ordering and partial pivoting."""
    return spla.splu(mat.tocsc(), permc_spec="COLAMD")


@settings(max_examples=40)
@given(
    model=st.sampled_from(["gamma0", "isotropic", "conventional"]),
    n=st.integers(1, 60),
    h=st.floats(-2.0, 2.0),
    lam=st.floats(0.0, 3.0),
    gamma_a=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    gamma_b=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    alpha=st.floats(0.2, 1.0),
    beta=st.floats(0.2, 1.0),
)
def test_symmetric_mode_solve_agrees_with_colamd(model, n, h, lam, gamma_a, gamma_b, alpha, beta):
    tol = 1e-10
    spec = _model_spec(model, n, h, lam, gamma_a, gamma_b, alpha, beta)
    sol = steady_solution(spec, tol=tol)
    assert sol.residual <= tol
    assert np.max(np.abs(liouvillian_apply(spec, sol.rho))) <= tol
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_factorize", colamd_factorize)
        ref = steady_solution(spec, tol=tol, check_unique=False)
    assert ref.window == sol.window
    assert np.max(np.abs(sol.rho - ref.rho)) <= 1e-9


@pytest.mark.parametrize("n,h,lam,rate,alpha,beta", [
    (107, 1.38356, 1.76365, 2.12818e-6, 0.446968, 0.453901),
    (25, -1.34777, 2.99641, 1.63098e-6, 0.315212, 0.395452),
])
def test_weak_rate_conventional_points_pass_the_uniqueness_probe(n, h, lam, rate, alpha, beta):
    # A diagonal pivot threshold of 0 reported "two fixed points" at both.
    spec = _model_spec("conventional", n, h, lam, rate, rate, alpha, beta)
    sol = steady_solution(spec, tol=1e-10, check_unique=True)
    assert sol.residual <= 1e-10
    validate_density_matrix(sol.rho)


def test_steady_solution_records_its_windows_and_fill():
    spec = gamma0_spec(100, h=1.0, lam=1.46, gamma_a=0.01, gamma_b=0.2)
    nnz = []
    factorize = lindblad._factorize

    def recording(mat):
        lu = factorize(mat)
        nnz.append(lu.nnz)
        return lu

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_factorize", recording)
        sol = steady_solution(spec, check_unique=False)
    assert sol.window == (0, 101) and sol.windows == (40, 60, 101)
    # One factorization per failed window, and the accepted one last.
    assert len(nnz) == 3 and sol.lu_nnz == nnz[-1] > 101**2 // 2


def test_steady_solution_assembles_only_each_widened_window(monkeypatch):
    # Each steady try assembles its levels widened by w = 2 levels, once: the
    # truncated generator of the solve and the complement block of the
    # uniqueness probe come from that assembly too.
    calls = []
    assemble = lindblad.liouvillian_matrix
    monkeypatch.setattr(lindblad, "liouvillian_matrix",
                        lambda spec, window=None: calls.append(window) or assemble(spec, window))
    spec = gamma0_spec(100, h=1.0, lam=1.46, gamma_a=0.01, gamma_b=0.2)
    sol = steady_solution(spec, check_unique=True)
    assert sol.windows == (40, 60, 101)
    assert calls == [(0, 42), (0, 62), (0, 101)]


def test_steady_window_below_two_thirds_of_the_ladder_stays_a_window():
    # The N=150 shape of the steady-sweep benchmark: 90 < 2 * 151 / 3 levels,
    # so the third window is not widened to the whole ladder, and it passes.
    spec = gamma0_spec(150, h=1.0, lam=1.49, gamma_a=0.01, gamma_b=0.2)
    sol = steady_solution(spec, check_unique=False)
    assert sol.window == (0, 90) and sol.windows == (40, 60, 90)
    assert sol.residual <= 1e-10


@settings(max_examples=40)
@given(
    model=st.sampled_from(["gamma0", "isotropic", "conventional"]),
    n=st.integers(1, 40),
    h=st.floats(0.1, 2.0),
    lam=st.floats(0.1, 2.0),
    gamma_a=st.floats(0.001, 0.5),
    gamma_b=st.floats(0.001, 0.5),
    alpha=st.floats(0.2, 1.0),
    beta=st.floats(0.2, 1.0),
)
def test_block_steady_state_matches_full_space_solve(model, n, h, lam, gamma_a, gamma_b,
                                                     alpha, beta):
    spec = _model_spec(model, n, h, lam, gamma_a, gamma_b, alpha, beta)
    rho = steady_solution(spec, tol=1e-10).rho
    assert np.max(np.abs(rho - dense_replaced_row_steady_state(spec))) <= 1e-12


@pytest.mark.parametrize("model,size", [("gamma0", 6**2 + 5**2), ("conventional", 6**2 + 5**2),
                                        ("isotropic", 11)])
def test_steady_state_block_sizes(model, size):
    # The sector of the diagonal, which is the set reachable from the maximally
    # mixed state: the even-parity half of rho for gamma = 0 and -1, the
    # populations for gamma = +1.
    spec = _model_spec(model, 10, 1.0, 1.3, 0.05, 0.2, 0.6, 0.8)
    win = steady_window(spec, 0, 11)
    assert len(win.idx) == size and np.all((win.i - win.j) % 2 == 0)
    reach = fixed_point_reachable(liouvillian_matrix(spec), maximally_mixed(11).reshape(-1))
    assert np.array_equal(win.idx, reach)


def test_steady_state_flags_odd_sector_degeneracy():
    # D[Jx] at N=1 mixes the populations (unique kernel I/2 in the even block)
    # and leaves sigma_x stationary in the odd block: a second steady state
    # that only the complement factorization sees.
    alg = build_algebra(1)
    spec = LindbladSpec(hamiltonian=np.zeros((2, 2)), dissipators=((0.5, alg.jx),))
    sigma_x = 2.0 * alg.jx.toarray()
    assert np.max(np.abs(liouvillian_apply(spec, sigma_x))) == 0.0
    rho = steady_solution(spec, tol=1e-10, check_unique=False).rho
    assert np.max(np.abs(rho - maximally_mixed(2))) <= 1e-15
    with pytest.raises(NonUniqueSteadyStateError, match="complement"):
        steady_solution(spec, tol=1e-10)


def test_steady_state_validates():
    spec = gamma0_spec(30, h=1.0, lam=2.0, gamma_a=0.01, gamma_b=0.2)
    rho = steady_solution(spec, tol=1e-11).rho
    validate_density_matrix(rho)


# -- the ladder window of steady_solution ----------------------------------------


def full_ladder_steady_state(spec):
    """The steady state solved on every level: the first window already spans the ladder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_FIRST_WINDOW", spec.dim)
        sol = steady_solution(spec, tol=1e-10, check_unique=False)
    assert sol.window == (0, spec.dim)
    return sol.rho


def _moments_and_cr(rho, alg):
    """<Jx^2>, <Jy^2>, <Jz^2> over (N/2)^2, as the CLI writes them, and C_R."""
    j2 = (alg.n_spins / 2.0) ** 2
    ops = (alg.jx @ alg.jx, alg.jy @ alg.jy, alg.jz @ alg.jz)
    return np.array([expectation(op, rho).real / j2 for op in ops]
                    + [rescaled_concurrence(spin_moments(rho, alg), alg.n_spins)])


@settings(max_examples=10)
@given(
    model=st.sampled_from(["gamma0", "isotropic", "conventional"]),
    n=st.integers(41, 200),
    h=st.floats(0.1, 2.0),
    lam=st.floats(0.1, 2.0),
    gamma_a=st.floats(0.001, 0.5),
    gamma_b=st.floats(0.001, 0.5),
    alpha=st.floats(0.2, 1.0),
    beta=st.floats(0.2, 1.0),
)
def test_window_steady_state_matches_full_ladder_solve(model, n, h, lam, gamma_a, gamma_b,
                                                       alpha, beta):
    tol = 1e-10
    spec = _model_spec(model, n, h, lam, gamma_a, gamma_b, alpha, beta)
    sol = steady_solution(spec, tol=tol)
    lo, hi = sol.window
    assert np.all(sol.rho[:lo] == 0) and np.all(sol.rho[hi:] == 0)
    assert np.all(sol.rho[:, :lo] == 0) and np.all(sol.rho[:, hi:] == 0)
    assert np.max(np.abs(liouvillian_apply(spec, sol.rho))) <= tol
    alg = build_algebra(n)
    full = _moments_and_cr(full_ladder_steady_state(spec), alg)
    assert np.max(np.abs(_moments_and_cr(sol.rho, alg) - full)) <= 1e-12


def test_window_triggers_on_the_gamma0_model():
    # The collective pump D[J+] holds the state near the top of the ladder.
    spec = gamma0_spec(150, h=1.0, lam=0.6, gamma_a=0.01, gamma_b=0.2)
    sol = steady_solution(spec)
    assert sol.window == (0, 40)
    assert np.max(np.abs(sol.rho - full_ladder_steady_state(spec))) <= 1e-12


@pytest.mark.parametrize("n,lam", [(50, 1.49), (100, 1.2), (150, 1.01)])
def test_window_residual_is_the_full_space_residual(n, lam):
    spec = gamma0_spec(n, h=1.0, lam=lam, gamma_a=0.01, gamma_b=0.2)
    lv = liouvillian_matrix(spec)
    sol = steady_solution(spec)
    residual = lambda rho: np.max(np.abs(lv @ rho.reshape(-1)))
    assert sol.residual == pytest.approx(residual(sol.rho), rel=1e-6, abs=1e-18)
    # Exact also where the window is too small and the residual sits at its edge.
    win = steady_window(spec, 0, 40)
    assert win.span == slice(0, 42)
    rho = win.state(lindblad._solve_block(*win.system, 0)[0])
    assert not rho[40:].any() and not rho[:, 40:].any()
    res, grow = win.residual(rho, 1e-10)
    assert res == pytest.approx(residual(rho), rel=1e-12)
    assert grow == (False, res > 1e-10)


def test_window_grows_down_to_a_state_at_the_bottom():
    # A J- pump holds the state at the bottom of the ladder, far from the
    # first window at the top.
    n = 80
    alg = build_algebra(n)
    h = -2.0 * alg.jz - (1.6 / n) * (alg.jx @ alg.jx)
    spec = LindbladSpec(hamiltonian=h, dissipators=((0.2 / n, alg.jminus),))
    sol = steady_solution(spec)
    assert sol.window == (0, n + 1)
    assert sol.rho[-1, -1].real > 0.5
    assert np.max(np.abs(sol.rho - full_ladder_steady_state(spec))) <= 1e-12


# -- evolve -----------------------------------------------------------------------


def test_evolve_eigenstate_constant():
    alg = build_algebra(4)
    spec = LindbladSpec(hamiltonian=alg.jz)
    rho0 = all_up_state(4)
    traj = evolve(spec, rho0, np.linspace(0, 5, 11))
    for state in traj.states:
        assert np.max(np.abs(state - rho0)) <= 1e-9


def test_evolve_pump_up_matches_dense_propagator():
    # Gamma_b-only pump from all-down: <Jz> climbs monotonically toward +j,
    # cross-checked against expm of the dense superoperator.
    spec = gamma0_spec(4, h=0.0, lam=0.0, gamma_a=0.0, gamma_b=0.5)
    alg = build_algebra(4)
    rho0 = dicke_state(4, -2.0)
    times = np.linspace(0.0, 8.0, 17)
    traj = evolve(spec, rho0, times, observables={"jz": alg.jz})
    jz = traj.expectations["jz"]
    assert np.all(np.diff(jz) > -1e-9)
    assert jz[-1] > 1.9

    lv = elementwise_superoperator(
        spec.hamiltonian.toarray(), [(r, op.toarray()) for r, op in spec.dissipators]
    )
    for idx in (3, 7, 16):
        rho_oracle = (expm(lv * times[idx]) @ rho0.reshape(-1)).reshape(5, 5)
        assert np.max(np.abs(traj.states[idx] - rho_oracle)) <= 1e-8


def test_evolve_trajectory_invariants():
    spec = gamma0_spec(12, h=1.0, lam=1.5, gamma_a=0.01, gamma_b=0.2)
    traj = evolve(spec, all_up_state(12), np.linspace(0, 8, 17))
    for state in traj.states:
        assert abs(np.trace(state) - 1.0) <= 1e-8
        assert np.max(np.abs(state - state.conj().T)) <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() >= -1e-6


def test_evolve_matches_dop853_oracle_n50():
    # Independent high-order integration of the full generator, t in [0, 10].
    spec = gamma0_spec(50, h=1.0, lam=1.9, gamma_a=0.01, gamma_b=0.2)
    rho0 = all_up_state(50)
    times = np.linspace(0.0, 10.0, 11)
    lv = liouvillian_matrix(spec)
    sol = solve_ivp(lambda _, v: lv @ v, (0.0, 10.0), rho0.reshape(-1), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    traj = evolve(spec, rho0, times)
    assert np.max(np.abs(traj.states.reshape(len(times), -1) - sol.y.T)) <= 1e-9


def test_evolve_reachable_block_sizes():
    # gamma = 0 from all-up keeps the even-parity block (i - j even); gamma = +1
    # from a Dicke state keeps the N + 1 populations.
    n, d = 10, 11
    win = whole_ladder_window(gamma0_spec(n, 1.0, 1.3, 0.01, 0.2), all_up_state(n))
    assert len(win.idx) == 6**2 + 5**2 and np.all((win.i - win.j) % 2 == 0)
    assert win.block.shape == (len(win.idx), len(win.idx))
    params = LMGParams(n_atoms=n, h=1.0, lam=1.3, gamma_anisotropy=1, Gamma_a=0.01, Gamma_b=0.2)
    spec = build_isotropic(params, build_algebra(n))
    win = whole_ladder_window(spec, dicke_state(n, 1.0))
    assert np.array_equal(win.full, np.arange(d) * (d + 1))


def fixed_point_reachable(lv, vec):
    """Oracle: grow the reachable set by boolean sparse matvecs until it stops growing."""
    d = math.isqrt(len(vec))
    mirror = np.arange(d * d).reshape(d, d).T.reshape(-1)
    pattern = lv.astype(bool)
    reach = vec != 0
    while True:
        grown = reach | (pattern @ reach)
        grown |= grown[mirror]
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


@pytest.mark.parametrize("model", ["gamma0", "conventional", "isotropic"])
def test_reachable_block_matches_fixed_point_oracle(model):
    # Where every move of L also runs back, the sector of the weak symmetry
    # that holds a start is exactly the set the start reaches.
    n, d = 9, 10
    spec = _model_spec(model, n, 1.0, 1.3, 0.05, 0.2, 0.6, 0.8)
    lv = liouvillian_matrix(spec)
    odd = np.zeros((d, d), dtype=complex)
    odd[2, 3] = odd[3, 2] = 0.5  # one odd coherence
    psi = _coherent_state(n, 0.7, 0.3)
    starts = [all_up_state(n), maximally_mixed(d), dicke_state(n, 0.5), odd, np.outer(psi, psi.conj())]
    for rho0 in starts:
        win = whole_ladder_window(spec, rho0)
        assert np.array_equal(win.idx, fixed_point_reachable(lv, rho0.reshape(-1)))


def sector_mask(size, coords):
    """A boolean mask over ``size`` vec coordinates, True at ``coords``."""
    mask = np.zeros(size, dtype=bool)
    mask[coords] = True
    return mask


@pytest.mark.parametrize("model,lam", [("gamma0", 0.0), ("isotropic", 1.3)])
def test_one_way_moves_keep_the_sector_closed_and_exact(model, lam):
    # With lambda = Gamma_a = 0 for gamma = 0, and Gamma_a = 0 for gamma = +1,
    # H is diagonal and D[J+] only moves up the ladder: the sector of a Dicke
    # state, the populations, holds levels the state never reaches.  They
    # stay exactly 0, so the propagation on the sector is still exact.
    n = 30
    spec = _model_spec(model, n, 1.0, lam, 0.0, 0.2, 0.6, 0.8)
    lv = liouvillian_matrix(spec)
    times = np.linspace(0.0, 5.0, 6)
    for m in (12, 15):
        rho0 = dicke_state(n, m)
        win = whole_ladder_window(spec, rho0)
        assert np.array_equal(win.full, np.arange(n + 1) * (n + 2))
        reach = fixed_point_reachable(lv, rho0.reshape(-1))
        assert len(reach) == n / 2 - m + 1 and np.all(np.isin(reach, win.idx))
        inside = sector_mask(lv.shape[0], win.idx)
        assert lv[~inside][:, inside].nnz == 0
        traj = evolve(spec, rho0, times)
        oracle = expm_multiply(lv, rho0.reshape(-1), start=0.0, stop=5.0, num=6, endpoint=True)
        assert np.max(np.abs(traj.states.reshape(len(times), -1) - oracle)) <= 1e-12


def random_banded_spec(seed, d, rates):
    """H and one collapse operator per rate, each with random entries on two random offsets."""
    rng = np.random.default_rng(seed)

    def banded():
        offsets = rng.choice(np.arange(1 - d, d), size=2, replace=False)
        values = [rng.normal(size=d - abs(o)) + 1j * rng.normal(size=d - abs(o)) for o in offsets]
        return sp.diags(values, offsets, shape=(d, d), format="csr")

    h = banded()
    return LindbladSpec(h + h.conj().T, tuple((rate, banded()) for rate in rates))


rate_or_zero = st.sampled_from([0.0, 0.05, 0.2]) | st.floats(0.0, 0.5)


@settings(max_examples=60)
@given(
    model=st.sampled_from(["gamma0", "isotropic", "conventional", "random"]),
    n=st.integers(1, 14),
    lam=st.sampled_from([0.0, 1.3]) | st.floats(0.0, 2.0),
    gamma_a=rate_or_zero,
    gamma_b=rate_or_zero,
    edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3),
    draw=st.integers(0, 2**32 - 1),
)
def test_window_block_holds_the_reachable_set_and_is_closed(model, n, lam, gamma_a, gamma_b,
                                                            edges, seed, draw):
    if model == "random":
        spec = random_banded_spec(draw, n + 1, (gamma_a, gamma_b))
    else:
        spec = _model_spec(model, n, 1.0, lam, gamma_a, gamma_b, 0.6, 0.8)
    d = spec.dim
    lo = min(int(edges[0] * d), d - 1)
    hi = lo + 1 + int(edges[1] * (d - lo - 1))
    m = hi - lo
    i, j = (lo + (np.array(seed) * m).astype(int).clip(0, m - 1)).T
    win = lindblad._Window(spec, lo, hi, i - j)
    levels, block = np.arange(lo, hi), (win.i + win.span.start, win.j + win.span.start)
    for first, last in ((lo, hi), (0, d)):  # the truncated L, and the exact L
        lv, k = liouvillian_matrix(spec, (first, last)), last - first
        mask = lambda p, q: sector_mask(k * k, (p - first) * k + q - first)
        inside, window = mask(*block), mask(levels[:, None], levels)
        # Nothing in the window leaves the block ...
        assert lv[window & ~inside][:, inside].nnz == 0
        # ... and the block holds every coordinate of the window that the seed reaches.
        reach = fixed_point_reachable(lv, mask(i, j))
        assert np.all(inside[reach] | ~window[reach])
    # The block is mirror-symmetric, so it carries Hermitian states.
    assert np.array_equal(np.sort(win.j * win.wide + win.i), win.idx)


def test_evolve_without_states_stores_only_the_reachable_block():
    # N=100 from all-up: the even-parity block is 5101 of 10201 coordinates,
    # so dropping the states must about halve the peak memory while the
    # observables stay the same.
    n = 100
    alg = build_algebra(n)
    spec = gamma0_spec(n, h=1.0, lam=1.3, gamma_a=0.01, gamma_b=0.2)
    ops = {"jz": alg.jz, "jx2": alg.jx @ alg.jx, "jp2": alg.jplus @ alg.jplus}
    times = np.linspace(0.0, 2.0, 101)
    peaks, results = [], []
    for keep in (True, False):
        tracemalloc.start()
        results.append(evolve(spec, all_up_state(n), times, observables=ops, keep_states=keep))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    kept, dropped = results
    assert dropped.states is None and kept.states.shape == (101, n + 1, n + 1)
    assert peaks[1] <= 0.6 * peaks[0]
    for name in ops:
        assert np.max(np.abs(dropped.expectations[name] - kept.expectations[name])) <= 1e-15


def test_evolve_without_states_reads_observables_outside_the_block():
    # From all-up the block is the even-parity half: Jx reads only odd
    # coordinates, which stay zero, while Jx^2 and Jz read even ones.
    n = 8
    alg = build_algebra(n)
    spec = gamma0_spec(n, h=1.0, lam=1.3, gamma_a=0.05, gamma_b=0.2)
    ops = {"jx": alg.jx, "jx2": alg.jx @ alg.jx, "jz": alg.jz}
    times = np.linspace(0.0, 3.0, 7)
    kept = evolve(spec, all_up_state(n), times, observables=ops)
    dropped = evolve(spec, all_up_state(n), times, observables=ops, keep_states=False)
    assert np.all(dropped.expectations["jx"] == 0.0)
    for name, op in ops.items():
        expected = [expectation(op, rho).real for rho in kept.states]
        assert np.max(np.abs(dropped.expectations[name] - expected)) <= 1e-13
    bare = evolve(spec, all_up_state(n), times, keep_states=False)
    assert bare.states is None and bare.expectations == {}


def test_evolve_odd_coherences_match_full_space_propagator():
    # The spin coherent state at theta = pi/2 has coherences of both parities,
    # so nothing may be dropped.
    n, d = 8, 9
    spec = gamma0_spec(n, h=1.0, lam=1.3, gamma_a=0.01, gamma_b=0.2)
    psi = _coherent_state(n, np.pi / 2, 0.0)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(0.0, 4.0, 9)
    traj = evolve(spec, rho0, times)
    oracle = expm_multiply(liouvillian_matrix(spec), rho0.reshape(-1), start=0.0, stop=4.0,
                           num=9, endpoint=True)
    assert np.max(np.abs(traj.states.reshape(len(times), -1) - oracle)) <= 1e-12
    assert np.max(np.abs(traj.states[-1][0, 1])) > 1e-3


def full_space_expm_states(spec, rho0, times):
    """Oracle: dense expm of the full Liouvillian applied to rho0 at each time."""
    lv = liouvillian_matrix(spec).toarray()
    return np.array([(expm(lv * t) @ rho0.reshape(-1)).reshape(rho0.shape) for t in times])


def test_evolve_non_uniform_grid_matches_dense_expm():
    # Steps from 1e-3 to 5.5 each choose their own Taylor degree and substep
    # count; the coherent start keeps the whole space.
    n = 16
    spec = gamma0_spec(n, h=1.0, lam=1.4, gamma_a=0.05, gamma_b=0.2)
    psi = _coherent_state(n, np.pi / 3, 0.4)
    rho0 = np.outer(psi, psi.conj())
    times = np.array([0.0, 1e-3, 0.05, 0.3, 0.31, 1.7, 4.0, 9.5])
    traj = evolve(spec, rho0, times)
    assert traj.block_size == (n + 1) ** 2
    assert np.max(np.abs(traj.states - full_space_expm_states(spec, rho0, times))) <= 1e-12


def test_evolve_single_large_step_matches_dense_expm():
    # dt ||A||_1 far above 63.4 (condition 3.13 of Al-Mohy & Higham), the
    # region where the propagator takes more substeps than expm_multiply.
    n, dt = 20, 20.0
    spec = gamma0_spec(n, h=1.0, lam=1.4, gamma_a=0.05, gamma_b=0.2)
    rho0 = all_up_state(n)
    assert dt * whole_ladder_window(spec, rho0).taylor.norm > 10 * 63.4
    traj = evolve(spec, rho0, [dt])
    assert np.max(np.abs(traj.states - full_space_expm_states(spec, rho0, [dt]))) <= 1e-12


def test_evolve_complex_generator_entries_match_dense_expm():
    # Jy is imaginary in the Dicke basis and Jx + iJz is not Hermitian, so the
    # Liouvillian has entries with both real and imaginary parts; the coherent
    # start keeps the whole space.
    n = 6
    alg = build_algebra(n)
    spec = LindbladSpec(
        hamiltonian=0.7 * alg.jz + 0.5 * alg.jy + 0.3 * (alg.jx @ alg.jx),
        dissipators=((0.15, alg.jx + 1j * alg.jz), (0.05, alg.jminus)),
    )
    lv = liouvillian_matrix(spec)
    assert np.any((lv.data.real != 0) & (lv.data.imag != 0))
    psi = _coherent_state(n, np.pi / 3, 0.4)
    rho0 = np.outer(psi, psi.conj())
    times = np.array([0.0, 0.05, 0.3, 1.7, 4.0])
    traj = evolve(spec, rho0, times)
    assert traj.block_size == (n + 1) ** 2
    assert np.max(np.abs(traj.states - full_space_expm_states(spec, rho0, times))) <= 1e-12


@settings(max_examples=30)
@given(
    n=st.integers(2, 12),
    h=st.floats(0.0, 2.0),
    lam=st.floats(0.0, 2.0),
    gamma_a=st.floats(0.0, 0.5),
    gamma_b=st.floats(0.001, 0.5),
    t_end=st.floats(0.1, 30.0),
)
def test_evolve_keeps_trace_hermiticity_and_cr_bound(n, h, lam, gamma_a, gamma_b, t_end):
    spec = gamma0_spec(n, h, lam, gamma_a, gamma_b)
    traj = evolve(spec, all_up_state(n), np.linspace(0.0, t_end, 9),
                  observables=moment_operators(build_algebra(n)))
    states = traj.states
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-12
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= 1e-12
    assert np.all(trajectory_moments(traj.expectations, n)["c_r"] <= 1.0)


def test_evolve_isotropic_from_dicke_state_stays_diagonal():
    n = 8
    params = LMGParams(n_atoms=n, h=1.0, lam=1.3, gamma_anisotropy=1, Gamma_a=0.05, Gamma_b=0.2)
    spec = build_isotropic(params, build_algebra(n))
    traj = evolve(spec, dicke_state(n, 1.0), np.linspace(0.0, 5.0, 6))
    for state in traj.states:
        assert np.count_nonzero(state - np.diag(np.diag(state))) == 0
        assert abs(np.trace(state) - 1.0) <= 1e-12


def test_evolve_one_sided_coherence_keeps_states_hermitian():
    # Within the Hermiticity check rho0 may hold a coherence on one side only.
    # For gamma = +1 the sector i - j = -1 never reaches i - j = +1, so only
    # the mirror sector in the block lets the states come out exactly
    # Hermitian.
    n = 6
    params = LMGParams(n_atoms=n, h=1.0, lam=1.3, gamma_anisotropy=1, Gamma_a=0.05, Gamma_b=0.2)
    spec = build_isotropic(params, build_algebra(n))
    rho0 = dicke_state(n, 1.0)
    rho0[2, 3] = 1e-13
    traj = evolve(spec, rho0, np.linspace(0.0, 3.0, 4))
    assert traj.block_size == 3 * n + 1
    assert all(np.array_equal(state, state.conj().T) for state in traj.states)
    assert traj.states[-1, 2, 3] != 0


@pytest.mark.parametrize("n,lam,k,times,window", [
    (80, 0.2, 0, np.linspace(0.0, 10.0, 11), (0, 32)),  # stays on a window from the top
    (80, 2.0, 0, np.linspace(0.0, 10.0, 11), (0, 81)),  # grows to the whole ladder
    (200, 0.1, 100, np.linspace(0.0, 1.0, 5), (17, 142)),  # both edges move
])
def test_evolve_on_a_window_matches_expm_multiply(n, lam, k, times, window):
    spec = gamma0_spec(n, h=1.0, lam=lam, gamma_a=0.01, gamma_b=0.2)
    rho0 = dicke_state(n, n / 2 - k)
    traj = evolve(spec, rho0, times)
    assert traj.window == window
    oracle = expm_multiply(liouvillian_matrix(spec), rho0.reshape(-1), start=times[0],
                           stop=times[-1], num=len(times), endpoint=True)
    assert np.max(np.abs(traj.states.reshape(len(times), -1) - oracle)) <= 1e-12


def whole_ladder_window(spec, rho0):
    """The window of the whole ladder on the sectors of rho0's coordinates."""
    i, j = np.nonzero(rho0)
    return lindblad._Window(spec, 0, spec.dim, i - j)


def full_ladder_states(spec, rho0, times):
    """Oracle: the Taylor stepper on the real generator of rho0's block of the whole ladder."""
    d = spec.dim
    win = whole_ladder_window(spec, rho0)
    x, t_prev, states = win.to_real(rho0.reshape(-1)[win.full]), 0.0, []
    for t in times:
        if t > t_prev:
            x, t_prev = win.taylor.step(x, t - t_prev), t
        vec = np.zeros(d * d, dtype=complex)
        vec[win.full] = win.to_block @ x
        states.append(vec.reshape(d, d))
    return np.array(states)


@settings(max_examples=12)
@given(
    model=st.sampled_from(["gamma0", "isotropic", "conventional"]),
    n=st.integers(31, 120),
    start=st.floats(0.0, 1.0),
    h=st.floats(-1.0, 2.0),
    lam=st.floats(0.0, 2.0),
    gamma_a=st.floats(0.0, 0.5),
    gamma_b=st.floats(0.0, 0.5),
    t_end=st.floats(0.1, 10.0),
    points=st.integers(1, 21),
)
def test_evolve_on_a_window_matches_the_whole_ladder(model, n, start, h, lam, gamma_a, gamma_b,
                                                      t_end, points):
    spec = _model_spec(model, n, h, lam, gamma_a, gamma_b, 0.6, 0.8)
    rho0 = dicke_state(n, n / 2 - round(start * n))
    times = np.linspace(t_end / points, t_end, points)
    traj = evolve(spec, rho0, times)
    assert np.max(np.abs(traj.states - full_ladder_states(spec, rho0, times))) <= 1e-12


@pytest.mark.parametrize("lam,window", [(0.2, (0, 32)), (2.0, (0, 81))],
                         ids=["windowed", "whole-ladder"])
def test_evolve_assembles_only_each_widened_window(monkeypatch, lam, window):
    # From all-up at N=80 the window starts on the top 21 levels and grows at
    # its upper edge: to 32 levels at lambda=0.2, to the whole ladder at 2.
    # Each window tried assembles its levels widened by w levels, once.
    calls = []
    assemble = lindblad.liouvillian_matrix
    monkeypatch.setattr(lindblad, "liouvillian_matrix",
                        lambda spec, window=None: calls.append(window) or assemble(spec, window))
    spec = gamma0_spec(80, h=1.0, lam=lam, gamma_a=0.01, gamma_b=0.2)
    width = lindblad._edge_width(spec)
    traj = evolve(spec, all_up_state(80), np.linspace(0.0, 10.0, 11))
    assert traj.window == window
    tried = [(0, 21)]
    while tried[-1] != window:
        tried.append(lindblad._grown(*tried[-1], (False, True), 81))
    assert calls == [(lo, min(hi + width, 81)) for lo, hi in tried]
    assert all(hi - lo <= window[1] - window[0] + 2 * width for lo, hi in calls)


def test_evolve_grows_its_window_without_the_whole_ladder_jump():
    # Near lambda_c the state from all-up needs 72 of the 101 levels at N=100.
    # evolve grows 1.5x per failing edge and keeps 72 levels; the steady
    # solver's rule would widen a window of >= 2d/3 levels to all 101.
    spec = gamma0_spec(100, h=1.0, lam=1.05, gamma_a=0.01, gamma_b=0.2)
    rho0, times = all_up_state(100), np.linspace(0.0, 10.0, 101)
    traj = evolve(spec, rho0, times)
    assert traj.window == (0, 72) and traj.windows == (21, 32, 48, 72)
    assert traj.block_size == 2 * 36**2
    assert np.max(np.abs(traj.states - full_ladder_states(spec, rho0, times))) <= 1e-12


@pytest.mark.parametrize("n,lam,points,window", [
    (80, 0.3, 5, (0, 32)),  # the early excursion to the edge has decayed by t=2.5
    (80, 0.3, 21, (0, 48)),  # the first output, t=0.5, catches it
    (100, 1.05, 2, (0, 72)),  # one step of length 10
])
def test_evolve_on_a_coarse_output_grid_matches_the_whole_ladder(n, lam, points, window):
    # The window edges are tested at output times only, so the window depends
    # on the output grid; the states stay at rounding level on either grid.
    spec = gamma0_spec(n, h=1.0, lam=lam, gamma_a=0.01, gamma_b=0.2)
    rho0, times = all_up_state(n), np.linspace(0.0, 10.0, points)
    traj = evolve(spec, rho0, times)
    assert traj.window == window
    assert np.max(np.abs(traj.states - full_ladder_states(spec, rho0, times))) <= 1e-12


def reference_taylor_step(taylor, x, dt):
    """Oracle: the Taylor loop with the exact max|f| at every product, and its product count."""
    scaled = dt * taylor.norm
    m, s = min(((k, int(np.ceil(scaled / theta))) for k, theta in lindblad._THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    eta, f, matvecs = np.exp(dt * taylor.mu / s), np.array(x, dtype=np.float64), 0
    for _ in range(s):
        b = f
        c1 = np.abs(b).max()
        for j in range(m):
            b = taylor.a @ b
            b *= dt / (s * (j + 1))
            matvecs += 1
            c2 = np.abs(b).max()
            f += b
            if c1 + c2 <= 2.0**-53 * np.abs(f).max():
                break
            c1 = c2
        f *= eta
    return f, matvecs


def test_taylor_step_matches_the_exact_stop_test_bit_for_bit():
    n = 30
    spec = gamma0_spec(n, h=1.0, lam=1.4, gamma_a=0.05, gamma_b=0.2)
    rho0 = all_up_state(n)
    win = whole_ladder_window(spec, rho0)
    taylor = win.taylor
    x = win.to_real(rho0.reshape(-1)[win.full])
    for dt in (1e-3, 0.1, 0.1, 2.5, 40.0):
        expected, matvecs = reference_taylor_step(taylor, x, dt)
        before = taylor.matvecs
        x = taylor.step(x, dt)
        assert np.array_equal(x, expected) and taylor.matvecs - before == matvecs


def test_evolve_rejects_a_zero_initial_state():
    spec = gamma0_spec(4, h=1.0, lam=0.5, gamma_a=0.01, gamma_b=0.2)
    with pytest.raises(ValueError, match="nonzero"):
        evolve(spec, np.zeros((5, 5)), [0.0, 1.0])


def test_evolve_rejects_bad_times():
    spec = gamma0_spec(2, h=1.0, lam=0.5, gamma_a=0.0, gamma_b=0.2)
    with pytest.raises(ValueError):
        evolve(spec, all_up_state(2), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        evolve(spec, all_up_state(2), [-1.0, 1.0])
    skew = all_up_state(2)
    skew[0, 1] = 0.1j
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(spec, skew, [0.0, 1.0])


def test_trajectory_expectations():
    alg = build_algebra(3)
    spec = gamma0_spec(3, h=1.0, lam=0.4, gamma_a=0.0, gamma_b=0.3)
    traj = evolve(
        spec, all_up_state(3), np.linspace(0, 1, 5),
        observables={"jz": alg.jz, "jx2": alg.jx @ alg.jx},
    )
    assert list(traj.expectations) == ["jz", "jx2"]
    assert all(len(v) == 5 for v in traj.expectations.values())
    assert traj.times[0] == 0.0
    assert traj.expectations["jz"][0] == pytest.approx(1.5, abs=1e-12)


def test_spec_validation():
    alg = build_algebra(2)
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladSpec(hamiltonian=alg.jplus)
    with pytest.raises(ValueError, match="rate"):
        LindbladSpec(hamiltonian=alg.jz, dissipators=((-0.1, alg.jminus),))
    with pytest.raises(ValueError, match="dimension"):
        LindbladSpec(hamiltonian=alg.jz, dissipators=((0.1, build_algebra(3).jminus),))
    with pytest.raises(ValueError, match="square"):
        LindbladSpec(hamiltonian=np.zeros((3, 2)))
    # Hermitian to 1e-10 per entry: a 1e-13 skew is rounding and is accepted.
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladSpec(hamiltonian=np.array([[1.0, 1e-9], [0.0, 2.0]]))
    spec = LindbladSpec(hamiltonian=np.array([[1.0, 1e-13], [0.0, 2.0]]),
                        dissipators=((0.5, alg.jminus[:2, :2].toarray()),))
    for op in (spec.hamiltonian, spec.dissipators[0][1]):
        assert isinstance(op, sp.csr_matrix) and op.dtype == np.complex128

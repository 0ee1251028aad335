"""Entanglement witnesses, rescaled concurrence, HP analogues, Q-function."""

import numpy as np
import pytest

from dlmg.hp import MomentState, hp_coefficients, moment_steady_state
from dlmg.lindblad import steady_state
from dlmg.models import LMGParams, build_gamma0
from dlmg.observables import (
    _coherent_state,
    c_phi,
    entanglement_curve,
    hp_c_phi,
    hp_entanglement,
    qfunction_norm,
    rescaled_concurrence,
    spin_qfunction,
)
from dlmg.operators import all_up_state, build_algebra
from dlmg.semiclassical import (
    BROKEN_PLUS,
    NORMAL,
    fixed_points,
    lambda_critical,
)

S2 = 1.0 / np.sqrt(2.0)
# Triplet-sector embedding into the two-qubit product basis (uu, ud, du, dd).
EMBED = np.array([[1, 0, 0], [0, S2, 0], [0, S2, 0], [0, 0, 1]], dtype=complex)
SYSY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters_concurrence(rho4):
    """Spin-flip eigenvalue oracle for two-qubit concurrence.

    Eigenvalues of rho rho~ below machine-noise scale are floored to zero
    before the square root (the symmetric embedding leaves the singlet
    unpopulated, so one eigenvalue is exactly zero).
    """
    rho_tilde = SYSY @ rho4.conj() @ SYSY
    evals = np.linalg.eigvals(rho4 @ rho_tilde).real
    evals[evals < np.max(np.abs(evals)) * 1e-13] = 0.0
    lam = np.sort(np.sqrt(np.clip(evals, 0.0, None)))
    return max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[0])


def xstate_concurrence(rho4):
    """Closed-form concurrence of an X state (independent cross-check)."""
    c1 = 2.0 * (abs(rho4[1, 2]) - np.sqrt(abs(rho4[0, 0] * rho4[3, 3])))
    c2 = 2.0 * (abs(rho4[0, 3]) - np.sqrt(abs(rho4[1, 1] * rho4[2, 2])))
    return max(0.0, c1, c2)


def random_parity_state(rng):
    """Random N=2 symmetric state in the parity-preserving block (the sector
    reachable by the model's Liouvillian from the all-up state)."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho[0, 1] = rho[1, 0] = rho[1, 2] = rho[2, 1] = 0.0
    return rho / np.trace(rho).real


def model_steady(n, h, lam, ga, gb, tol=1e-11):
    params = LMGParams(n_atoms=n, h=h, lam=lam, Gamma_a=ga, Gamma_b=gb)
    return steady_state(build_gamma0(params, build_algebra(n)), tol=tol)


# -- C_phi -------------------------------------------------------------------------


def test_c_phi_coherent_state_zero():
    for n in (1, 4, 33):
        alg = build_algebra(n)
        rho = all_up_state(n)
        for phi in np.linspace(0, np.pi, 7):
            assert c_phi(rho, alg, phi) == pytest.approx(0.0, abs=1e-12)


def test_c_phi_maximally_mixed_brute_force():
    # N=2 maximally mixed triplet state: brute-force 3x3 traces give
    # <J_phi^2> = 2/3 for every phi, so C_phi = 1 - 2*(2/3) = -1/3.
    alg = build_algebra(2)
    rho = np.eye(3, dtype=complex) / 3.0
    jphi = lambda phi: np.sin(phi) * alg.jx.dense() + np.cos(phi) * alg.jy.dense()
    for phi in (0.0, 0.4, 1.1, 2.9):
        second = np.trace(jphi(phi) @ jphi(phi) @ rho).real
        expected = 1.0 - 2.0 * second
        assert expected == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert c_phi(rho, alg, phi) == pytest.approx(expected, abs=1e-12)
        assert c_phi(rho, alg, phi) < 0.0  # unentangled


def test_c_phi_pi_periodic():
    rho = model_steady(8, 1.0, 1.2, 0.01, 0.2)
    alg = build_algebra(8)
    for phi in np.linspace(0, np.pi, 9):
        assert c_phi(rho, alg, phi) == pytest.approx(c_phi(rho, alg, phi + np.pi), abs=1e-12)


def test_c_phi_steady_state_max_near_zero_angle():
    #

    rho = model_steady(40, 1.0, 0.9, 0.01, 0.2)
    alg = build_algebra(40)
    res = entanglement_curve(rho, alg)
    assert res.c_r > 0.2
    phi_star = res.phi_star if res.phi_star < np.pi / 2 else res.phi_star - np.pi
    assert abs(phi_star) < 0.3


# -- rescaled concurrence -----------------------------------------------------------


def test_concurrence_product_state_zero():
    for n in (2, 6, 20):
        alg = build_algebra(n)
        assert rescaled_concurrence(all_up_state(n), alg) == 0.0


def test_concurrence_bell_state():
    alg = build_algebra(2)
    psi = np.zeros(3, dtype=complex)
    psi[0] = psi[2] = S2  # (|uu> + |dd>)/sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert rescaled_concurrence(rho, alg) == pytest.approx(1.0, abs=1e-12)
    rho4 = EMBED @ rho @ EMBED.conj().T
    assert wootters_concurrence(rho4) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_matches_two_qubit_oracles():
    # 50 random parity-block symmetric states; collective formula vs the
    # spin-flip eigenvalue oracle and the X-state closed form, at 1e-10.
    rng = np.random.default_rng(17)
    alg = build_algebra(2)
    for _ in range(50):
        rho = random_parity_state(rng)
        rho4 = EMBED @ rho @ EMBED.conj().T
        formula = rescaled_concurrence(rho, alg)
        assert formula == pytest.approx(wootters_concurrence(rho4), abs=1e-10)
        assert formula == pytest.approx(xstate_concurrence(rho4), abs=1e-10)


def test_concurrence_equals_optimal_witness_on_steady_states():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        rho = model_steady(
            n,
            h=float(rng.uniform(0.4, 1.4)),
            lam=float(rng.uniform(0.0, 2.2)),
            ga=float(rng.uniform(0.0, 0.05)),
            gb=float(rng.uniform(0.05, 0.35)),
        )
        alg = build_algebra(n)
        res = entanglement_curve(rho, alg)
        best = max(0.0, res.c_phi.max(), c_phi(rho, alg, res.phi_star))
        assert res.c_r == pytest.approx(best, abs=1e-3)


def test_witness_width_narrows_like_inverse_sqrt_n():
    widths = {}
    for n in (25, 50, 100):
        rho = model_steady(n, 1.0, 1.5, 0.01, 0.2, tol=1e-10)
        res = entanglement_curve(rho, build_algebra(n), n_phi=2000)
        widths[n] = np.mean(res.c_phi > 0) * np.pi
    scaled = [widths[n] * np.sqrt(n) for n in (25, 50, 100)]
    assert max(scaled) / min(scaled) <= 1.5


# -- HP analogues --------------------------------------------------------------------


def test_hp_entanglement_vacuum():
    res = hp_entanglement(MomentState(n=0.0, m=0.0))
    assert np.allclose(res.c_phi, 0.0)
    assert res.c_r == 0.0


def test_hp_witness_closed_form():
    s = MomentState(n=0.7, m=0.5 + 0.2j)
    phis = np.linspace(0, np.pi, 11)
    vals = hp_c_phi(s, phis)
    expected = 2.0 * (s.m * np.exp(2j * phis)).real - 2.0 * s.n
    assert np.allclose(vals, expected, atol=1e-14)
    assert np.max(vals) <= 2.0 * (abs(s.m) - s.n) + 1e-12


def test_hp_concurrence_critical_limit():
    # Gamma_a = 0: C_R -> 1/2 as lam -> lam_c from below.
    lam_c = lambda_critical(1.0, 0.2)
    p = LMGParams(n_atoms=100, h=1.0, lam=lam_c - 1e-4, Gamma_a=0.0, Gamma_b=0.2)
    fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
    ss = moment_steady_state(hp_coefficients(p, fp))
    assert hp_entanglement(ss).c_r == pytest.approx(0.5, abs=1e-3)


def test_hp_concurrence_matches_analytic_form():
    # Gamma_a = 0, lam << lam_c: closed form lam (sqrt(4h(lam_c-lam)+lam^2) - lam)
    # / (4h(lam_c-lam)).
    gb = 0.2
    lam_c = lambda_critical(1.0, gb)
    for lam in (0.2, 0.45, 0.7):
        p = LMGParams(n_atoms=100, h=1.0, lam=lam, Gamma_a=0.0, Gamma_b=gb)
        fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
        ss = moment_steady_state(hp_coefficients(p, fp))
        gap = 4.0 * 1.0 * (lam_c - lam)
        closed = lam * (np.sqrt(gap + lam**2) - lam) / gap
        assert hp_entanglement(ss).c_r == pytest.approx(closed, abs=1e-6)


def test_transient_entanglement_rises_high():
    # From the all-up state the coherent dynamics generates strong pairwise
    # entanglement before dissipation wins: the early-time C_R peak sits far
    # above the steady-state value.
    from dlmg.lindblad import evolve

    alg = build_algebra(100)
    p = LMGParams(n_atoms=100, h=1.0, lam=1.5, Gamma_a=0.01, Gamma_b=0.2)
    spec = build_gamma0(p, alg)
    times = np.linspace(0.1, 3.0, 16)
    traj = evolve(spec, all_up_state(100), times)
    crs = [rescaled_concurrence(s, alg) for s in traj.states]
    steady = rescaled_concurrence(steady_state(spec, tol=1e-10, check_unique=False), alg)
    assert max(crs) > 0.5
    assert max(crs) > 2.0 * steady


def test_hp_steady_flow_agrees_with_entanglement_point():
    # Relaxing the second-moment flow from vacuum reproduces the steady-state
    # witness value at lam = 0.5.
    from dlmg.hp import evolve_moments

    p = LMGParams(n_atoms=100, h=1.0, lam=0.5, Gamma_a=0.01, Gamma_b=0.2)
    fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
    coeffs = hp_coefficients(p, fp)
    ss = moment_steady_state(coeffs)
    relaxed = evolve_moments(coeffs, MomentState(n=0.0, m=0.0), [0.0, 200.0])[-1]
    assert hp_entanglement(relaxed).c_r == pytest.approx(hp_entanglement(ss).c_r, abs=1e-8)


def test_hp_concurrence_first_order_closed_form():
    # Field-swept normal phase, Gamma_a = 0: with D = 4h^2 - 4h lam + Gamma_b^2
    # (= 4(h - Lam/2)(h - h_c)), C_R = lam (sqrt(D + lam^2) - lam) / D; checks
    # the moment flow on the h < h_c side including h < 0.
    gb = 0.2
    for h in (-0.5, -0.1, 0.0, 0.005):
        p = LMGParams(n_atoms=100, h=h, lam=1.0, Gamma_a=0.0, Gamma_b=gb)
        fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
        cr = hp_entanglement(moment_steady_state(hp_coefficients(p, fp))).c_r
        d = 4.0 * h * h - 4.0 * h * 1.0 + gb * gb
        closed = 1.0 * (np.sqrt(d + 1.0) - 1.0) / d
        assert cr == pytest.approx(closed, abs=1e-6)


def test_hp_matches_finite_n():
    for lam in (0.5, 0.9):
        rho = model_steady(100, 1.0, lam, 0.01, 0.2, tol=1e-10)
        cr_fn = rescaled_concurrence(rho, build_algebra(100))
        p = LMGParams(n_atoms=100, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2)
        fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
        cr_hp = hp_entanglement(moment_steady_state(hp_coefficients(p, fp))).c_r
        assert abs(cr_fn - cr_hp) <= 0.1


def test_hp_matches_finite_n_broken_phase():
    # Above the transition the single-lobe linearization still tracks the
    # finite-N concurrence closely (the optimum witness angle sits
    # perpendicular to the lobe splitting).
    for lam in (1.2, 1.5):
        rho = model_steady(100, 1.0, lam, 0.01, 0.2, tol=1e-10)
        cr_fn = rescaled_concurrence(rho, build_algebra(100))
        p = LMGParams(n_atoms=100, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2)
        fp = {f.branch: f for f in fixed_points(p)}[BROKEN_PLUS]
        cr_hp = hp_entanglement(moment_steady_state(hp_coefficients(p, fp))).c_r
        assert abs(cr_fn - cr_hp) <= 0.05


# -- Q-function -----------------------------------------------------------------------


def test_qfunction_pole_values():
    alg = build_algebra(12)
    rho = all_up_state(12)
    grid = spin_qfunction(rho, alg, [0.0, np.pi], [0.0, 1.3])
    assert grid.values[0] == pytest.approx(1.0, abs=1e-12)
    assert grid.values[1] == pytest.approx(0.0, abs=1e-12)


def test_qfunction_bounds():
    rho = model_steady(30, 1.0, 1.3, 0.01, 0.2)
    alg = build_algebra(30)
    grid = spin_qfunction(
        rho, alg, np.linspace(0, np.pi, 31), np.linspace(0, 2 * np.pi, 41, endpoint=False)
    )
    assert np.all(grid.values >= 0.0)
    assert np.all(grid.values <= 1.0 + 1e-12)


def test_qfunction_identity_resolution():
    # (N+1)/(4 pi) * integral Q dOmega = 1 on Gauss-Legendre theta nodes.
    rho = model_steady(50, 1.0, 2.0, 0.01, 0.2)
    alg = build_algebra(50)
    nodes, _ = np.polynomial.legendre.leggauss(120)
    thetas = np.arccos(nodes)[::-1]
    phis = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    grid = spin_qfunction(rho, alg, thetas, phis)
    assert qfunction_norm(grid, 50) == pytest.approx(1.0, abs=1e-3)


def test_qfunction_single_lobe_below_critical():
    rho = model_steady(50, 1.0, 0.5, 0.01, 0.2)
    alg = build_algebra(50)
    thetas = np.linspace(0, np.pi, 61)
    phis = np.linspace(0, 2 * np.pi, 73, endpoint=False)
    grid = spin_qfunction(rho, alg, thetas, phis)
    i, _ = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert thetas[i] < 0.35  # single lobe at the top


def test_qfunction_two_lobes_above_critical():
    p = LMGParams(n_atoms=50, h=1.0, lam=2.0, Gamma_a=0.01, Gamma_b=0.2)
    rho = model_steady(50, 1.0, 2.0, 0.01, 0.2)
    alg = build_algebra(50)
    fp = {f.branch: f for f in fixed_points(p)}[BROKEN_PLUS]
    th_fp = np.arccos(fp.state.z)
    ph_fp = np.arctan2(fp.state.y, fp.state.x)
    thetas = np.linspace(0, np.pi, 121)
    phis = np.linspace(0, 2 * np.pi, 181, endpoint=False)
    grid = spin_qfunction(rho, alg, thetas, phis)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    # maximum sits near one of the two broken amplitudes
    d_plus = (thetas[i] - th_fp) ** 2 + (np.angle(np.exp(1j * (phis[j] - ph_fp)))) ** 2
    d_minus = (thetas[i] - th_fp) ** 2 + (np.angle(np.exp(1j * (phis[j] - ph_fp - np.pi)))) ** 2
    assert min(d_plus, d_minus) < 0.05
    # and the antipodal lobe carries comparable weight
    j_anti = int(np.argmin(np.abs(np.angle(np.exp(1j * (phis - ph_fp - np.pi))))))
    i_anti = int(np.argmin(np.abs(thetas - th_fp)))
    assert grid.values[i_anti, j_anti] > 0.5 * grid.values[i, j]


def test_qfunction_smallest_system():
    alg = build_algebra(1)
    rho = model_steady(1, 1.0, 0.5, 0.0, 0.2)
    grid = spin_qfunction(
        rho, alg, np.linspace(0, np.pi, 21), np.linspace(0, 2 * np.pi, 21, endpoint=False)
    )
    assert np.all(np.isfinite(grid.values))
    i, _ = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.thetas[i] < 0.6


def test_qfunction_rejects_empty_grid():
    alg = build_algebra(3)
    with pytest.raises(ValueError):
        spin_qfunction(all_up_state(3), alg, [], [0.0])


def random_density_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [1, 12, 50, 150])
def test_qfunction_matches_per_point_overlaps(n):
    # Oracle: <theta,phi| rho |theta,phi> point by point, on a full random
    # state (every coherence offset populated), over a uniform theta grid
    # with both poles, Gauss-Legendre theta nodes, and an unsorted phi grid.
    rho = random_density_matrix(n, seed=n)
    alg = build_algebra(n)
    rng = np.random.default_rng(100 + n)
    phis = rng.uniform(-np.pi, 3 * np.pi, 17)
    nodes, _ = np.polynomial.legendre.leggauss(9)
    for thetas in (np.linspace(0.0, np.pi, 11), np.arccos(nodes)[::-1]):
        grid = spin_qfunction(rho, alg, thetas, phis)
        ref = np.array([
            [(_coherent_state(n, th, ph).conj() @ rho @ _coherent_state(n, th, ph)).real
             for ph in phis]
            for th in thetas
        ])
        assert grid.values.shape == (len(thetas), len(phis))
        assert np.max(np.abs(grid.values - ref)) <= 1e-13


def test_coherent_state_is_top_eigenstate_along_its_axis():
    # Independent of the amplitude formula: |theta,phi> is the unit vector
    # with (n . J)|theta,phi> = j|theta,phi>, n = (sin t cos p, sin t sin p, cos t).
    n = 12
    alg = build_algebra(n)
    jx, jy, jz = alg.jx.dense(), alg.jy.dense(), alg.jz.dense()
    for th, ph in ((0.0, 1.0), (0.7, 0.3), (2.0, -1.1), (np.pi, 0.4)):
        psi = _coherent_state(n, th, ph)
        axis = np.sin(th) * np.cos(ph) * jx + np.sin(th) * np.sin(ph) * jy + np.cos(th) * jz
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(axis @ psi - 0.5 * n * psi)) <= 1e-13

"""Entanglement witnesses, rescaled concurrence, HP analogues, Q-function."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dlmg.hp import MomentState, hp_coefficients, moment_steady_state
from dlmg.lindblad import steady_state
from dlmg.models import LMGParams, build_gamma0
from dlmg.observables import (
    _coherent_magnitudes,
    _coherent_state,
    c_phi,
    hp_c_phi,
    hp_rescaled_concurrence,
    hp_witness_peak,
    qfunction_norm,
    rescaled_concurrence,
    spin_moments,
    spin_qfunction,
    witness_peak,
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
# The angles of the CLI's cphi output.
PHI_GRID = np.linspace(0.0, np.pi, 720, endpoint=False)


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
        m = spin_moments(all_up_state(n), build_algebra(n))
        for phi in np.linspace(0, np.pi, 7):
            assert c_phi(m, n, phi) == pytest.approx(0.0, abs=1e-12)


def test_c_phi_maximally_mixed_brute_force():
    # N=2 maximally mixed triplet state: brute-force 3x3 traces give
    # <J_phi^2> = 2/3 for every phi, so C_phi = 1 - 2*(2/3) = -1/3.
    alg = build_algebra(2)
    rho = np.eye(3, dtype=complex) / 3.0
    jphi = lambda phi: np.sin(phi) * alg.jx.toarray() + np.cos(phi) * alg.jy.toarray()
    m = spin_moments(rho, alg)
    for phi in (0.0, 0.4, 1.1, 2.9):
        second = np.trace(jphi(phi) @ jphi(phi) @ rho).real
        expected = 1.0 - 2.0 * second
        assert expected == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert c_phi(m, 2, phi) == pytest.approx(expected, abs=1e-12)
        assert c_phi(m, 2, phi) < 0.0  # unentangled


def test_c_phi_pi_periodic():
    m = spin_moments(model_steady(8, 1.0, 1.2, 0.01, 0.2), build_algebra(8))
    for phi in np.linspace(0, np.pi, 9):
        assert c_phi(m, 8, phi) == pytest.approx(c_phi(m, 8, phi + np.pi), abs=1e-12)


def test_c_phi_steady_state_max_near_zero_angle():
    #

    m = spin_moments(model_steady(40, 1.0, 0.9, 0.01, 0.2), build_algebra(40))
    assert rescaled_concurrence(m, 40) > 0.2
    phi_star = witness_peak(m, 40)
    phi_star = phi_star if phi_star < np.pi / 2 else phi_star - np.pi
    assert abs(phi_star) < 0.3


# -- rescaled concurrence -----------------------------------------------------------


def test_concurrence_product_state_zero():
    for n in (2, 6, 20):
        assert rescaled_concurrence(spin_moments(all_up_state(n), build_algebra(n)), n) == 0.0


def test_concurrence_bell_state():
    alg = build_algebra(2)
    psi = np.zeros(3, dtype=complex)
    psi[0] = psi[2] = S2  # (|uu> + |dd>)/sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert rescaled_concurrence(spin_moments(rho, alg), 2) == pytest.approx(1.0, abs=1e-12)
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
        formula = rescaled_concurrence(spin_moments(rho, alg), 2)
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
        m = spin_moments(rho, build_algebra(n))
        best = max(0.0, c_phi(m, n, PHI_GRID).max(), c_phi(m, n, witness_peak(m, n)))
        assert rescaled_concurrence(m, n) == pytest.approx(best, abs=1e-12)


def test_optimal_angle_is_the_top_eigenvector_of_the_witness_form():
    # C_phi = 1 + v^T M v with v = (sin phi, cos phi) and M = [[p, t/2], [t/2, q]],
    # so phi* points along M's top eigenvector.  Random states have <Jx>, <Jy> != 0;
    # the model's steady states have <Jx> = <Jy> = 0.
    rng = np.random.default_rng(31)
    states = []
    for _ in range(60):
        n, rank = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        a = rng.normal(size=(n + 1, rank)) + 1j * rng.normal(size=(n + 1, rank))
        rho = a @ a.conj().T
        states.append((n, rho / np.trace(rho).real))
    states += [(n, model_steady(n, 1.0, lam, 0.01, 0.2))
               for n, lam in ((10, 0.6), (25, 1.2), (40, 1.5), (40, 0.95))]
    dense = np.linspace(0.0, np.pi, 200_001)
    resolved = 0
    for i, (n, rho) in enumerate(states):
        m = spin_moments(rho, build_algebra(n))
        if i < 60:
            assert min(abs(m["jx"]), abs(m["jy"])) > 1e-6
        phi_star = witness_peak(m, n)
        assert 0.0 <= phi_star < np.pi
        k = 4.0 / n - 4.0 / n**2
        p = k * m["jx"] ** 2 - 4.0 * m["jx2"] / n
        q = k * m["jy"] ** 2 - 4.0 * m["jy2"] / n
        t = 2.0 * k * m["jx"] * m["jy"] - 4.0 * m["jxjy_sym"] / n
        evals, evecs = np.linalg.eigh([[p, t / 2.0], [t / 2.0, q]])
        if evals[1] - evals[0] > 1e-6:
            off = (phi_star - np.arctan2(*evecs[:, 1])) % np.pi
            assert min(off, np.pi - off) < 1e-9
            resolved += 1
        peak = c_phi(m, n, phi_star)
        assert peak >= c_phi(m, n, dense).max() - 1e-14
    assert resolved >= len(states) - 2


def test_optimal_angle_of_a_flat_witness_is_zero():
    # The maximally mixed state has C_phi independent of phi.
    for n in (2, 7):
        rho = np.eye(n + 1) / (n + 1)
        assert witness_peak(spin_moments(rho, build_algebra(n)), n) == 0.0
    assert hp_witness_peak(MomentState(n=0.3, m=0.0)) == 0.0


def test_optimal_angle_stays_below_pi():
    # An optimum a rounding error below 0 is reported as 0, not as pi.
    m = {"jx": 0.0, "jy": 0.0, "jx2": 2.0, "jy2": 1.0, "jxjy_sym": 1e-18}
    assert witness_peak(m, 4) == 0.0
    assert hp_witness_peak(MomentState(n=0.3, m=1.0 + 1e-20j)) == 0.0
    assert hp_witness_peak(MomentState(n=0.3, m=1.0 - 1e-20j)) == 5e-21


def test_c_phi_on_an_angle_array_equals_the_scalar_witness_at_every_angle():
    # The curve is evaluated on the whole grid at once; every value is the scalar one.
    for n, lam in ((3, 0.4), (20, 1.3), (60, 2.0)):
        m = spin_moments(model_steady(n, 1.0, lam, 0.01, 0.2), build_algebra(n))
        curve = c_phi(m, n, PHI_GRID)
        assert curve.shape == (720,)
        assert all(curve[k] == c_phi(m, n, phi) for k, phi in enumerate(PHI_GRID))


def test_witness_width_narrows_like_inverse_sqrt_n():
    widths = {}
    for n in (25, 50, 100):
        rho = model_steady(n, 1.0, 1.5, 0.01, 0.2, tol=1e-10)
        curve = c_phi(spin_moments(rho, build_algebra(n)), n,
                      np.linspace(0.0, np.pi, 2000, endpoint=False))
        widths[n] = np.mean(curve > 0) * np.pi
    scaled = [widths[n] * np.sqrt(n) for n in (25, 50, 100)]
    assert max(scaled) / min(scaled) <= 1.5


# -- HP analogues --------------------------------------------------------------------


def test_hp_entanglement_vacuum():
    vacuum = MomentState(n=0.0, m=0.0)
    assert np.allclose(hp_c_phi(vacuum, PHI_GRID), 0.0)
    assert hp_rescaled_concurrence(vacuum) == 0.0


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
    assert hp_rescaled_concurrence(ss) == pytest.approx(0.5, abs=1e-3)


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
        assert hp_rescaled_concurrence(ss) == pytest.approx(closed, abs=1e-6)


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
    crs = [rescaled_concurrence(spin_moments(s, alg), 100) for s in traj.states]
    rho = steady_state(spec, tol=1e-10, check_unique=False)
    steady = rescaled_concurrence(spin_moments(rho, alg), 100)
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
    assert hp_rescaled_concurrence(relaxed) == pytest.approx(hp_rescaled_concurrence(ss),
                                                             abs=1e-8)


def test_hp_concurrence_first_order_closed_form():
    # Field-swept normal phase, Gamma_a = 0: with D = 4h^2 - 4h lam + Gamma_b^2
    # (= 4(h - Lam/2)(h - h_c)), C_R = lam (sqrt(D + lam^2) - lam) / D; checks
    # the moment flow on the h < h_c side including h < 0.
    gb = 0.2
    for h in (-0.5, -0.1, 0.0, 0.005):
        p = LMGParams(n_atoms=100, h=h, lam=1.0, Gamma_a=0.0, Gamma_b=gb)
        fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
        cr = hp_rescaled_concurrence(moment_steady_state(hp_coefficients(p, fp)))
        d = 4.0 * h * h - 4.0 * h * 1.0 + gb * gb
        closed = 1.0 * (np.sqrt(d + 1.0) - 1.0) / d
        assert cr == pytest.approx(closed, abs=1e-6)


def test_hp_matches_finite_n():
    for lam in (0.5, 0.9):
        rho = model_steady(100, 1.0, lam, 0.01, 0.2, tol=1e-10)
        cr_fn = rescaled_concurrence(spin_moments(rho, build_algebra(100)), 100)
        p = LMGParams(n_atoms=100, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2)
        fp = {f.branch: f for f in fixed_points(p)}[NORMAL]
        cr_hp = hp_rescaled_concurrence(moment_steady_state(hp_coefficients(p, fp)))
        assert abs(cr_fn - cr_hp) <= 0.1


def test_hp_matches_finite_n_broken_phase():
    # Above the transition the single-lobe linearization still tracks the
    # finite-N concurrence closely (the optimum witness angle sits
    # perpendicular to the lobe splitting).
    for lam in (1.2, 1.5):
        rho = model_steady(100, 1.0, lam, 0.01, 0.2, tol=1e-10)
        cr_fn = rescaled_concurrence(spin_moments(rho, build_algebra(100)), 100)
        p = LMGParams(n_atoms=100, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2)
        fp = {f.branch: f for f in fixed_points(p)}[BROKEN_PLUS]
        cr_hp = hp_rescaled_concurrence(moment_steady_state(hp_coefficients(p, fp)))
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
    jx, jy, jz = alg.jx.toarray(), alg.jy.toarray(), alg.jz.toarray()
    for th, ph in ((0.0, 1.0), (0.7, 0.3), (2.0, -1.1), (np.pi, 0.4)):
        psi = _coherent_state(n, th, ph)
        axis = np.sin(th) * np.cos(ph) * jx + np.sin(th) * np.sin(ph) * jy + np.cos(th) * jz
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(axis @ psi - 0.5 * n * psi)) <= 1e-13


@pytest.mark.parametrize("n", [1, 50, 400])
def test_coherent_magnitudes_match_an_exact_reference(n):
    # Reference: sqrt(binom(N, k) c^(2(N-k)) s^(2k)) in 60-digit decimals,
    # from the same rounded c = cos(theta/2), s = sin(theta/2).  The
    # log-domain error grows like N ulps; log-gamma binomials miss the bound.
    thetas = np.concatenate([np.linspace(0.0, np.pi, 13), [0.3, 1.0, 2.5]])
    got = _coherent_magnitudes(n, thetas)
    ref = np.empty_like(got)
    with localcontext() as ctx:
        ctx.prec = 60
        for i, half in enumerate(0.5 * thetas):
            c, s = Decimal(float(np.cos(half))), Decimal(float(np.sin(half)))
            for k in range(n + 1):
                power = (c ** (2 * (n - k)) if k < n else 1) * (s ** (2 * k) if k else 1)
                ref[i, k] = float((math.comb(n, k) * power).sqrt())
    assert np.max(np.abs(got - ref)) <= 4e-17 * (n + 1)

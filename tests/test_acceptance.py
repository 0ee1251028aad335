"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 7d asserts the stated closed-form agreement bound; the
exact linear-response theory exceeds that bound at the baseline cavity
parameters (see README, Known limitations), so that single check is expected
to report FAIL with the measured deviation.
"""

import time

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.signal import find_peaks

from dlmg.hp import (
    PHASE_BROKEN,
    PHASE_NORMAL,
    eigenvalues,
    hp_coefficients,
    moment_steady_state,
    rotation_angles,
)
from dlmg.lindblad import evolve, liouvillian_matrix, steady_state
from dlmg.models import LMGParams, build_gamma0
from dlmg.observables import (
    c_phi,
    entanglement_curve,
    hp_entanglement,
    qfunction_norm,
    rescaled_concurrence,
    spin_qfunction,
)
from dlmg.operators import all_up_state, build_algebra, expectation
from dlmg.semiclassical import (
    BROKEN_PLUS,
    NORMAL,
    critical_points,
    fixed_points,
    h_critical,
    lambda_critical,
    selected_branch,
)
from dlmg.spectrum import (
    CavityParams,
    default_nu_grid,
    fig_cavity,
    linear_system,
    transmission,
    transmission_approx,
)
from dlmg.hp import RotationAngles


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def params_at(lam=1.0, h=1.0, n=100, ga=0.01, gb=0.2):
    return LMGParams(n_atoms=n, h=h, lam=lam, Gamma_a=ga, Gamma_b=gb)


def test_criterion_1_critical_coupling():
    t0 = time.perf_counter()
    cp = critical_points(params_at())
    exact = cp.lambda_c == 1.01
    # bisection on first appearance of the broken branch
    lo, hi = 0.9, 1.1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        branches = {f.branch for f in fixed_points(params_at(lam=mid))}
        if BROKEN_PLUS in branches:
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    ok = exact and abs(onset - 1.01) <= 1e-6 and elapsed < 1.0
    report(
        "criterion 1 (critical coupling)",
        ok,
        f"lambda_c = {cp.lambda_c!r}, branch onset = {onset:.9f}, {elapsed:.3f} s",
    )


def test_criterion_2_critical_field():
    cp = critical_points(params_at())
    ok = abs(cp.h_c - 0.010102) <= 1e-6
    report("criterion 2 (critical field)", ok, f"h_c = {cp.h_c:.9f}")


def test_criterion_3_eigenvalue_structure():
    t0 = time.perf_counter()
    lam_c = lambda_critical(1.0, 0.2)
    at_c = eigenvalues(params_at(lam=lam_c), PHASE_NORMAL)
    ok_values = abs(at_c.mu_minus) <= 1e-10 and abs(at_c.mu_plus + 0.4) <= 1e-10

    # imaginary parts vanish at lambda' = 1 ...
    just_below = eigenvalues(params_at(lam=1.0 - 1e-3), PHASE_NORMAL)
    at_marker = eigenvalues(params_at(lam=1.0 + 1e-3), PHASE_NORMAL)
    ok_marker = abs(just_below.mu_plus.imag) > 0 and at_marker.mu_plus.imag == 0.0

    # ... and reappear above lambda'' with sqrt scaling
    cp = critical_points(params_at())
    eps = np.logspace(-4, -2, 13)
    ims = np.array(
        [eigenvalues(params_at(lam=cp.lambda_dprime + e), PHASE_BROKEN).mu_plus.imag for e in eps]
    )
    slope = np.polyfit(np.log(eps), np.log(ims), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = ok_values and ok_marker and abs(slope - 0.5) <= 0.05 and elapsed < 1.0
    report(
        "criterion 3 (eigenvalue structure)",
        ok,
        f"mu(lambda_c) = ({at_c.mu_minus:.2e}, {at_c.mu_plus:.6f}), "
        f"scaling slope = {slope:.4f}, {elapsed:.3f} s",
    )


def test_criterion_4_finite_n_vs_thermodynamic():
    t0 = time.perf_counter()
    p = params_at(lam=2.0)
    alg = build_algebra(100)
    rho = steady_state(build_gamma0(p, alg), tol=1e-10)
    j2 = 50.0**2
    jz2 = expectation(alg.jz @ alg.jz, rho).real / j2
    jx2 = expectation(alg.jx @ alg.jx, rho).real / j2
    elapsed = time.perf_counter() - t0
    ok = (
        abs(jz2 - 0.25126) <= 0.1 * 0.25126
        and abs(jx2 - 0.74687) <= 0.1 * 0.74687
        and elapsed < 300.0
    )
    report(
        "criterion 4 (finite-N vs thermodynamic limit)",
        ok,
        f"<Jz^2>/j^2 = {jz2:.5f} (target 0.25126), <Jx^2>/j^2 = {jx2:.5f} "
        f"(target 0.74687), {elapsed:.1f} s",
    )


def test_criterion_5_entanglement_peak():
    t0 = time.perf_counter()
    lams = np.linspace(0.5, 1.5, 41)
    alg = build_algebra(100)
    crs = []
    for lam in lams:
        rho = steady_state(build_gamma0(params_at(lam=lam), alg), tol=1e-10, check_unique=False)
        crs.append(rescaled_concurrence(rho, alg))
    lam_star = lams[int(np.argmax(crs))]

    lam_c = lambda_critical(1.0, 0.2)
    p_hp = params_at(lam=lam_c - 1e-4, ga=0.0)
    fp = {f.branch: f for f in fixed_points(p_hp)}[NORMAL]
    cr_hp = hp_entanglement(moment_steady_state(hp_coefficients(p_hp, fp))).c_r
    elapsed = time.perf_counter() - t0
    ok = 0.9 <= lam_star <= 1.1 and abs(cr_hp - 0.5) <= 1e-3 and elapsed < 1800.0
    report(
        "criterion 5 (entanglement peak)",
        ok,
        f"argmax C_R at lambda = {lam_star:.3f}, C_R^HP(lambda_c - 1e-4) = {cr_hp:.6f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_6_oracle_equivalence():
    # dense null-space oracle for N <= 3
    worst_steady = 0.0
    for n in (1, 2, 3):
        p = params_at(lam=1.1, n=n, ga=0.02, gb=0.25)
        spec = build_gamma0(p, build_algebra(n))
        lv = liouvillian_matrix(spec).toarray()
        ns = null_space(lv, rcond=1e-12)
        assert ns.shape[1] == 1
        rho_oracle = ns[:, 0].reshape(n + 1, n + 1)
        rho_oracle /= np.trace(rho_oracle)
        rho_oracle = 0.5 * (rho_oracle + rho_oracle.conj().T)
        rho = steady_state(spec, tol=1e-12)
        worst_steady = max(worst_steady, float(np.max(np.abs(rho - rho_oracle))))

    # two-qubit concurrence oracle on 50 random parity-block symmetric states
    from test_observables import EMBED, random_parity_state, wootters_concurrence

    rng = np.random.default_rng(2718)
    alg2 = build_algebra(2)
    worst_cr = 0.0
    for _ in range(50):
        rho = random_parity_state(rng)
        formula = rescaled_concurrence(rho, alg2)
        oracle = wootters_concurrence(EMBED @ rho @ EMBED.conj().T)
        worst_cr = max(worst_cr, abs(formula - oracle))

    ok = worst_steady <= 1e-10 and worst_cr <= 1e-10
    report(
        "criterion 6 (oracle equivalence)",
        ok,
        f"steady-state vs null space {worst_steady:.2e}, concurrence vs oracle {worst_cr:.2e}",
    )


def _fig_spectrum(lam, nu, h=1.0):
    params, cavity = fig_cavity(lam=lam, h=h)
    fp = selected_branch(params)
    sysm = linear_system(params, cavity, rotation_angles(fp))
    return params, transmission(sysm, nu)


def test_criterion_7a_empty_cavity_normalization():
    t0 = time.perf_counter()
    _, cavity = fig_cavity(lam=0.3)
    empty = CavityParams(
        kappa_a=cavity.kappa_a, kappa_b=cavity.kappa_b,
        delta_a=cavity.delta_a, delta_b=cavity.delta_b,
        lambda_a=0.0, lambda_b=0.0,
    )
    sysm = linear_system(params_at(lam=0.3, n=1, ga=0.0, gb=0.0), empty, RotationAngles(0.0, 0.0))
    res = transmission(sysm, default_nu_grid(-3, 3, 1201))
    elapsed = time.perf_counter() - t0
    ok = abs(res.t_p.max() - 1.0) <= 1e-6 and elapsed < 10.0
    report("criterion 7a (empty-cavity normalization)", ok,
           f"max T = {res.t_p.max():.8f}, {elapsed:.2f} s")


def test_criterion_7b_dip_location_and_width():
    t0 = time.perf_counter()
    nu = default_nu_grid(-3, 3, 6001)
    _, res = _fig_spectrum(0.3, nu)
    i_dip = int(np.argmin(res.t_p))
    nu_dip = nu[i_dip]
    half = 0.5 * (1.0 + res.t_p[i_dip])
    left = i_dip
    while res.t_p[left] < half:
        left -= 1
    right = i_dip
    while res.t_p[right] < half:
        right += 1
    width = nu[right] - nu[left]
    elapsed = time.perf_counter() - t0
    ok = abs(nu_dip - 1.673) <= 0.02 and abs(width - 0.10) <= 0.02 and elapsed < 10.0
    report("criterion 7b (dip position/width)", ok,
           f"dip at nu = {nu_dip:.4f}, width = {width:.4f}, {elapsed:.2f} s")


def test_criterion_7c_peak_height_at_lambda_h():
    t0 = time.perf_counter()
    _, res = _fig_spectrum(1.0, np.array([0.0]))
    elapsed = time.perf_counter() - t0
    ok = abs(res.t_p[0] - 400.0) <= 0.2 * 400.0 and elapsed < 10.0
    report("criterion 7c (central peak height)", ok,
           f"T_p(0) = {res.t_p[0]:.1f}, {elapsed:.2f} s")


def test_criterion_7d_full_vs_closed_form():
    t0 = time.perf_counter()
    nu = default_nu_grid(-3, 3, 2001)
    devs = {}
    for lam in (0.3, 0.93):
        params, res = _fig_spectrum(lam, nu)
        approx = transmission_approx(params, nu)
        devs[lam] = float(np.max(np.abs(res.t_p - approx.t_p)) / approx.t_p.max())
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.05 for d in devs.values()) and elapsed < 20.0
    report(
        "criterion 7d (full vs closed form within 5%)",
        ok,
        f"max deviations {devs[0.3]:.3f} (lam=0.3), {devs[0.93]:.3f} (lam=0.93); "
        "the exact response deviates from the closed form by the physical "
        "non-adiabatic pole shift at these cavity parameters (README, Known limitations)",
    )


def test_criterion_8_first_order_signature():
    hc = h_critical(1.0, 0.05)
    nu = default_nu_grid(-3, 3, 6001)
    _, below = _fig_spectrum(1.0, nu, h=hc - 1e-3)
    peaks_below = below.nu[find_peaks(below.t_p, prominence=0.05 * np.nanmax(below.t_p))[0]]
    _, above = _fig_spectrum(1.0, nu, h=hc + 5e-3)
    peaks_above = above.nu[find_peaks(above.t_p, prominence=0.05 * np.nanmax(above.t_p))[0]]
    ok = (
        len(peaks_below) == 1
        and len(peaks_above) == 2
        and all(abs(abs(p) - 2.0) <= 0.2 for p in peaks_above)
    )
    report(
        "criterion 8 (first-order spectral signature)",
        ok,
        f"{len(peaks_below)} peak below h_c, {len(peaks_above)} above at "
        f"{[round(p, 3) for p in sorted(peaks_above)]}",
    )


def test_criterion_9_invariant_suite():
    t0 = time.perf_counter()
    checks = []

    # commutators and Casimir across the N grid
    for n in (1, 2, 5, 25, 100):
        alg = build_algebra(n)
        jx, jy, jz = alg.jx.toarray(), alg.jy.toarray(), alg.jz.toarray()
        checks.append(np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) <= 1e-12)
        cas = jx @ jx + jy @ jy + jz @ jz - alg.j * (alg.j + 1) * np.eye(n + 1)
        checks.append(np.max(np.abs(cas)) <= 1e-10)

    # trace/Hermiticity/positivity along a trajectory
    p = params_at(lam=1.5, n=12)
    traj = evolve(build_gamma0(p, build_algebra(12)), all_up_state(12),
                  np.linspace(0, 8, 17))
    for state in traj.states:
        checks.append(abs(np.trace(state) - 1.0) <= 1e-8)
        checks.append(np.max(np.abs(state - state.conj().T)) <= 1e-8)
        checks.append(np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() >= -1e-6)

    # C_phi periodicity and C_R = max_phi C_phi on a steady state
    alg8 = build_algebra(8)
    rho8 = steady_state(build_gamma0(params_at(lam=1.1, n=8), alg8), tol=1e-11)
    for phi in np.linspace(0, np.pi, 5):
        checks.append(abs(c_phi(rho8, alg8, phi) - c_phi(rho8, alg8, phi + np.pi)) <= 1e-12)
    res = entanglement_curve(rho8, alg8)
    checks.append(abs(res.c_r - max(0.0, res.c_phi.max())) <= 1e-3)

    # Q-function identity resolution
    alg50 = build_algebra(50)
    rho50 = steady_state(build_gamma0(params_at(lam=2.0, n=50), alg50), tol=1e-10)
    nodes, _ = np.polynomial.legendre.leggauss(110)
    grid = spin_qfunction(rho50, alg50, np.arccos(nodes)[::-1],
                          np.linspace(0, 2 * np.pi, 120, endpoint=False))
    checks.append(abs(qfunction_norm(grid, 50) - 1.0) <= 1e-3)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    report("criterion 9 (invariant suite)", ok,
           f"{len(checks)} invariants checked, {elapsed:.1f} s")


def test_criterion_10_dynamics_consistency():
    t0 = time.perf_counter()
    alg = build_algebra(100)
    rel_diffs = {}
    for lam in (0.8, 1.2):
        p = params_at(lam=lam)
        spec = build_gamma0(p, alg)
        traj = evolve(spec, all_up_state(100), np.array([60.0, 80.0]))
        cr_t = rescaled_concurrence(traj.states[-1], alg)
        cr_ss = rescaled_concurrence(steady_state(spec, tol=1e-10, check_unique=False), alg)
        rel_diffs[lam] = abs(cr_t - cr_ss) / cr_ss
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.02 for d in rel_diffs.values())
    report(
        "criterion 10 (dynamics consistency)",
        ok,
        f"relative C_R(t->inf) mismatch {rel_diffs[0.8]:.2e} (lam=0.8), "
        f"{rel_diffs[1.2]:.2e} (lam=1.2), {elapsed:.1f} s",
    )

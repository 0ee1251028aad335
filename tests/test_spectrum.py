"""Probe-transmission spectra: linearized coefficients, full response, closed form."""

import numpy as np
import pytest
from scipy.signal import find_peaks

from dlmg.hp import PHASE_BROKEN, RotationAngles, eigenvalues, rotation_angles
from dlmg.models import LMGParams
from dlmg.semiclassical import h_critical, selected_branch
from dlmg.spectrum import (
    DIVERGENT_COND,
    CavityParams,
    default_nu_grid,
    drift_matrix,
    fig_cavity,
    lambda_a_for_coupling,
    lambda_b_for_rate,
    linear_system,
    transmission,
    transmission_approx,
)


def decoupled(cavity):
    return CavityParams(
        kappa_a=cavity.kappa_a, kappa_b=cavity.kappa_b,
        delta_a=cavity.delta_a, delta_b=cavity.delta_b,
        lambda_a=0.0, lambda_b=0.0,
    )


def full_spectrum(lam, nu, h=1.0, gamma_b=0.05, **kw):
    params, cavity = fig_cavity(lam=lam, h=h, gamma_b=gamma_b, **kw)
    fp = selected_branch(params)
    sysm = linear_system(params, cavity, rotation_angles(fp))
    return params, transmission(sysm, nu)


# -- coefficient map ---------------------------------------------------------------


def test_coupling_inversions_roundtrip():
    lam_a = lambda_a_for_coupling(0.93, 0.3, 15.0)
    assert 2.0 * lam_a**2 * 15.0 / (0.3**2 + 15.0**2) == pytest.approx(0.93, rel=1e-12)
    lam_b = lambda_b_for_rate(0.05, 15.0, 0.0)
    assert lam_b**2 * 15.0 / 15.0**2 == pytest.approx(0.05, rel=1e-12)


def test_linear_system_normal_phase_limits():
    params, cavity = fig_cavity(lam=0.3)
    sysm = linear_system(params, cavity, RotationAngles(0.0, 0.0))
    assert sysm.delta_c == pytest.approx(2.0, abs=1e-14)
    assert sysm.coupA == pytest.approx(cavity.lambda_a, abs=1e-14)
    assert sysm.b1 == 0.0
    assert sysm.b2 == pytest.approx(cavity.lambda_b, abs=1e-14)


def test_linear_system_equatorial_value():
    # theta = pi/2, phi = 0: direct substitution into the coefficient formulas.
    params, cavity = fig_cavity(lam=1.5)
    sysm = linear_system(params, cavity, RotationAngles(np.pi / 2.0, 0.0))
    assert sysm.coupA == pytest.approx(0.5 * cavity.lambda_a * (1.0 + 1j * 1j), abs=1e-12)
    assert sysm.coupA == pytest.approx(0.0, abs=1e-12)
    assert sysm.b1 == pytest.approx(-0.5 * cavity.lambda_b, abs=1e-12)
    assert sysm.b2 == pytest.approx(0.5 * cavity.lambda_b, abs=1e-12)
    # delta_c = 2 lam X^2 at the equator with phi = 0 (X = 1)
    assert sysm.delta_c == pytest.approx(2.0 * params.lam, abs=1e-12)


def test_linear_system_large_coupling_limit():
    # theta -> pi/2 along the broken branch: A -> 0, B1 -> -lam_b/2, B2 -> +lam_b/2,
    # and the atomic frequency approaches 2 lam (matching the eigenvalue scale).
    params, cavity = fig_cavity(lam=60.0)
    fp = selected_branch(params)
    sysm = linear_system(params, cavity, rotation_angles(fp))
    assert abs(sysm.coupA) <= 0.05 * cavity.lambda_a
    assert sysm.b1.real == pytest.approx(-0.5 * cavity.lambda_b, rel=0.05)
    assert sysm.b2 == pytest.approx(0.5 * cavity.lambda_b, rel=0.05)
    assert sysm.delta_c == pytest.approx(2.0 * params.lam, rel=0.01)
    mu = eigenvalues(params, PHASE_BROKEN)
    assert abs(mu.mu_plus.imag) == pytest.approx(2.0 * params.lam, rel=0.01)


def test_empty_cavity_lorentzian():
    params, cavity = fig_cavity(lam=0.3)
    sysm = linear_system(params, decoupled(cavity), RotationAngles(0.0, 0.0))
    nu = default_nu_grid(-3, 3, 601)
    res = transmission(sysm, nu)
    assert res.t_p.max() == pytest.approx(1.0, abs=1e-6)
    assert nu[np.argmax(res.t_p)] == pytest.approx(cavity.delta_b, abs=0.02)
    # Lorentzian profile of width kappa_b
    expected = cavity.kappa_b**2 / (cavity.kappa_b**2 + (nu - cavity.delta_b) ** 2)
    assert np.max(np.abs(res.t_p - expected)) <= 1e-9


def test_low_coupling_dip():
    nu = default_nu_grid(1.0, 2.2, 4001)
    _, res = full_spectrum(0.3, nu)
    i_dip = int(np.argmin(res.t_p))
    assert nu[i_dip] == pytest.approx(2.0 * np.sqrt(1.0 * 0.7), abs=0.02)
    # full width at half depth ~ 2 Gamma_b
    half = 0.5 * (1.0 + res.t_p[i_dip])
    left = i_dip
    while res.t_p[left] < half:
        left -= 1
    right = i_dip
    while res.t_p[right] < half:
        right += 1
    assert nu[right] - nu[left] == pytest.approx(0.10, abs=0.02)


def test_peak_height_at_lambda_equals_h():
    _, res = full_spectrum(1.0, np.array([0.0]))
    assert res.t_p[0] == pytest.approx(400.0, rel=0.2)


def test_full_converges_to_closed_form_in_adiabatic_limit():
    # The closed form is the |nu| << delta_a, kappa_b limit of the full
    # response: scaling up the adiabaticity parameters must shrink the
    # deviation monotonically (the criterion-level 5% comparison at the
    # baseline parameters is exercised by the acceptance suite).
    nu = default_nu_grid(-3, 3, 1501)
    for lam in (0.3, 0.93):
        devs = []
        for scale in (1, 3, 10):
            params, cavity = fig_cavity(
                lam=lam, kappa_a=0.3 / scale, delta_a=15.0 * scale, kappa_b=15.0 * scale
            )
            fp = selected_branch(params)
            sysm = linear_system(params, cavity, rotation_angles(fp))
            full = transmission(sysm, nu).t_p
            approx = transmission_approx(params, nu).t_p
            devs.append(np.max(np.abs(full - approx)) / approx.max())
        assert devs[0] > devs[1] > devs[2]
        assert devs[1] <= 0.05
        assert devs[2] <= 0.01


def test_closed_form_zero_coupling_simplification():
    # At lam = 0 the negative-frequency weight vanishes identically and the
    # formula reduces to |(nu - 2h)/(nu - 2h + i Gamma_b)|^2 times nothing else.
    p = LMGParams(n_atoms=1, h=1.0, lam=0.0, Gamma_a=0.0, Gamma_b=0.05)
    nu = default_nu_grid(-3, 3, 1201)
    res = transmission_approx(p, nu)
    simplified = np.abs((nu - 2.0) / (nu - 2.0 + 1j * 0.05)) ** 2
    assert np.max(np.abs(res.t_p - simplified)) <= 1e-12
    # single dip at +2h, no feature at -2h
    assert res.t_p[np.argmin(np.abs(nu + 2.0))] == pytest.approx(1.0, abs=1e-3)


def test_closed_form_off_resonant_transparency():
    p = LMGParams(n_atoms=1, h=1.0, lam=0.6, Gamma_a=0.0, Gamma_b=0.05)
    res = transmission_approx(p, np.array([-1e5, 1e5]))
    assert np.allclose(res.t_p, 1.0, atol=1e-7)


def test_closed_form_rejects_broken_phase():
    p = LMGParams(n_atoms=1, h=1.0, lam=1.5, Gamma_a=0.0, Gamma_b=0.05)
    with pytest.raises(ValueError):
        transmission_approx(p)


def test_critical_divergence_growth():
    nu = default_nu_grid(-3, 3, 3001)
    peaks = []
    for lam in (0.93, 0.992, 1.000625):
        _, res = full_spectrum(lam, nu)
        peaks.append(res.t_p.max())
    assert peaks[0] < peaks[1] < peaks[2]
    # peak location tends to zero frequency at criticality
    _, res = full_spectrum(1.000625, nu)
    assert abs(nu[np.argmax(res.t_p)]) <= 0.05
    assert res.diverged.any()


def test_normalization_invariant_under_grid_refinement():
    for points in (801, 1601, 3201):
        params, cavity = fig_cavity(lam=0.5)
        sysm = linear_system(params, decoupled(cavity), RotationAngles(0.0, 0.0))
        res = transmission(sysm, default_nu_grid(-3, 3, points))
        assert res.t_p.max() == pytest.approx(1.0, abs=1e-6)


def test_first_order_peak_splitting():
    # lam = 1, Gamma_b = 0.05: single central peak below h_c, two peaks at
    # ~ +-2 lam just above.
    hc = h_critical(1.0, 0.05)
    nu = default_nu_grid(-3, 3, 6001)
    _, below = full_spectrum(1.0, nu, h=hc - 1e-3)
    peaks_below = below.nu[find_peaks(below.t_p, prominence=0.05 * np.nanmax(below.t_p))[0]]
    assert len(peaks_below) == 1
    _, above = full_spectrum(1.0, nu, h=hc + 5e-3)
    peaks_above = above.nu[find_peaks(above.t_p, prominence=0.05 * np.nanmax(above.t_p))[0]]
    assert len(peaks_above) == 2
    assert sorted(peaks_above) == pytest.approx([-2.0, 2.0], rel=0.1)


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa_a=0.0, kappa_b=1.0, delta_a=1.0, delta_b=0.0, lambda_a=1.0, lambda_b=1.0)


def per_point_transmission(sysm, nu, threshold=DIVERGENT_COND):
    """Oracle: one cond / solve (or lstsq when ill conditioned) per nu."""
    m = drift_matrix(sysm)
    kb = sysm.cavity.kappa_b
    rhs = np.zeros(6, dtype=complex)
    rhs[2] = np.sqrt(2.0 * kb)
    t_p, diverged = np.empty(len(nu)), np.zeros(len(nu), dtype=bool)
    for i, v in enumerate(nu):
        mat = -1j * v * np.eye(6) - m
        cond = np.linalg.cond(mat)
        if np.isfinite(cond) and cond <= threshold:
            sol = np.linalg.solve(mat, rhs)
        else:
            diverged[i] = True
            sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        t_p[i] = abs(np.sqrt(2.0 * kb) * sol[2]) ** 2 / 4.0
    return t_p, diverged


@pytest.mark.parametrize("lam", [0.6, 1.000625])
def test_transmission_matches_per_point_solves(lam):
    params, cavity = fig_cavity(lam=lam)
    sysm = linear_system(params, cavity, rotation_angles(selected_branch(params)))
    nu = default_nu_grid(-3, 3, 3001)
    res = transmission(sysm, nu)
    t_p, diverged = per_point_transmission(sysm, nu)
    assert np.array_equal(res.diverged, diverged)
    assert diverged.any() == (lam == 1.000625)
    assert np.allclose(res.t_p, t_p, rtol=1e-12, atol=0.0)


def test_transmission_flags_exactly_the_points_above_the_threshold(monkeypatch):
    # With the threshold at the median condition number, half the grid takes
    # the least-squares branch; both branches must match the per-point rule.
    from dlmg import spectrum

    params, cavity = fig_cavity(lam=0.6)
    sysm = linear_system(params, cavity, rotation_angles(selected_branch(params)))
    nu = default_nu_grid(-3, 3, 301)
    m = drift_matrix(sysm)
    threshold = float(np.median([np.linalg.cond(-1j * v * np.eye(6) - m) for v in nu]))
    monkeypatch.setattr(spectrum, "DIVERGENT_COND", threshold)
    res = transmission(sysm, nu)
    t_p, diverged = per_point_transmission(sysm, nu, threshold)
    assert 0 < diverged.sum() < len(nu)
    assert np.array_equal(res.diverged, diverged)
    assert np.allclose(res.t_p, t_p, rtol=1e-12, atol=0.0)


def test_transmission_per_point_fallback_on_lapack_failure(monkeypatch):
    # A LAPACK failure in the batched condition numbers reroutes every point
    # through the per-point path, with the same classification.
    params, cavity = fig_cavity(lam=1.000625)
    sysm = linear_system(params, cavity, rotation_angles(selected_branch(params)))
    nu = default_nu_grid(-3, 3, 301)
    batched = transmission(sysm, nu)
    real_cond = np.linalg.cond

    def cond(mat, *args):
        if np.ndim(mat) > 2:
            raise np.linalg.LinAlgError("forced")
        return real_cond(mat, *args)

    monkeypatch.setattr(np.linalg, "cond", cond)
    fallback = transmission(sysm, nu)
    assert np.array_equal(fallback.diverged, batched.diverged)
    assert fallback.diverged.any()
    assert np.allclose(fallback.t_p, batched.t_p, rtol=1e-12, atol=0.0)

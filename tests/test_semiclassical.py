"""Mean-field flow, fixed points, stability, and critical parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dlmg.hp import PHASE_BROKEN, PHASE_NORMAL, eigenvalues
from dlmg.models import LMGParams
from dlmg.semiclassical import (
    BROKEN_MINUS,
    BROKEN_PLUS,
    NORMAL,
    STABILITY_THRESHOLD,
    BlochState,
    critical_points,
    fixed_points,
    flow,
    h_critical,
    lambda_critical,
    normal_phase_selected,
    selected_branch,
)


def params(h=1.0, lam=1.0, gb=0.2, ga=0.01, n=100):
    return LMGParams(n_atoms=n, h=h, lam=lam, Gamma_a=ga, Gamma_b=gb)


def broken_plus(p):
    return {f.branch: f for f in fixed_points(p)}[BROKEN_PLUS]


def test_north_pole_always_fixed():
    for h, lam, gb in [(1.0, 0.5, 0.2), (-0.3, 1.2, 0.1), (0.0, 2.0, 0.3)]:
        d = flow(params(h=h, lam=lam, gb=gb), BlochState(0.0, 0.0, 1.0))
        assert np.max(np.abs(d)) == 0.0


def test_flow_matches_closed_form():
    p = params(h=0.7, lam=1.3, gb=0.25)
    s = BlochState(0.3, -0.2, np.sqrt(1 - 0.09 - 0.04))
    dx, dy, dz = flow(p, s)
    assert dx == pytest.approx(2 * 0.7 * s.y - 0.25 * s.z * s.x, abs=1e-15)
    assert dy == pytest.approx(-2 * 0.7 * s.x + 2 * 1.3 * s.z * s.x - 0.25 * s.z * s.y, abs=1e-15)
    assert dz == pytest.approx(-2 * 1.3 * s.x * s.y + 0.25 * (s.x**2 + s.y**2), abs=1e-15)


def test_radial_direction_conserved():
    # d(x^2+y^2+z^2)/dt = 0 identically: check at 1000 random states.
    rng = np.random.default_rng(9)
    p = params(h=0.9, lam=1.7, gb=0.3)
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        s = BlochState(*v)
        d = np.array(flow(p, s))
        assert abs(2.0 * v @ d) <= 1e-12


def test_broken_fixed_point_values():
    # Frozen from the closed forms at h=1, lam=2, Gamma_b=0.2.
    p = params(lam=2.0)
    fp = broken_plus(p)
    assert fp.aux_Lambda == pytest.approx(3.98997487, abs=1e-8)
    assert fp.state.z == pytest.approx(0.50125, abs=1e-5)
    assert fp.state.x == pytest.approx(0.86422, abs=1e-5)
    assert fp.state.y == pytest.approx(0.04332, abs=1e-5)
    # flow residual is the independent check of the closed forms
    assert np.max(np.abs(flow(p, fp.state))) <= 1e-12
    assert fp.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_subnormal_field_gives_finite_fixed_points():
    # y = (Gamma_b / 2h) x z overflowed to inf for 0 < |h| < 2.2e-308, and the
    # stability check of the broken pair raised on it.
    p = params(h=2.2e-311, lam=1.0, gb=0.5)
    fps = fixed_points(p)
    assert [f.branch for f in fps] == [NORMAL, BROKEN_PLUS, BROKEN_MINUS]
    for f in fps:
        assert np.all(np.isfinite(f.state.as_array()))
        assert np.max(np.abs(flow(p, f.state))) <= 1e-12
    assert selected_branch(p).branch == NORMAL


def test_broken_pair_symmetry():
    p = params(lam=1.8)
    fps = {f.branch: f for f in fixed_points(p)}
    plus, minus = fps[BROKEN_PLUS].state, fps[BROKEN_MINUS].state
    assert minus.x == -plus.x and minus.y == -plus.y and minus.z == plus.z


def test_normal_only_below_critical():
    p = params(lam=0.5)
    fps = fixed_points(p)
    assert [f.branch for f in fps] == [NORMAL]
    assert fps[0].stable


def test_normal_unstable_above_critical():
    p = params(lam=2.0)
    fps = {f.branch: f for f in fixed_points(p)}
    assert not fps[NORMAL].stable
    assert fps[BROKEN_PLUS].stable and fps[BROKEN_MINUS].stable


def test_negative_field_only_normal_stable():
    p = params(h=-0.5, lam=1.0)
    fps = fixed_points(p)
    stable = [f for f in fps if f.stable]
    assert len(stable) == 1 and stable[0].branch == NORMAL


def test_bistable_window_both_stable():
    gb, lam = 0.2, 1.0
    hc = h_critical(lam, gb)
    p = params(h=0.5 * hc, lam=lam, gb=gb)
    fps = {f.branch: f for f in fixed_points(p)}
    assert fps[NORMAL].stable
    assert fps[BROKEN_PLUS].stable
    # the selected physical branch in the window is the normal one
    assert selected_branch(p).branch == NORMAL
    assert normal_phase_selected(p)


def test_critical_points_values():
    cp = critical_points(params(h=1.0, lam=1.0, gb=0.2))
    assert cp.lambda_c == pytest.approx(1.01, abs=1e-14)
    assert cp.h_c == pytest.approx(0.010102, abs=1e-6)
    assert cp.lambda_prime == 1.0
    assert cp.lambda_dprime == pytest.approx((0.04 + 2.0) / np.sqrt(4.04), rel=1e-12)


def test_critical_points_dissipation_free_limit():
    cp = critical_points(params(h=1.3, lam=1.0, gb=0.0))
    assert cp.lambda_c == pytest.approx(1.3, abs=1e-15)
    assert cp.h_c == 0.0


def test_critical_points_domain_errors():
    with pytest.raises(ValueError):
        critical_points(params(h=-1.0))
    with pytest.raises(ValueError):
        critical_points(params(h=1.0, lam=0.1, gb=0.2))
    with pytest.raises(ValueError):
        lambda_critical(0.0, 0.2)
    with pytest.raises(ValueError):
        h_critical(0.1, 0.2)


def test_bifurcation_exactness():
    gb = 0.2
    lam_c = lambda_critical(1.0, gb)
    # no broken branch just below, a tiny one just above
    below = fixed_points(params(lam=lam_c * (1 - 1e-9), gb=gb))
    assert [f.branch for f in below] == [NORMAL]
    above = {f.branch: f for f in fixed_points(params(lam=lam_c * (1 + 1e-9), gb=gb))}
    assert abs(above[BROKEN_PLUS].state.x) <= 1e-4


def test_broken_branch_omitted_when_lambda_big_complex():
    # lam < Gamma_b makes the auxiliary interaction scale complex.
    p = params(h=0.01, lam=0.1, gb=0.2)
    assert [f.branch for f in fixed_points(p)] == [NORMAL]


def test_first_order_jump():
    # Z_ss jumps discontinuously from 1 to 2h/Lam across h_c.
    lam, gb = 1.0, 0.2
    hc = h_critical(lam, gb)
    below = selected_branch(params(h=hc * 0.99, lam=lam, gb=gb))
    above = selected_branch(params(h=hc * 1.01, lam=lam, gb=gb))
    assert below.branch == NORMAL and below.state.z == 1.0
    assert above.branch == BROKEN_PLUS
    lam_big = above.aux_Lambda
    jump = abs(1.0 - 2.0 * (hc * 1.01) / lam_big)
    assert abs(below.state.z - above.state.z) == pytest.approx(jump, abs=1e-12)
    assert jump > 0.9  # near-total collapse of Z_ss at h_c ~ 0


def integrate(p, s0, t_end, tol):
    """(200, 3) states of the mean-field flow from the unit vector ``s0`` over [0, t_end]."""
    sol = solve_ivp(lambda _, v: flow(p, BlochState(*v)), (0.0, t_end), s0.as_array(),
                    method="RK45", t_eval=np.linspace(0.0, t_end, 200), rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.y.T


def test_integrate_constant_at_fixed_point():
    p = params(lam=0.7)
    states = integrate(p, BlochState(0.0, 0.0, 1.0), t_end=20.0, tol=1e-11)
    assert np.max(np.abs(states - np.array([0.0, 0.0, 1.0]))) <= 1e-9


def test_integrate_converges_to_broken_branch():
    p = params(lam=2.0)
    fp = broken_plus(p)
    eps = 1e-3
    s0 = BlochState(eps, 0.0, np.sqrt(1.0 - eps**2))
    states = integrate(p, s0, t_end=200.0, tol=1e-11)
    final = states[-1]
    assert np.max(np.abs(final - fp.state.as_array())) <= 1e-6
    # norm conserved along the way
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_integrate_basin_of_north_pole():
    p = params(lam=0.5)
    rng = np.random.default_rng(20)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] < -0.95:  # avoid starting at the antipodal unstable point
            v[2] = abs(v[2])
            v /= np.linalg.norm(v)
        states = integrate(p, BlochState(*v), t_end=300.0, tol=1e-10)
        assert np.max(np.abs(states[-1] - np.array([0.0, 0.0, 1.0]))) <= 1e-6


def tangent_jacobian(p, s, step=1e-3):
    """2x2 Jacobian of ``flow`` at ``s`` on the sphere's tangent plane, by central differences.

    The flow is quadratic, so central differences are exact up to rounding at
    any step; a large step keeps that rounding far below the 1e-6 tolerances.
    """
    n = s.as_array()
    f = lambda v: np.array(flow(p, BlochState(*v)))
    jac = np.column_stack([(f(n + step * e) - f(n - step * e)) / (2.0 * step) for e in np.eye(3)])
    tangent = np.linalg.svd(n[None, :])[2][1:]  # orthonormal rows orthogonal to n
    return tangent @ jac @ tangent.T


def closed_form_pair(p, fp):
    pair = eigenvalues(p, PHASE_NORMAL if fp.branch == NORMAL else PHASE_BROKEN)
    return np.array([pair.mu_plus, pair.mu_minus])


def test_closed_form_spectrum_matches_finite_difference_jacobian():
    # Every fixed point of a grid with h < 0, Gamma_b = 0, the bistable window
    # 0 < h < h_c and lam just above Gamma_b: the closed-form pair is the
    # spectrum of the numerically linearized flow, and the labels follow it.
    cases = [(h, lam, gb) for gb in (0.0, 0.2, 0.5) for h in (-1.3, -0.4, 0.03, 0.37, 1.0, 1.7)
             for lam in (0.1, 0.55, 0.93, 1.41, 2.3)]
    for gb in (0.2, 0.5):
        cases += [(h, gb * (1 + 1e-4), gb) for h in (-0.7, 0.02, 0.3)]
        cases += [(0.5 * h_critical(lam, gb), lam, gb) for lam in (0.55, 0.93, 1.41)]
    seen = {"h<0": 0, "gb=0": 0, "bistable": 0, "lam>~gb": 0, "labels": 0}
    for h, lam, gb in cases:
        p = params(h=h, lam=lam, gb=gb)
        fps = fixed_points(p)
        for fp in fps:
            numeric = np.linalg.eigvals(tangent_jacobian(p, fp.state))
            closed = closed_form_pair(p, fp)
            err = min(np.max(np.abs(closed - numeric)), np.max(np.abs(closed - numeric[::-1])))
            assert err <= 1e-6, (h, lam, gb, fp.branch, closed, numeric)
            if abs(np.max(closed.real)) > 1e-6:
                assert fp.stable == (np.max(numeric.real) < STABILITY_THRESHOLD), (h, lam, gb)
                seen["labels"] += 1
        seen["h<0"] += h < 0
        seen["gb=0"] += gb == 0
        seen["bistable"] += sum(f.stable for f in fps) == 3 and h > 0
        seen["lam>~gb"] += gb > 0 and lam < gb * (1 + 1e-3) and len(fps) == 3
    assert min(seen.values()) > 0, seen


@settings(max_examples=300)
@given(h=st.floats(-2.5, 2.5), lam=st.floats(0.0, 2.5), gb=st.floats(0.0, 0.5))
def test_broken_pair_shares_one_spectrum(h, lam, gb):
    # Why selected_branch needs no fallback: broken_minus is the image of
    # broken_plus under the symmetry (x, y, z) -> (-x, -y, z) of the flow, so
    # it is never the only stable point.
    p = params(h=h, lam=lam, gb=gb)
    assert selected_branch(p).branch != BROKEN_MINUS
    fps = {f.branch: f for f in fixed_points(p)}
    if BROKEN_PLUS not in fps:
        return
    plus, minus = fps[BROKEN_PLUS], fps[BROKEN_MINUS]
    assert plus.stable == minus.stable
    # The pair is the spectrum of both points: compare trace and determinant,
    # which stay well conditioned where the two eigenvalues meet.
    closed = closed_form_pair(p, plus)
    for fp in (plus, minus):
        tangent = tangent_jacobian(p, fp.state)
        scale = 1.0 + np.max(np.abs(closed))
        assert abs(np.trace(tangent) - closed.sum()) <= 1e-9 * scale
        assert abs(np.linalg.det(tangent) - closed.prod()) <= 1e-9 * scale**2

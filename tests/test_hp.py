"""Holstein-Primakoff coefficients, eigenvalues, and second-moment flow.

The moment flow is pinned by a truncated-Fock oracle: the linearized master
equation is assembled on a Fock space and the (n, Re m, Im m) drift matrix is
extracted numerically from it, independently of the hard-coded closed form.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dlmg.hp import (
    EigenPair,
    HPCoefficients,
    MomentState,
    NoStableGaussianState,
    PHASE_BROKEN,
    PHASE_NORMAL,
    eigenvalues,
    evolve_moments,
    first_moment_matrix,
    hp_coefficients,
    moment_drift,
    moment_steady_state,
    rotation_angles,
)
from dlmg.models import LMGParams
from dlmg.semiclassical import (
    BROKEN_PLUS,
    NORMAL,
    critical_points,
    fixed_points,
    lambda_critical,
    selected_branch,
)


def params(h=1.0, lam=1.0, ga=0.01, gb=0.2):
    return LMGParams(n_atoms=100, h=h, lam=lam, Gamma_a=ga, Gamma_b=gb)


def branch(p, name):
    return {f.branch: f for f in fixed_points(p)}[name]


# -- truncated-Fock oracle -------------------------------------------------------


def fock_liouvillian(c_, cutoff):
    """Sparse Liouvillian of the linearized master equation, Fock cutoff basis."""
    d = cutoff + 1
    c = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr").astype(complex)
    cd = c.conj().T.tocsr()
    ident = sp.identity(d, dtype=complex, format="csr")

    spre = lambda a: sp.kron(a, ident)
    spost = lambda a: sp.kron(ident, a.T)

    h = c_.a1 * cd @ c + c_.a2 * (c @ c + cd @ cd) + 1j * c_.a3 * (cd @ cd - c @ c)
    lv = -1j * (spre(h) - spost(h))

    def dissip(a):
        ad = a.conj().T.tocsr()
        return 2 * sp.kron(a, ad.T) - spre(ad @ a) - spost((ad @ a))

    lv = lv + c_.gp * dissip(cd) + c_.gm * dissip(c)
    c2, cd2 = (c @ c).tocsr(), (cd @ cd).tocsr()
    term_p = 2 * sp.kron(c, c.T) + 2 * sp.kron(cd, cd.T) - spre(c2 + cd2) - spost(c2 + cd2)
    term_m = -2 * sp.kron(c, c.T) + 2 * sp.kron(cd, cd.T) - spre(-c2 + cd2) - spost(-c2 + cd2)
    lv = lv + c_.gps * term_p - 1j * c_.gms * term_m
    return lv.tocsr(), c.toarray(), cd.toarray()


def fock_moment_drift(c_, cutoff=60, seed=7):
    """Extract (F, g) of the (n, Re m, Im m) flow from the Fock Liouvillian."""
    d = cutoff + 1
    lv, c, cd = fock_liouvillian(c_, cutoff)
    rng = np.random.default_rng(seed)

    def moments(rho):
        n = np.trace(cd @ c @ rho).real
        m = np.trace(c @ c @ rho)
        return np.array([n, m.real, m.imag, 1.0])

    rows_in, rows_out = [], []
    for _ in range(8):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi[6:] *= np.exp(-np.arange(d - 6))  # keep occupation far below cutoff
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        drho = (lv @ rho.reshape(-1)).reshape(d, d)
        rows_in.append(moments(rho))
        dm = np.trace(c @ c @ drho)
        rows_out.append([np.trace(cd @ c @ drho).real, dm.real, dm.imag])
    sol, *_ = np.linalg.lstsq(np.array(rows_in), np.array(rows_out), rcond=None)
    fg = sol.T
    return fg[:, :3], fg[:, 3]


# -- coefficients ------------------------------------------------------------------


def test_normal_phase_coefficients_frozen():
    p = params(lam=0.5)
    c = hp_coefficients(p, branch(p, NORMAL))
    assert (c.a1, c.a2, c.a3) == (1.5, -0.25, 0.0)
    assert c.gp == pytest.approx(0.01, abs=1e-15)
    assert c.gm == pytest.approx(0.21, abs=1e-15)
    assert c.gps == pytest.approx(0.01, abs=1e-15)
    assert c.gms == 0.0
    assert c.phase == PHASE_NORMAL


def test_broken_phase_large_coupling_limits():
    # At lam = 100 the exact rates sit (1 -+ h/lam)^2 ~ 2% off the asymptote;
    # their mean converges quadratically.
    p = params(lam=100.0)
    c = hp_coefficients(p, branch(p, BROKEN_PLUS))
    assert 0.99 <= c.a1 / (2.0 * p.lam) <= 1.01
    assert abs(c.a2) <= 0.05 * p.lam and abs(c.a3) <= 0.05 * p.lam
    assert c.gp == pytest.approx(p.Gamma_b / 4.0, rel=0.021)
    assert c.gm == pytest.approx(p.Gamma_b / 4.0, rel=0.021)
    assert 0.5 * (c.gp + c.gm) == pytest.approx(p.Gamma_b / 4.0, rel=2e-3)
    assert c.gps == pytest.approx(-p.Gamma_b / 4.0, rel=0.05)
    far = params(lam=1000.0)
    cf = hp_coefficients(far, branch(far, BROKEN_PLUS))
    assert cf.gp == pytest.approx(far.Gamma_b / 4.0, rel=3e-3)
    assert cf.gm == pytest.approx(far.Gamma_b / 4.0, rel=3e-3)


def test_broken_phase_dissipation_free():
    p = params(lam=1.5, ga=0.0, gb=0.0)
    # Gamma_b = 0 keeps the broken branch purely Hamiltonian.
    fp = branch(LMGParams(n_atoms=100, h=1.0, lam=1.5, Gamma_a=0.0, Gamma_b=0.0), BROKEN_PLUS)
    c = hp_coefficients(p, fp)
    assert c.a3 == 0.0 and c.gms == 0.0
    assert c.gp == 0.0 and c.gm == 0.0 and c.gps == 0.0


def test_broken_coefficients_require_supercritical():
    p = params(lam=0.8)
    fake = branch(params(lam=1.5), BROKEN_PLUS)
    with pytest.raises(ValueError):
        hp_coefficients(p, fake)


def test_coefficients_invariant_under_branch_swap():
    from dlmg.semiclassical import BROKEN_MINUS

    p = params(lam=1.6)
    fps = {f.branch: f for f in fixed_points(p)}
    assert hp_coefficients(p, fps[BROKEN_PLUS]) == hp_coefficients(p, fps[BROKEN_MINUS])


def test_rotation_angles_match_fixed_point():
    p = params(lam=1.7)
    fp = branch(p, BROKEN_PLUS)
    ang = rotation_angles(fp)
    vec = np.array([
        np.sin(ang.theta) * np.cos(ang.phi),
        np.sin(ang.theta) * np.sin(ang.phi),
        np.cos(ang.theta),
    ])
    assert np.max(np.abs(vec - fp.state.as_array())) <= 1e-12


# -- eigenvalues -------------------------------------------------------------------


def test_eigenvalues_normal_at_zero_coupling():
    pair = eigenvalues(params(lam=0.0), PHASE_NORMAL)
    assert pair.mu_plus == pytest.approx(-0.2 + 2j, abs=1e-14)
    assert pair.mu_minus == pytest.approx(-0.2 - 2j, abs=1e-14)


def test_eigenvalues_at_critical_point():
    lam_c = lambda_critical(1.0, 0.2)
    pair = eigenvalues(params(lam=lam_c), PHASE_NORMAL)
    assert abs(pair.mu_minus) <= 1e-10
    assert pair.mu_plus == pytest.approx(-0.4, abs=1e-10)


def test_eigenvalue_imaginary_parts_vanish_between_markers():
    cp = critical_points(params())
    inside = eigenvalues(params(lam=0.5 * (cp.lambda_prime + cp.lambda_c)), PHASE_NORMAL)
    assert inside.mu_plus.imag == 0.0 and inside.mu_minus.imag == 0.0
    below = eigenvalues(params(lam=cp.lambda_prime - 1e-3), PHASE_NORMAL)
    assert abs(below.mu_plus.imag) > 0
    # between lambda_c and lambda'' the broken eigenvalues stay real
    mid = eigenvalues(params(lam=0.5 * (cp.lambda_c + cp.lambda_dprime)), PHASE_BROKEN)
    assert mid.mu_plus.imag == 0.0
    above = eigenvalues(params(lam=cp.lambda_dprime + 1e-3), PHASE_BROKEN)
    assert abs(above.mu_plus.imag) > 0


def test_square_root_scaling_above_lambda_dprime():
    cp = critical_points(params())
    eps = np.logspace(-4, -2, 9)
    ims = np.array([
        eigenvalues(params(lam=cp.lambda_dprime + e), PHASE_BROKEN).mu_plus.imag for e in eps
    ])
    slope = np.polyfit(np.log(eps), np.log(ims), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_eigenvalues_match_first_moment_matrix_on_grid():
    # 200-point (h, lam) grid spanning both phases.
    hs = np.linspace(0.4, 1.6, 10)
    lams = np.linspace(0.05, 4.0, 20)
    checked = 0
    for h in hs:
        for lam in lams:
            p = params(h=h, lam=lam)
            lam_c = lambda_critical(h, p.Gamma_b)
            if lam <= lam_c:
                fp = branch(p, NORMAL)
                pair = eigenvalues(p, PHASE_NORMAL)
            else:
                fp = branch(p, BROKEN_PLUS)
                pair = eigenvalues(p, PHASE_BROKEN)
            mat = first_moment_matrix(hp_coefficients(p, fp))
            numeric = np.linalg.eigvals(mat)
            closed = np.array([pair.mu_plus, pair.mu_minus])
            # match as sets
            err = min(
                max(abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1])),
                max(abs(closed[0] - numeric[1]), abs(closed[1] - numeric[0])),
            )
            assert err <= 1e-10, (h, lam, err)
            checked += 1
    assert checked == 200


def test_critical_slowing_down():
    lam_c = lambda_critical(1.0, 0.2)
    below = eigenvalues(params(lam=lam_c - 1e-6), PHASE_NORMAL)
    above = eigenvalues(params(lam=lam_c + 1e-6), PHASE_BROKEN)
    slow_below = max(below.mu_plus.real, below.mu_minus.real)
    slow_above = max(above.mu_plus.real, above.mu_minus.real)
    assert abs(slow_below) <= 1e-3
    assert abs(slow_above) <= 1e-3


def test_first_order_eigenvalue_jump():
    # lam = 1, Gamma_b = 0.2: real and distinct just below h_c, complex pair above.
    gb = 0.2
    hc = critical_points(params(h=0.5, lam=1.0, gb=gb)).h_c
    below = eigenvalues(params(h=hc - 1e-4, lam=1.0, gb=gb), PHASE_NORMAL)
    assert below.mu_plus.imag == 0.0 and below.mu_minus.imag == 0.0
    assert abs(below.mu_plus - below.mu_minus) > 1e-3
    above = eigenvalues(params(h=hc + 1e-4, lam=1.0, gb=gb), PHASE_BROKEN)
    assert abs(above.mu_plus.imag) > 0.1
    assert above.mu_plus == pytest.approx(np.conj(above.mu_minus), abs=1e-12)


def test_strong_dissipation_regime_flagged():
    gb_threshold = np.sqrt(2.0) * 1.0 * np.sqrt(1.0 + np.sqrt(5.0))
    assert eigenvalues(params(gb=0.5 * gb_threshold), PHASE_NORMAL).regime_validated
    strong = eigenvalues(
        LMGParams(n_atoms=100, h=1.0, lam=3.0, Gamma_a=0.0, Gamma_b=1.05 * gb_threshold),
        PHASE_NORMAL,
    )
    assert not strong.regime_validated


# -- moment flow --------------------------------------------------------------------


def test_moment_flow_vacuum_decay():
    c = HPCoefficients(a1=1.7, a2=0.0, a3=0.0, gp=0.0, gm=0.3, gps=0.0, gms=0.0, phase="normal")
    f, g = moment_drift(c)
    dn, dre_m, dim_m = f @ np.array([1.0, 0.0, 0.0]) + g
    assert dn == pytest.approx(-2.0 * 0.3 * 1.0, abs=1e-14)
    assert dre_m == 0.0 and dim_m == 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    h=st.floats(-2.0, 2.0),
    lam=st.floats(0.0, 2.0),
    ga=st.floats(0.0, 0.5),
    gb=st.floats(0.0, 0.5),
)
def test_steady_moments_are_physical_where_the_flow_is_stable(h, lam, ga, gb):
    # Wherever the second-moment flow about the selected branch has an
    # attracting fixed point, that fixed point is a Gaussian state.
    p = params(h=h, lam=lam, ga=ga, gb=gb)
    try:
        s = moment_steady_state(hp_coefficients(p, selected_branch(p)))
    except NoStableGaussianState:
        return
    assert s.n >= 0.0
    assert s.n * (s.n + 1.0) >= abs(s.m) ** 2


@pytest.mark.parametrize("seed", range(10))
def test_moment_drift_matches_fock_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    while True:
        c = HPCoefficients(
            a1=rng.uniform(-2, 2),
            a2=rng.uniform(-0.5, 0.5),
            a3=rng.uniform(-0.5, 0.5),
            gp=rng.uniform(0.0, 0.1),
            gm=rng.uniform(0.2, 0.8),
            gps=rng.uniform(-0.1, 0.1),
            gms=rng.uniform(-0.1, 0.1),
            phase="normal",
        )
        if np.max(np.linalg.eigvals(moment_drift(c)[0]).real) < -1e-3:
            break
    f_sym, g_sym = moment_drift(c)
    f_num, g_num = fock_moment_drift(c, cutoff=60, seed=seed)
    scale = max(np.max(np.abs(f_sym)), np.max(np.abs(g_sym)), 1.0)
    assert np.max(np.abs(f_sym - f_num)) / scale <= 1e-6
    assert np.max(np.abs(g_sym - g_num)) / scale <= 1e-6


def test_moment_steady_state_vacuum_when_driving_absent():
    c = HPCoefficients(a1=1.2, a2=0.0, a3=0.0, gp=0.0, gm=0.4, gps=0.0, gms=0.0, phase="normal")
    ss = moment_steady_state(c)
    assert ss.n == pytest.approx(0.0, abs=1e-14)
    assert abs(ss.m) <= 1e-14


def test_moment_steady_state_vs_fock_oracle():
    # h=1, lam=0.9 normal phase; Fock steady state at cutoff 60 agrees to 1e-4.
    p = params(lam=0.9)
    c = hp_coefficients(p, branch(p, NORMAL))
    ss = moment_steady_state(c)
    lv, cm, cdm = fock_liouvillian(c, 60)
    d = 61
    lv = lv.tolil()
    tr = np.arange(d) * (d + 1)
    lv.rows[0] = list(tr)
    lv.data[0] = [1.0 + 0j] * d
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    from scipy.sparse.linalg import splu

    rho = splu(lv.tocsc()).solve(rhs).reshape(d, d)
    n_oracle = np.trace(cdm @ cm @ rho).real
    m_oracle = np.trace(cm @ cm @ rho)
    assert ss.n == pytest.approx(n_oracle, rel=1e-4)
    assert ss.m == pytest.approx(m_oracle, rel=1e-4)


def test_moment_steady_state_refuses_at_criticality():
    lam_c = lambda_critical(1.0, 0.2)
    p = params(lam=lam_c)
    c = hp_coefficients(p, branch(p, NORMAL))
    with pytest.raises(NoStableGaussianState):
        moment_steady_state(c)


def test_evolve_moments_constant_at_steady_state():
    p = params(lam=0.7)
    c = hp_coefficients(p, branch(p, NORMAL))
    ss = moment_steady_state(c)
    out = evolve_moments(c, ss, np.linspace(0, 30, 7))
    for s in out:
        assert s.n == pytest.approx(ss.n, abs=1e-10)
        assert s.m == pytest.approx(ss.m, abs=1e-10)


def test_evolve_moments_matches_eigendecomposition():
    p = params(lam=0.5)
    c = hp_coefficients(p, branch(p, NORMAL))
    f, g = moment_drift(c)
    times = np.linspace(0.0, 12.0, 25)
    out = evolve_moments(c, MomentState(n=0.0, m=0.0), times)
    u_ss = np.linalg.solve(f, -g)
    evals, vecs = np.linalg.eig(f)
    coef = np.linalg.solve(vecs, -u_ss)
    for t, s in zip(times, out):
        u_exact = (u_ss + vecs @ (coef * np.exp(evals * t))).real
        assert np.allclose([s.n, s.m.real, s.m.imag], u_exact, atol=1e-10)


def test_trajectory_moments_stay_physical():
    # Gaussian physicality n(n+1) >= |m|^2 along trajectories from vacuum.
    for lam in (0.3, 0.9, 1.5, 2.0):
        p = params(lam=lam)
        name = NORMAL if lam <= lambda_critical(1.0, 0.2) else BROKEN_PLUS
        c = hp_coefficients(p, branch(p, name))
        out = evolve_moments(c, MomentState(n=0.0, m=0.0), np.linspace(0, 20, 81))
        for s in out:
            assert s.physical(tol=1e-9)
            # Wick closure keeps <(c+c)^2> - n >= n^2
            quart = 2 * s.n**2 + abs(s.m) ** 2 + s.n
            assert quart - s.n >= s.n**2 - 1e-9


def test_eigenpair_dataclass():
    pair = EigenPair(mu_plus=1j, mu_minus=-1j)
    assert pair.regime_validated

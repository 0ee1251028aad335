"""Effective-parameter map and the three LMG model builders."""

import numpy as np
import pytest

from dlmg.models import (
    ConfigError,
    LMGParams,
    MicroscopicParams,
    build_conventional,
    build_gamma0,
    build_isotropic,
    dissipation_rate,
    effective_params,
    interaction_strength,
    model_params_from_config,
    parse_config_text,
)
from dlmg.operators import build_algebra
from dlmg.semiclassical import BlochState, fixed_points, flow

TWO_PI = 2.0 * np.pi


def micro_for_coupling(lam_a, delta_a, kappa_a, n_atoms=4):
    """Microscopic parameters engineered to give the requested lambda_a
    (alpha_a = 1, beta_a = 0) with the full detuning pinned to delta_a."""
    delta_r = 1000.0
    rabi = 2.0 * delta_r * lam_a / np.sqrt(n_atoms)  # g_r0 = 1
    m = MicroscopicParams(
        rabi_r1=rabi,
        g_r0=1.0,
        delta_r=delta_r,
        delta_s=1000.0,
        kappa_a=kappa_a,
        delta_a_raw=delta_a - n_atoms * 0.5 * 1.0 / delta_r,
        n_atoms=n_atoms,
    )
    return m


def test_interaction_and_dissipation_rates_khz_example():
    # lambda_a = 2pi 250 kHz, delta_a = 2pi 2.5 MHz, kappa_a = 2pi 25 kHz
    lam = TWO_PI * 250.0
    delta = TWO_PI * 2500.0
    kappa = TWO_PI * 25.0
    lam_big = interaction_strength(lam, delta, kappa)
    gamma = dissipation_rate(lam, delta, kappa)
    assert lam_big / TWO_PI == pytest.approx(25.0, rel=2e-4)
    assert gamma / TWO_PI == pytest.approx(0.25, rel=2e-4)


def test_rates_resonant_mode_b_example():
    # lambda_b = 2pi 25 kHz, delta_b = 0, kappa_b = 2pi 250 kHz
    lam = TWO_PI * 25.0
    kappa = TWO_PI * 250.0
    assert interaction_strength(lam, 0.0, kappa) == 0.0
    assert dissipation_rate(lam, 0.0, kappa) / TWO_PI == pytest.approx(2.5, rel=1e-12)


def test_effective_params_full_map():
    m = micro_for_coupling(lam_a=TWO_PI * 250.0, delta_a=TWO_PI * 2500.0, kappa_a=TWO_PI * 25.0)
    eff = effective_params(m)
    assert eff.lambda_a == pytest.approx(TWO_PI * 250.0, rel=1e-12)
    assert eff.alpha_a == pytest.approx(1.0)
    assert eff.beta_a == 0.0
    assert eff.delta_a == pytest.approx(TWO_PI * 2500.0, rel=1e-12)
    assert eff.Lambda_a / TWO_PI == pytest.approx(25.0, rel=2e-4)
    assert eff.Gamma_a / TWO_PI == pytest.approx(0.25, rel=2e-4)
    # consistency Lambda_i kappa_i = Gamma_i delta_i holds exactly
    assert eff.Lambda_a * m.kappa_a == pytest.approx(eff.Gamma_a * eff.delta_a, rel=1e-12)


def test_effective_params_no_drive():
    m = MicroscopicParams(delta_r=5.0, delta_s=7.0, omega_1=2.2, omega_1_prime=1.9)
    eff = effective_params(m)
    assert eff.omega_0 == pytest.approx(0.3)
    assert eff.h == pytest.approx(-0.15)
    assert eff.lambda_a == 0.0 and eff.lambda_b == 0.0
    assert eff.Lambda_a == 0.0 and eff.Gamma_b == 0.0


def test_effective_params_rejects_zero_detuning():
    with pytest.raises(ValueError):
        MicroscopicParams(delta_r=0.0)


def test_dispersive_shifts_reported_but_informational():
    m = MicroscopicParams(g_s1=2.0, g_r0=1.0, delta_r=10.0, delta_s=20.0, n_atoms=3)
    eff = effective_params(m)
    assert eff.delta_a_plus == pytest.approx(0.5 * (4.0 / 20.0 + 1.0 / 10.0))
    assert eff.delta_a_minus == pytest.approx(0.5 * (4.0 / 20.0 - 1.0 / 10.0))
    # the collective shift enters the full detuning
    assert eff.delta_a == pytest.approx(3 * eff.delta_a_plus)


# -- builders -------------------------------------------------------------------


def test_gamma0_free_field_limit():
    params = LMGParams(n_atoms=2, h=1.0, lam=0.0, Gamma_a=0.0, Gamma_b=0.0)
    spec = build_gamma0(params, build_algebra(2))
    assert np.allclose(spec.hamiltonian.toarray(), np.diag([-2.0, 0.0, 2.0]))


def test_gamma0_commutes_with_jx_at_zero_field():
    params = LMGParams(n_atoms=4, h=0.0, lam=1.0, Gamma_a=0.0, Gamma_b=0.0)
    alg = build_algebra(4)
    spec = build_gamma0(params, alg)
    h, jx = spec.hamiltonian.toarray(), alg.jx.toarray()
    assert np.max(np.abs(h @ jx - jx @ h)) <= 1e-12


def test_gamma0_dissipator_structure():
    params = LMGParams(n_atoms=5, h=1.0, lam=0.7, Gamma_a=0.03, Gamma_b=0.4)
    alg = build_algebra(5)
    spec = build_gamma0(params, alg)
    rates = [r for r, _ in spec.dissipators]
    assert rates == pytest.approx([0.03 / 5, 0.4 / 5])
    assert np.allclose(spec.dissipators[0][1].toarray(), 2.0 * alg.jx.toarray())
    assert np.allclose(spec.dissipators[1][1].toarray(), alg.jplus.toarray())


def test_gamma0_ground_state_nondegenerate_below_critical():
    params = LMGParams(n_atoms=50, h=1.0, lam=1.0, Gamma_a=0.01, Gamma_b=0.2)
    spec = build_gamma0(params, build_algebra(50))
    h = spec.hamiltonian.toarray()
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    evals = np.linalg.eigvalsh(h)
    assert evals[1] - evals[0] > 1e-6


def test_conventional_hamiltonian_identity():
    # Jx^2 - Jy^2 = (J+^2 + J-^2)/2, verified on the 3x3 representation.
    params = LMGParams(n_atoms=2, h=0.0, lam=1.0, gamma_anisotropy=-1, Gamma_a=0.1, Gamma_b=0.1)
    alg = build_algebra(2)
    spec = build_conventional(params, alg, alpha=0.6, beta=0.6)
    jp, jm = alg.jplus.toarray(), alg.jminus.toarray()
    expected = -(2.0 * 1.0 / 2.0) * 0.5 * (jp @ jp + jm @ jm)
    assert np.max(np.abs(spec.hamiltonian.toarray() - expected)) <= 1e-13


def test_conventional_symmetric_split():
    params = LMGParams(n_atoms=3, h=0.5, lam=0.8, gamma_anisotropy=-1, Gamma_a=0.2, Gamma_b=0.2)
    spec = build_conventional(params, build_algebra(3), alpha=0.5, beta=0.5)
    rates = [r for r, _ in spec.dissipators]
    assert rates[0] == pytest.approx(rates[1])
    # Gamma = 2 Gamma_a; channel rate Gamma alpha^2 / N
    assert rates[0] == pytest.approx(2.0 * 0.2 * 0.25 / 3)


def test_parity_symmetry_conventional_and_isotropic():
    alg = build_algebra(10)
    parity = np.diag(np.exp(1j * np.pi * np.diag(alg.jz.toarray())))
    pc = LMGParams(n_atoms=10, h=0.7, lam=1.1, gamma_anisotropy=-1, Gamma_a=0.1, Gamma_b=0.1)
    pi = LMGParams(n_atoms=10, h=0.7, lam=1.1, gamma_anisotropy=1, Gamma_a=0.1, Gamma_b=0.2)
    for spec in (
        build_conventional(pc, alg, alpha=0.7, beta=0.3),
        build_isotropic(pi, alg),
    ):
        h = spec.hamiltonian.toarray()
        assert np.max(np.abs(h @ parity - parity @ h)) <= 1e-12


def test_isotropic_commutes_with_jz():
    alg = build_algebra(8)
    params = LMGParams(n_atoms=8, h=0.9, lam=1.3, gamma_anisotropy=1, Gamma_a=0.05, Gamma_b=0.1)
    spec = build_isotropic(params, alg)
    h, jz = spec.hamiltonian.toarray(), alg.jz.toarray()
    assert np.max(np.abs(h @ jz - jz @ h)) <= 1e-12


def test_isotropic_casimir_form_at_zero_field():
    alg = build_algebra(2)
    params = LMGParams(n_atoms=2, h=0.0, lam=1.0, gamma_anisotropy=1, Gamma_a=0.0, Gamma_b=0.0)
    spec = build_isotropic(params, alg)
    j2 = alg.jx.toarray() @ alg.jx.toarray() + alg.jy.toarray() @ alg.jy.toarray() + alg.jz.toarray() @ alg.jz.toarray()
    expected = -(2.0 / 2.0) * (j2 - alg.jz.toarray() @ alg.jz.toarray())
    assert np.max(np.abs(spec.hamiltonian.toarray() - expected)) <= 1e-13


def test_isotropic_matches_gamma0_at_zero_coupling():
    alg = build_algebra(4)
    pi = LMGParams(n_atoms=4, h=1.0, lam=0.0, gamma_anisotropy=1, Gamma_a=0.0, Gamma_b=0.2)
    p0 = LMGParams(n_atoms=4, h=1.0, lam=0.0, gamma_anisotropy=0, Gamma_a=0.0, Gamma_b=0.2)
    hi = build_isotropic(pi, alg).hamiltonian.toarray()
    h0 = build_gamma0(p0, alg).hamiltonian.toarray()
    assert np.max(np.abs(hi - h0)) <= 1e-14


def test_isotropic_steady_state_is_diagonal():
    # [H, Jz] = 0 and the J+- dissipators only pump populations, so
    # coherences decay away entirely.
    from dlmg.lindblad import steady_state

    alg = build_algebra(12)
    params = LMGParams(n_atoms=12, h=0.8, lam=1.1, gamma_anisotropy=1, Gamma_a=0.07, Gamma_b=0.15)
    rho = steady_state(build_isotropic(params, alg), tol=1e-12)
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) <= 1e-12


def test_conventional_steady_state_parity_symmetric():
    from dlmg.lindblad import steady_state

    alg = build_algebra(12)
    params = LMGParams(n_atoms=12, h=0.8, lam=1.1, gamma_anisotropy=-1, Gamma_a=0.1, Gamma_b=0.1)
    rho = steady_state(build_conventional(params, alg, alpha=0.8, beta=0.6), tol=1e-12)
    parity = np.diag(np.exp(1j * np.pi * np.diag(alg.jz.toarray())))
    assert np.max(np.abs(parity @ rho - rho @ parity)) <= 1e-10


def test_builders_reject_mismatch():
    alg = build_algebra(3)
    params = LMGParams(n_atoms=4, h=1.0, lam=1.0, Gamma_a=0.0, Gamma_b=0.1)
    with pytest.raises(ValueError):
        build_gamma0(params, alg)
    with pytest.raises(ValueError):
        build_isotropic(params, alg)


def test_scale_covariance():
    base = LMGParams(n_atoms=6, h=0.8, lam=1.4, Gamma_a=0.02, Gamma_b=0.3)
    s = 2.5
    scaled = LMGParams(n_atoms=6, h=s * 0.8, lam=s * 1.4, Gamma_a=s * 0.02, Gamma_b=s * 0.3)
    alg = build_algebra(6)
    spec_b, spec_s = build_gamma0(base, alg), build_gamma0(scaled, alg)
    assert np.max(np.abs(spec_s.hamiltonian.toarray() - s * spec_b.hamiltonian.toarray())) <= 1e-12
    for (rb, _), (rs, _) in zip(spec_b.dissipators, spec_s.dissipators):
        assert rs == pytest.approx(s * rb)
    # fixed points of the mean-field flow are invariant under the rescaling
    for fb, fs in zip(fixed_points(base), fixed_points(scaled)):
        assert fb.branch == fs.branch
        assert fb.state.as_array() == pytest.approx(fs.state.as_array(), abs=1e-12)
    state = BlochState(0.3, -0.4, np.sqrt(1 - 0.25))
    assert np.allclose(np.array(flow(scaled, state)), s * np.array(flow(base, state)))


# -- config ---------------------------------------------------------------------


def test_parse_config_text():
    cfg = parse_config_text("# comment\nmodel = gamma0\n\nn_atoms = 10 # inline\nh = 1.0\n")
    assert cfg == {"model": "gamma0", "n_atoms": "10", "h": "1.0"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_model_params_from_config():
    params = model_params_from_config(
        {"model": "gamma0", "n_atoms": "20", "h": "1.0", "lambda": "1.5",
         "gamma_a": "0.01", "gamma_b": "0.2"}
    )
    assert params.n_atoms == 20
    assert params.lam == 1.5
    assert params.gamma_anisotropy == 0


def test_model_params_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        model_params_from_config({"n_atoms": "4", "lambdah": "1.0"})
    with pytest.raises(ConfigError):
        model_params_from_config({"n_atoms": "4", "micro.bogus": "1.0"})


def test_model_params_micro_block():
    lam_a = 2.0
    delta_r = 1000.0
    n = 9
    cfg = {
        "model": "gamma0",
        "micro.rabi_r1": str(2.0 * delta_r * lam_a / np.sqrt(n)),
        "micro.g_r0": "1.0",
        "micro.delta_r": str(delta_r),
        "micro.delta_s": "1000.0",
        "micro.kappa_a": "0.5",
        "micro.delta_a_raw": str(8.0 - n * 0.5 / delta_r),
        "micro.n_atoms": str(n),
    }
    params = model_params_from_config(cfg)
    assert params.n_atoms == n
    # lam = 2 alpha^2 Lambda_a with alpha = 1
    assert params.lam == pytest.approx(2.0 * interaction_strength(lam_a, 8.0, 0.5), rel=1e-12)
    assert params.Gamma_a == pytest.approx(dissipation_rate(lam_a, 8.0, 0.5), rel=1e-12)


def test_lmg_params_validation():
    with pytest.raises(ValueError):
        LMGParams(n_atoms=0, h=1.0, lam=1.0)
    with pytest.raises(ValueError):
        LMGParams(n_atoms=2, h=1.0, lam=1.0, gamma_anisotropy=2)
    with pytest.raises(ValueError):
        LMGParams(n_atoms=2, h=1.0, lam=1.0, Gamma_a=-0.1)

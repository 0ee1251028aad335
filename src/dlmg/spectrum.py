"""Probe transmission spectrum of the linearized atom-cavity system.

The full route keeps both cavity modes: the linearized Hamiltonian for the
coupled (c, a, b) system is

    H = delta_c c+c + delta_a a+a + delta_b b+b
        + (A c + A* c+)(a + a+) + (B1 c + B2 c+) b + (B1* c+ + B2* c) b+,

with the coefficients evaluated at the mean-field angles (theta, phi):

    delta_c = 2 h cos(t) + sin(t) [2 lam X cos(p) - Gamma_b (Y cos(p) - X sin(p))]
    A  = (lambda_a / 2) [(1 + cos t) + (1 - cos t)(sin p + i cos p)^2]
    B1 = (lambda_b / 2) (1 - cos t)(sin p + i cos p)^2
    B2 = (lambda_b / 2) (1 + cos t)

where X = sin(t) cos(p), Y = sin(t) sin(p).  (The Gamma_b term vanishes
identically when (theta, phi) point at a fixed point; it is kept for
completeness.)  Dissipation enters only through the cavity decay rates
kappa_a, kappa_b: the effective atomic rates of the adiabatic spin model
emerge from eliminating the cavities and must not be double counted here.

A weak probe drives mode b at frequency nu (rotating frame).  The co-rotating
first-moment response follows from one 6x6 linear solve per nu; the
transmitted amplitude is the intracavity leakage sqrt(2 kappa_b) <b>, and the
intensity is normalized so an empty (atom-decoupled) cavity peaks at exactly
one at nu = delta_b.

The approximate closed form, valid in the normal phase for
|nu| << delta_a, kappa_b:

    T_p(nu) ~= | 1 - (i Gamma_b / (4 sqrt(h(h-lam))))
                 * [ (sqrt h + sqrt(h-lam))^2 / (nu - 2 sqrt(h(h-lam)) + i Gamma_b)
                   - (sqrt h - sqrt(h-lam))^2 / (nu + 2 sqrt(h(h-lam)) + i Gamma_b) ] |^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hp import RotationAngles
from .models import LMGParams, dissipation_rate
from .semiclassical import normal_phase_selected

# Condition-number threshold above which a response point is flagged divergent.
DIVERGENT_COND = 1e12


@dataclass(frozen=True)
class CavityParams:
    """Microscopic cavity parameters entering the linearized atom-cavity model."""

    kappa_a: float
    kappa_b: float
    delta_a: float
    delta_b: float
    lambda_a: float
    lambda_b: float

    def __post_init__(self):
        if self.kappa_a <= 0 or self.kappa_b <= 0:
            raise ValueError("cavity decay rates must be > 0")

    @property
    def gamma_a(self) -> float:
        return dissipation_rate(self.lambda_a, self.delta_a, self.kappa_a)

    @property
    def gamma_b(self) -> float:
        return dissipation_rate(self.lambda_b, self.delta_b, self.kappa_b)


@dataclass(frozen=True)
class LinearSystem:
    """Coefficients of the linearized atom-cavity Hamiltonian plus cavity context."""

    delta_c: float
    coupA: complex
    b1: complex
    b2: complex
    cavity: CavityParams


@dataclass
class SpectrumResult:
    nu: np.ndarray
    t_p: np.ndarray
    diverged: np.ndarray


def lambda_a_for_coupling(lam: float, kappa_a: float, delta_a: float) -> float:
    """Cavity coupling lambda_a that realizes spin coupling lam = 2 Lambda_a."""
    if lam * delta_a < 0:
        raise ValueError("lam and delta_a must have the same sign")
    return float(np.sqrt(lam * (kappa_a**2 + delta_a**2) / (2.0 * delta_a)))


def lambda_b_for_rate(gamma_b: float, kappa_b: float, delta_b: float) -> float:
    """Cavity coupling lambda_b that realizes collective decay rate gamma_b."""
    return float(np.sqrt(gamma_b * (kappa_b**2 + delta_b**2) / kappa_b))


def fig_cavity(
    lam: float,
    h: float = 1.0,
    gamma_b: float = 0.05,
    kappa_a: float = 0.3,
    delta_a: float = 15.0,
    kappa_b: float = 15.0,
    delta_b: float = 0.0,
) -> tuple:
    """Characteristic spectrum parameter set: cavity couplings derived from
    the requested (lam, gamma_b), effective Gamma_a implied by kappa_a.

    Returns (LMGParams with n_atoms=1 placeholder, CavityParams)."""
    lambda_a = lambda_a_for_coupling(lam, kappa_a, delta_a)
    lambda_b = lambda_b_for_rate(gamma_b, kappa_b, delta_b)
    cavity = CavityParams(
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        delta_a=delta_a,
        delta_b=delta_b,
        lambda_a=lambda_a,
        lambda_b=lambda_b,
    )
    params = LMGParams(
        n_atoms=1,
        h=h,
        lam=lam,
        Gamma_a=cavity.gamma_a,
        Gamma_b=cavity.gamma_b,
    )
    return params, cavity


def linear_system(
    params: LMGParams, cavity: CavityParams, angles: RotationAngles
) -> LinearSystem:
    """Evaluate the linearized atom-cavity coefficients at the given angles."""
    h, lam, gb = params.h, params.lam, params.Gamma_b
    ct, st = np.cos(angles.theta), np.sin(angles.theta)
    sp_, cp_ = np.sin(angles.phi), np.cos(angles.phi)
    x_ss, y_ss = st * cp_, st * sp_

    delta_c = 2.0 * h * ct + st * (
        2.0 * lam * x_ss * cp_ - gb * (y_ss * cp_ - x_ss * sp_)
    )
    phase2 = (sp_ + 1j * cp_) ** 2
    coup_a = 0.5 * cavity.lambda_a * ((1.0 + ct) + (1.0 - ct) * phase2)
    b1 = 0.5 * cavity.lambda_b * (1.0 - ct) * phase2
    b2 = 0.5 * cavity.lambda_b * (1.0 + ct)
    return LinearSystem(delta_c=delta_c, coupA=complex(coup_a), b1=complex(b1), b2=complex(b2), cavity=cavity)


def drift_matrix(sys: LinearSystem) -> np.ndarray:
    """6x6 drift of (<a>, <a+>, <b>, <b+>, <c>, <c+>) under the linear model."""
    cav = sys.cavity
    a_, b1, b2 = sys.coupA, sys.b1, sys.b2
    dc = sys.delta_c
    ka, kb = cav.kappa_a, cav.kappa_b
    da, db = cav.delta_a, cav.delta_b
    m = np.zeros((6, 6), dtype=complex)
    # a, a+
    m[0, 0] = -(ka + 1j * da)
    m[0, 4] = -1j * a_
    m[0, 5] = -1j * np.conj(a_)
    m[1, 1] = -(ka - 1j * da)
    m[1, 4] = 1j * a_
    m[1, 5] = 1j * np.conj(a_)
    # b, b+
    m[2, 2] = -(kb + 1j * db)
    m[2, 4] = -1j * np.conj(b2)
    m[2, 5] = -1j * np.conj(b1)
    m[3, 3] = -(kb - 1j * db)
    m[3, 4] = 1j * b1
    m[3, 5] = 1j * b2
    # c, c+
    m[4, 0] = -1j * np.conj(a_)
    m[4, 1] = -1j * np.conj(a_)
    m[4, 2] = -1j * b2
    m[4, 3] = -1j * np.conj(b1)
    m[4, 4] = -1j * dc
    m[5, 0] = 1j * a_
    m[5, 1] = 1j * a_
    m[5, 2] = 1j * b1
    m[5, 3] = 1j * np.conj(b2)
    m[5, 5] = 1j * dc
    return m


def transmission(sys: LinearSystem, nu_grid=None) -> SpectrumResult:
    """Probe transmission spectrum from the full 6-variable linear response.

    The probe amplitude is set to one; it cancels in the normalized
    intensity, since the response is linear.
    """
    if nu_grid is None:
        nu_grid = default_nu_grid()
    nu_grid = np.asarray(nu_grid, dtype=float)
    if not np.all(np.isfinite(nu_grid)):
        raise ValueError("nu grid must be finite")

    kb = sys.cavity.kappa_b
    rhs = np.zeros(6, dtype=complex)
    rhs[2] = np.sqrt(2.0 * kb)

    mats = -1j * nu_grid[:, None, None] * np.eye(6) - drift_matrix(sys)
    try:
        cond = np.linalg.cond(mats)
        diverged = ~np.isfinite(cond) | (cond > DIVERGENT_COND)
        sols = np.empty((len(nu_grid), 6), dtype=complex)
        sols[~diverged] = np.linalg.solve(mats[~diverged], rhs)
        for i in np.flatnonzero(diverged):
            sols[i] = np.linalg.lstsq(mats[i], rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        # LAPACK gave up on some point; classify the points one by one.
        sols, diverged = map(np.array, zip(*(_solve_point(mat, rhs) for mat in mats)))
    # Normalized by the empty-cavity peak intensity (at nu = delta_b),
    # |sqrt(2 kb) * sqrt(2 kb) / kb|^2 = 4.
    t_p = np.abs(np.sqrt(2.0 * kb) * sols[:, 2]) ** 2 / 4.0
    return SpectrumResult(nu=nu_grid, t_p=t_p, diverged=diverged)


def _solve_point(mat: np.ndarray, rhs: np.ndarray):
    """(response, diverged) at one nu: a solve if well conditioned, else least squares."""
    try:
        cond = np.linalg.cond(mat)
        if np.isfinite(cond) and cond <= DIVERGENT_COND:
            return np.linalg.solve(mat, rhs), False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(mat, rhs, rcond=None)[0], True


def transmission_approx(params: LMGParams, nu_grid=None) -> SpectrumResult:
    """Normal-phase closed-form transmission approximation.

    Valid for the normal phase with |nu| << delta_a, kappa_b; raises outside
    the normal phase.  Written with the pole weights W +- Omega (W = 2h - lam,
    Omega = 2 sqrt(h(h - lam))), which for h > 0 equals the textbook
    (sqrt(h) +- sqrt(h - lam))^2 form and continues correctly to h < 0.
    """
    if not normal_phase_selected(params):
        raise ValueError("closed-form transmission applies to the normal phase only")
    if nu_grid is None:
        nu_grid = default_nu_grid()
    nu = np.asarray(nu_grid, dtype=float)
    h, lam, gb = params.h, params.lam, params.Gamma_b
    w = 2.0 * h - lam
    omega = 2.0 * np.emath.sqrt(h * (h - lam))
    if abs(omega) < 1e-12:
        # Degenerate double pole at lam = h.
        amp = 1.0 - 1j * gb * (1.0 / (nu + 1j * gb) + w / (nu + 1j * gb) ** 2)
    else:
        amp = 1.0 - (1j * gb / (2.0 * omega)) * (
            (w + omega) / ((nu - omega) + 1j * gb)
            - (w - omega) / ((nu + omega) + 1j * gb)
        )
    return SpectrumResult(
        nu=nu,
        t_p=np.abs(amp) ** 2,
        diverged=np.zeros(nu.shape, dtype=bool),
    )


def default_nu_grid(lo: float = -3.0, hi: float = 3.0, points: int = 2001) -> np.ndarray:
    """Default probe grid: resolves features of width ~2 Gamma_b at the canonical normalized-parameter scale."""
    return np.linspace(lo, hi, points)

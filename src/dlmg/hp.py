"""Holstein-Primakoff linearization about the mean-field state.

For N >> 1 the collective spin is expanded about the selected semiclassical
fixed point: the frame is rotated so the mean spin points along +z (rotation
R = exp(i u.J theta) about u = (-sin phi, cos phi, 0)), and the rotated
operators are bosonized, J'_z = N/2 - c+c, J'_+ ~ sqrt(N) c.  The linearized
master equation has the quadratic Hamiltonian

    H = A1 c+c + A2 (c^2 + c+^2) + i A3 (c+^2 - c^2)

plus dissipators with rates Gamma_+/- (D[c+], D[c]) and two anomalous
two-photon conversion terms with rates Gamma_+^s, Gamma_-^s.  The phase
(normal vs broken) selects one closed-form coefficient set.

Second moments (n = <c+c>, m = <c^2>) close on themselves.  Working in the
real variables u = (n, Re m, Im m) and writing gamma = Gamma_- - Gamma_+,
the flow du/dt = F u + g has

    F = [[-2 gamma,  4 A3,     -4 A2   ],
         [ 4 A3,    -2 gamma,   2 A1   ],
         [-4 A2,    -2 A1,     -2 gamma]],
    g = (2 Gamma_+,  2 A3 - 2 Gamma_+^s,  -2 A2 + 2 Gamma_-^s).

This matrix is derived once by operator algebra from the linearized master
equation (the quadratic generator maps {1, c+c, c^2, c+^2} to itself) and is
pinned against a truncated-Fock simulation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LMGParams
from .semiclassical import (
    BROKEN_MINUS,
    BROKEN_PLUS,
    NORMAL,
    FixedPoint,
    lambda_critical,
    linear_spectrum,
)

PHASE_NORMAL = "normal"
PHASE_BROKEN = "broken"


class NoStableGaussianState(RuntimeError):
    """The linearized flow has no attracting fixed point (marginal or unstable spectrum)."""


@dataclass(frozen=True)
class RotationAngles:
    """Spherical angles of the mean-field state: (sin t cos p, sin t sin p, cos t)."""

    theta: float
    phi: float


@dataclass(frozen=True)
class HPCoefficients:
    """Quadratic-generator coefficients for one phase."""

    a1: float
    a2: float
    a3: float
    gp: float
    gm: float
    gps: float
    gms: float
    phase: str


@dataclass(frozen=True)
class MomentState:
    """Gaussian second moments n = <c+c> and m = <c^2>."""

    n: float
    m: complex

    def physical(self, tol: float = 1e-9) -> bool:
        return self.n >= -tol and self.n * (self.n + 1.0) >= abs(self.m) ** 2 - tol


@dataclass(frozen=True)
class EigenPair:
    """First-moment drift eigenvalues; ``regime_validated`` is False in the
    strong-dissipation regime Gamma_b > sqrt(2) h sqrt(1 + sqrt 5), which the
    closed forms cover but which is outside the validated parameter range."""

    mu_plus: complex
    mu_minus: complex
    regime_validated: bool = True


def rotation_angles(fp: FixedPoint) -> RotationAngles:
    """Angles of the fixed-point Bloch vector (theta from +z, phi azimuthal)."""
    s = fp.state
    theta = float(np.arccos(np.clip(s.z, -1.0, 1.0)))
    phi = float(np.arctan2(s.y, s.x)) if (abs(s.x) > 0 or abs(s.y) > 0) else 0.0
    return RotationAngles(theta=theta, phi=phi)


def hp_coefficients(params: LMGParams, fp: FixedPoint) -> HPCoefficients:
    """Closed-form linearization coefficients for the branch of ``fp``."""
    h, lam, ga, gb = params.h, params.lam, params.Gamma_a, params.Gamma_b
    if fp.branch == NORMAL:
        return HPCoefficients(
            a1=2.0 * h - lam,
            a2=-lam / 2.0,
            a3=0.0,
            gp=ga,
            gm=ga + gb,
            gps=ga,
            gms=0.0,
            phase=PHASE_NORMAL,
        )
    if fp.branch not in (BROKEN_PLUS, BROKEN_MINUS):
        raise ValueError(f"unknown branch {fp.branch!r}")
    if h <= 0 or lam < gb or lam <= lambda_critical(h, gb):
        raise ValueError("broken-phase coefficients require lam > lambda_c (h > 0)")

    r = np.sqrt(lam**2 - gb**2)
    big = lam + r
    lam_c = lambda_critical(h, gb)
    a1 = (-4.0 * h**2 - 3.0 * gb**2 + 4.0 * lam * big) / (2.0 * big)
    a2 = ((gb**2 - 4.0 * h**2) * r - 4.0 * h * gb**2) / (4.0 * lam * big)
    a3 = gb * (-4.0 * h**2 + gb**2 + 4.0 * h * r) / (4.0 * lam * big)
    common = ga * (4.0 * h**2 + gb**2) / (2.0 * lam * big)
    gp = common + gb * (big - 2.0 * h) ** 2 / (4.0 * big**2)
    gm = common + gb * (big + 2.0 * h) ** 2 / (4.0 * big**2)
    gps = ga * ((4.0 * h**2 - gb**2) * r + 4.0 * h * gb**2) / (2.0 * lam**2 * big) + gb * r * (
        4.0 * h * lam_c - 2.0 * lam * big
    ) / (4.0 * lam * big**2)
    gms = ga * gb * (gb**2 - 4.0 * h**2 + 4.0 * h * r) / (2.0 * lam**2 * big) + gb**2 * (
        big**2 - 4.0 * h**2
    ) / (4.0 * lam * big**2)
    return HPCoefficients(a1=a1, a2=a2, a3=a3, gp=gp, gm=gm, gps=gps, gms=gms, phase=PHASE_BROKEN)


def eigenvalues(params: LMGParams, phase: str) -> EigenPair:
    """Closed-form first-moment eigenvalues for the given phase.

    Evaluated with the principal branch of the complex square root, so the
    labels mu_plus / mu_minus follow the +/- of the closed forms: in the
    normal phase above lambda' = h the root turns imaginary and mu_minus is
    the slow (critical) eigenvalue.  They are the spectrum of the mean-field
    flow linearized at the phase's fixed point, the one that labels its
    stability in :func:`semiclassical.fixed_points`.
    """
    h, gb = params.h, params.Gamma_b
    validated = not (h > 0 and gb > np.sqrt(2.0) * h * np.sqrt(1.0 + np.sqrt(5.0)))
    if phase == PHASE_NORMAL:
        branch = NORMAL
    elif phase == PHASE_BROKEN:
        if params.lam < gb or params.lam == 0.0:  # Lam = 0 at lam = Gamma_b = 0
            raise ValueError("broken phase requires lam >= Gamma_b and lam > 0")
        branch = BROKEN_PLUS
    else:
        raise ValueError(f"phase must be 'normal' or 'broken', got {phase!r}")
    mu_plus, mu_minus = linear_spectrum(params, branch)
    return EigenPair(mu_plus=mu_plus, mu_minus=mu_minus, regime_validated=validated)


def first_moment_matrix(coeffs: HPCoefficients) -> np.ndarray:
    """Drift matrix of (<c>, <c+>): d/dt (c, c+) = M (c, c+)."""
    gamma = coeffs.gm - coeffs.gp
    a23 = coeffs.a2 + 1j * coeffs.a3
    return np.array(
        [
            [-1j * coeffs.a1 - gamma, -2j * a23],
            [2j * np.conj(a23), 1j * coeffs.a1 - gamma],
        ]
    )


def moment_drift(coeffs: HPCoefficients):
    """(F, g) of the real second-moment flow du/dt = F u + g, u = (n, Re m, Im m)."""
    a1, a2, a3 = coeffs.a1, coeffs.a2, coeffs.a3
    gamma = coeffs.gm - coeffs.gp
    f = np.array(
        [
            [-2.0 * gamma, 4.0 * a3, -4.0 * a2],
            [4.0 * a3, -2.0 * gamma, 2.0 * a1],
            [-4.0 * a2, -2.0 * a1, -2.0 * gamma],
        ]
    )
    g = np.array(
        [
            2.0 * coeffs.gp,
            2.0 * a3 - 2.0 * coeffs.gps,
            -2.0 * a2 + 2.0 * coeffs.gms,
        ]
    )
    return f, g


def moment_steady_state(coeffs: HPCoefficients) -> MomentState:
    """Unique attracting fixed point of the second-moment flow.

    Raises :class:`NoStableGaussianState` when the spectrum is marginal or
    unstable, which happens exactly at the critical points.
    """
    f, g = moment_drift(coeffs)
    if np.max(np.linalg.eigvals(f).real) >= -1e-12:
        raise NoStableGaussianState(
            "no stable Gaussian steady state: linearized spectrum is not attracting"
        )
    try:
        u = np.linalg.solve(f, -g)
    except np.linalg.LinAlgError:
        raise NoStableGaussianState(
            "no stable Gaussian steady state: singular second-moment drift"
        ) from None
    return MomentState(n=float(u[0]), m=complex(u[1] + 1j * u[2]))


def evolve_moments(coeffs: HPCoefficients, s0: MomentState, times) -> list:
    """Propagate the second moments through ``times`` (exact affine propagation).

    Uses the matrix exponential of the 4x4 augmented system, which stays exact
    even when the drift is singular (criticality).
    """
    from scipy.linalg import expm

    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    f, g = moment_drift(coeffs)
    aug = np.zeros((4, 4))
    aug[:3, :3] = f
    aug[:3, 3] = g
    u = np.array([s0.n, s0.m.real, s0.m.imag, 1.0])
    out = []
    t_prev = times[0]
    if t_prev != 0.0:
        u = expm(aug * t_prev) @ u
    out.append(MomentState(n=float(u[0]), m=complex(u[1] + 1j * u[2])))
    for t in times[1:]:
        u = expm(aug * (t - t_prev)) @ u
        t_prev = t
        out.append(MomentState(n=float(u[0]), m=complex(u[1] + 1j * u[2])))
    return out

"""Mean-field Bloch dynamics of the gamma = 0 model.

Factorizing second moments in the master equation gives the closed flow

    dX/dt = 2 h Y - Gamma_b Z X
    dY/dt = -2 h X + 2 lam Z X - Gamma_b Z Y
    dZ/dt = -2 lam X Y + Gamma_b (X^2 + Y^2)

on the unit sphere X^2 + Y^2 + Z^2 = 1 (conserved identically).  The normal
fixed point (0, 0, 1) always exists; above the critical coupling
lam_c = h + Gamma_b^2 / (4h) a symmetry-broken pair appears with

    Z = 2h / Lam,  X = +-sqrt((Lam^2 - 4h^2) / (2 lam Lam)),  Y = (Gamma_b / 2h) X Z,
    Lam = lam + sqrt(lam^2 - Gamma_b^2).

Varying h at fixed lam instead, the broken pair exists for
h_c < h < (lam + sqrt(lam^2 - Gamma_b^2)) / 2 with
h_c = (lam - sqrt(lam^2 - Gamma_b^2)) / 2, and the window 0 < h < h_c is
bistable; the normal branch is the selected one there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LMGParams

STABILITY_THRESHOLD = -1e-12

NORMAL = "normal"
BROKEN_PLUS = "broken_plus"
BROKEN_MINUS = "broken_minus"


@dataclass(frozen=True)
class BlochState:
    """Normalized mean-spin components (<Jx>, <Jy>, <Jz>) / j."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


@dataclass(frozen=True)
class FixedPoint:
    state: BlochState
    branch: str
    stable: bool
    aux_Lambda: float


@dataclass(frozen=True)
class CriticalPoints:
    """Critical parameters: lambda_c, h_c, and the eigenvalue markers lambda', lambda''."""

    lambda_c: float
    h_c: float
    lambda_prime: float
    lambda_dprime: float


def _require_gamma0(params: LMGParams):
    if params.gamma_anisotropy != 0:
        raise ValueError("semiclassical analysis applies to the gamma=0 model only")


def flow(params: LMGParams, s: BlochState) -> tuple:
    """Right-hand side (dX, dY, dZ) of the mean-field equations."""
    _require_gamma0(params)
    h, lam, gb = params.h, params.lam, params.Gamma_b
    x, y, z = s.x, s.y, s.z
    return (
        2.0 * h * y - gb * z * x,
        -2.0 * h * x + 2.0 * lam * z * x - gb * z * y,
        -2.0 * lam * x * y + gb * (x**2 + y**2),
    )


def flow_jacobian(params: LMGParams, s: BlochState) -> np.ndarray:
    h, lam, gb = params.h, params.lam, params.Gamma_b
    x, y, z = s.x, s.y, s.z
    return np.array(
        [
            [-gb * z, 2.0 * h, -gb * x],
            [-2.0 * h + 2.0 * lam * z, -gb * z, 2.0 * lam * x - gb * y],
            [-2.0 * lam * y + 2.0 * gb * x, -2.0 * lam * x + 2.0 * gb * y, 0.0],
        ]
    )


def _tangent_eigenvalues(params: LMGParams, s: BlochState) -> np.ndarray:
    """Eigenvalues of the flow Jacobian restricted to the sphere's tangent plane.

    The radial direction is neutral by construction and must not pollute the
    stability call.
    """
    n = s.as_array()
    n = n / np.linalg.norm(n)
    # Orthonormal tangent basis.
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    basis = np.column_stack([t1, t2])
    jac = flow_jacobian(params, s)
    return np.linalg.eigvals(basis.T @ jac @ basis)


def is_stable(params: LMGParams, s: BlochState) -> bool:
    eig = _tangent_eigenvalues(params, s)
    return bool(np.max(eig.real) < STABILITY_THRESHOLD)


def _lambda_big(lam: float, gamma_b: float) -> float:
    return lam + np.sqrt(lam**2 - gamma_b**2)


def fixed_points(params: LMGParams) -> list:
    """All mean-field fixed points with branch and stability labels.

    The normal branch is always returned.  The broken pair is returned
    whenever its closed form is real: lam >= Gamma_b (real Lam),
    Lam^2 > 4 h^2, and h != 0.  In the bistable window 0 < h < h_c both
    families carry stable labels.
    """
    _require_gamma0(params)
    if params.lam < 0:
        raise ValueError("fixed_points requires lam >= 0")
    h, lam, gb = params.h, params.lam, params.Gamma_b

    normal = BlochState(0.0, 0.0, 1.0)
    points = [
        FixedPoint(state=normal, branch=NORMAL, stable=is_stable(params, normal), aux_Lambda=np.nan)
    ]

    if lam < gb:
        # Lam complex: no real broken branch in this regime.
        return points
    lam_big = _lambda_big(lam, gb)
    if h == 0.0 or lam_big**2 <= 4.0 * h**2 or lam == 0.0:
        return points

    z = 2.0 * h / lam_big
    x = np.sqrt((lam_big**2 - 4.0 * h**2) / (2.0 * lam * lam_big))
    y = gb * x / lam_big
    for sign, branch in ((+1.0, BROKEN_PLUS), (-1.0, BROKEN_MINUS)):
        state = BlochState(sign * x, sign * y, z)
        points.append(
            FixedPoint(
                state=state,
                branch=branch,
                stable=is_stable(params, state),
                aux_Lambda=lam_big,
            )
        )
    return points


def selected_branch(params: LMGParams) -> FixedPoint:
    """The physically selected stable branch.

    Normal wherever it is stable (including the bistable window 0 < h < h_c,
    where it is the more stable solution); otherwise broken_plus.
    """
    points = fixed_points(params)
    by_branch = {p.branch: p for p in points}
    normal = by_branch[NORMAL]
    if normal.stable:
        return normal
    if BROKEN_PLUS in by_branch and by_branch[BROKEN_PLUS].stable:
        return by_branch[BROKEN_PLUS]
    # Fall back to whichever point is stable, else the normal branch.
    for p in points:
        if p.stable:
            return p
    return normal


def normal_phase_selected(params: LMGParams) -> bool:
    """True when the selected branch is the normal (north-pole) one."""
    h, lam, gb = params.h, params.lam, params.Gamma_b
    if h <= 0:
        return True
    return 4.0 * h * (lam - h) <= gb**2


def critical_points(params: LMGParams) -> CriticalPoints:
    """Critical coupling lam_c, critical field h_c, and eigenvalue markers.

    lam_c and h_c are those of :func:`lambda_critical` (h > 0) and
    :func:`h_critical` (lam >= Gamma_b).  lambda' = h marks where the
    normal-phase eigenvalues become real; lambda'' = (Gamma_b^2 + 2h^2) /
    sqrt(4 h lam_c) marks where the broken-phase eigenvalues turn complex.
    """
    h, gb = params.h, params.Gamma_b
    lambda_c = lambda_critical(h, gb)
    return CriticalPoints(
        lambda_c=lambda_c,
        h_c=h_critical(params.lam, gb),
        lambda_prime=h,
        lambda_dprime=(gb**2 + 2.0 * h**2) / np.sqrt(4.0 * h * lambda_c),
    )


def lambda_critical(h: float, gamma_b: float) -> float:
    """Critical coupling lam_c = h + Gamma_b^2 / (4h) for h > 0."""
    if h <= 0:
        raise ValueError("lambda_c requires h > 0")
    return h + gamma_b**2 / (4.0 * h)


def h_critical(lam: float, gamma_b: float) -> float:
    """Critical field h_c = (lam - sqrt(lam^2 - Gamma_b^2)) / 2 for lam >= Gamma_b."""
    if lam < gamma_b:
        raise ValueError("h_c requires lam >= Gamma_b")
    return 0.5 * (lam - np.sqrt(lam**2 - gamma_b**2))

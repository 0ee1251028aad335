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

A fixed point is stable when both eigenvalues of the flow linearized on the
sphere's tangent plane have real part below ``STABILITY_THRESHOLD``.  They
are taken in closed form,

    normal:  mu = -Gamma_b +- 2i sqrt(h (h - lam)),
    broken:  mu = -2 Gamma_b h / Lam +- sqrt(2 (2h^2 + Gamma_b^2 - lam Lam)),

one pair for both broken points; ``hp.eigenvalues`` returns the same pair.
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


def _lambda_big(lam: float, gamma_b: float) -> float:
    return lam + np.sqrt(lam**2 - gamma_b**2)


def linear_spectrum(params: LMGParams, branch: str) -> tuple:
    """Closed-form eigenvalues (mu_plus, mu_minus) of the flow linearized at ``branch``.

    Taken on the sphere's tangent plane, with the principal complex square
    root; the broken pair shares one spectrum.
    """
    h, lam, gb = params.h, params.lam, params.Gamma_b
    if branch == NORMAL:
        root = 2j * np.emath.sqrt(h * (h - lam))
        return complex(-gb + root), complex(-gb - root)
    big = _lambda_big(lam, gb)
    root = np.emath.sqrt(2.0 * (2.0 * h**2 + gb**2 - lam * big))
    base = -2.0 * gb * h / big
    return complex(base + root), complex(base - root)


def _stable(params: LMGParams, branch: str) -> bool:
    return max(mu.real for mu in linear_spectrum(params, branch)) < STABILITY_THRESHOLD


def fixed_points(params: LMGParams) -> list:
    """All mean-field fixed points with branch and stability labels.

    The normal branch is always returned.  The broken pair is returned
    whenever its closed form is real: lam >= Gamma_b (real Lam),
    Lam^2 > 4 h^2, and h != 0.  A point is labelled stable when the real
    parts of its closed-form linear spectrum lie below
    ``STABILITY_THRESHOLD``; the broken pair shares one label.  In the
    bistable window 0 < h < h_c both families carry stable labels.
    """
    _require_gamma0(params)
    if params.lam < 0:
        raise ValueError("fixed_points requires lam >= 0")
    h, lam, gb = params.h, params.lam, params.Gamma_b

    normal = BlochState(0.0, 0.0, 1.0)
    points = [
        FixedPoint(state=normal, branch=NORMAL, stable=_stable(params, NORMAL), aux_Lambda=np.nan)
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
    stable = _stable(params, BROKEN_PLUS)
    for sign, branch in ((+1.0, BROKEN_PLUS), (-1.0, BROKEN_MINUS)):
        points.append(
            FixedPoint(
                state=BlochState(sign * x, sign * y, z),
                branch=branch,
                stable=stable,
                aux_Lambda=lam_big,
            )
        )
    return points


def selected_branch(params: LMGParams) -> FixedPoint:
    """The physically selected stable branch.

    Normal wherever it is stable (including the bistable window 0 < h < h_c,
    where it is the more stable solution); otherwise broken_plus if it is
    stable (broken_minus shares its spectrum), else normal.
    """
    by_branch = {p.branch: p for p in fixed_points(params)}
    normal, broken = by_branch[NORMAL], by_branch.get(BROKEN_PLUS)
    if normal.stable or broken is None or not broken.stable:
        return normal
    return broken


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

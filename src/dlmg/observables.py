"""Entanglement diagnostics and the spin Q-function.

Pairwise entanglement of symmetric N-spin states is witnessed by

    C_phi = 1 - (4/N) <Delta J_phi^2> - (4/N^2) <J_phi>^2,
    J_phi = sin(phi) Jx + cos(phi) Jy,

positive iff entangled (for symmetric states).  The rescaled concurrence
C_R = (N-1) * C (pairwise concurrence scaled to survive the thermodynamic
limit) follows from collective second moments through a two-branch closed
form, and equals max over phi of max{0, C_phi}.

Every finite-N diagnostic is a closed form in the eight collective moments
that :func:`moment_operators` names:

- :func:`spin_moments` reads them in a state, :func:`trajectory_moments`
  from the expectations ``evolve`` returns along a trajectory;
- :func:`c_phi`, :func:`witness_peak` (the optimal angle phi*) and
  :func:`rescaled_concurrence` take those moments and N.

The Holstein-Primakoff analogues :func:`hp_c_phi`, :func:`hp_witness_peak`
and :func:`hp_rescaled_concurrence` take the Gaussian moments n = <c+c>,
m = <c^2> of a :class:`hp.MomentState`; fourth moments reduce by Wick
factorization, <(c+c)^2> = 2 n^2 + |m|^2 + n.

The spin Q-function is the overlap of the state with spin coherent states
|theta, phi>.  The coherent-state magnitudes are evaluated in the log domain
from exact integer binomials, so large N cannot overflow, and the overlap is
summed over the coherence diagonals of the state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .hp import MomentState
from .operators import DickeAlgebra, expectation

logger = logging.getLogger(__name__)


@dataclass
class QFunctionGrid:
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray  # shape (len(thetas), len(phis))


def moment_operators(algebra: DickeAlgebra) -> dict:
    """The collective operators whose expectations C_phi and C_R are built from."""
    jx, jy, jz, jp = algebra.jx, algebra.jy, algebra.jz, algebra.jplus
    return {
        "jx": jx,
        "jy": jy,
        "jz": jz,
        "jx2": jx @ jx,
        "jy2": jy @ jy,
        "jz2": jz @ jz,
        "jxjy_sym": jx @ jy + jy @ jx,
        "jp2": jp @ jp,
    }


def _real_moments(values: dict) -> dict:
    """The real parts of the expectations ``values``, but <J+^2> (``"jp2"``) stays complex."""
    return {name: v if name == "jp2" else v.real for name, v in values.items()}


def spin_moments(rho: np.ndarray, algebra: DickeAlgebra) -> dict:
    """The expectations of :func:`moment_operators` in ``rho``, real but for ``"jp2"``."""
    return _real_moments({name: expectation(op, rho)
                          for name, op in moment_operators(algebra).items()})


def trajectory_moments(values: dict, n_spins: int) -> dict:
    """Collective moments and C_R along a trajectory of N = ``n_spins`` spins.

    ``values`` holds the complex expectation values of the operators of
    :func:`moment_operators`, one array of length T each, as
    ``evolve(observables=...)`` returns them.
    The moments are their real parts, but ``"jp2"`` (<J+^2>) stays complex;
    ``"c_r"`` holds the rescaled concurrence at each time.
    """
    moments = _real_moments(values)
    moments["c_r"] = np.array([
        rescaled_concurrence({name: v[k] for name, v in moments.items()}, n_spins)
        for k in range(len(moments["jz"]))
    ])
    return moments


def c_phi(m: dict, n: int, phi):
    """Witness C_phi of the moments ``m`` of N = ``n`` spins (positive = entangled).

    ``phi`` may be one angle or an array of angles.
    """
    s, c = np.sin(phi), np.cos(phi)
    mean = s * m["jx"] + c * m["jy"]
    # Products, not **2: a numpy scalar's square may round apart from an array's.
    second = s * s * m["jx2"] + c * c * m["jy2"] + s * c * m["jxjy_sym"]
    var = second - mean * mean
    return 1.0 - (4.0 / n) * var - (4.0 / n**2) * (mean * mean)


def witness_peak(m: dict, n: int) -> float:
    """The angle phi* in [0, pi) where C_phi of the moments ``m`` peaks.

    C_phi is a quadratic form in (sin phi, cos phi),

        C_phi = 1 + p sin^2 phi + q cos^2 phi + t sin phi cos phi
              = 1 + (p + q)/2 + (q - p)/2 cos 2phi + t/2 sin 2phi,

    with k = 4/N - 4/N^2, p = k <Jx>^2 - 4 <Jx^2>/N, q = k <Jy>^2 - 4 <Jy^2>/N
    and t = 2 k <Jx><Jy> - 4 <JxJy + JyJx>/N, so phi* = atan2(t, q - p) / 2.
    Where <Jx> = <Jy> = 0 this is -arg<J+^2> / 2, the finite-N form of the
    HP optimum of :func:`hp_witness_peak`.
    """
    k = 4.0 / n - 4.0 / n**2
    p = k * m["jx"] * m["jx"] - 4.0 * m["jx2"] / n
    q = k * m["jy"] * m["jy"] - 4.0 * m["jy2"] / n
    t = 2.0 * k * m["jx"] * m["jy"] - 4.0 * m["jxjy_sym"] / n
    return _peak_angle(q - p, t)


def _peak_angle(cos2: float, sin2: float) -> float:
    """The phi in [0, pi) maximizing cos2 cos(2 phi) + sin2 sin(2 phi); 0 if both vanish."""
    # + 0.0 turns -0.0 into 0.0, so that a flat curve gives atan2(0, 0) = 0.
    phi = float(0.5 * np.arctan2(sin2 + 0.0, cos2 + 0.0) % np.pi)
    # A tiny negative angle rounds to pi itself after % pi; pi is the angle 0.
    return 0.0 if phi == np.pi else phi


def rescaled_concurrence(m: dict, n: int) -> float:
    """Rescaled concurrence C_R = (N-1) C from the moments ``m`` of N = ``n`` spins."""
    jz, jz2 = m["jz"], m["jz2"]
    jp2_abs = abs(m["jp2"])
    radicand = (n * (n - 2) + 4.0 * jz2) ** 2 - (4.0 * (n - 1) * jz) ** 2
    root = np.sqrt(max(radicand, 0.0)) / (4.0 * n)
    c1 = jp2_abs / n - (m["jx2"] + m["jy2"]) / n + 0.5
    c2 = n / 4.0 - jz2 / n - root
    e = n / 2.0 - 2.0 * jz2 / n
    f = root + jp2_abs / n
    c_r = 2.0 * max(0.0, c1) if e < f else 2.0 * max(0.0, c2)
    if c_r > 1.0 + 1e-9:
        # Not expected for states reachable in this model; keep the value but
        # make the excursion visible.
        logger.warning("rescaled concurrence %.6f exceeds 1", c_r)
    return c_r


# -- Holstein-Primakoff analogues ---------------------------------------------


def hp_c_phi(s: MomentState, phi) -> np.ndarray:
    """Thermodynamic-limit witness C_phi = 2 Re(m e^{2 i phi}) - 2 n."""
    phi = np.asarray(phi, dtype=float)
    return 2.0 * (s.m * np.exp(2j * phi)).real - 2.0 * s.n


def hp_witness_peak(s: MomentState) -> float:
    """The angle phi* in [0, pi) where :func:`hp_c_phi` peaks."""
    # C_phi = 2 Re m cos 2phi - 2 Im m sin 2phi - 2 n peaks at phi* = -arg(m) / 2.
    return _peak_angle(s.m.real, -s.m.imag)


def hp_rescaled_concurrence(s: MomentState) -> float:
    """HP rescaled concurrence C_R from the Gaussian moments alone."""
    n, m_abs = s.n, abs(s.m)
    # Wick closure for the fourth moment: <(c+c)^2> = 2 n^2 + |m|^2 + n.
    quart = 2.0 * n**2 + m_abs**2 + n
    root = np.sqrt(max(quart - n, 0.0))
    c1 = m_abs - n
    c2 = n - root
    e = 2.0 * n
    f = root + m_abs
    return 2.0 * max(0.0, c1) if e < f else 2.0 * max(0.0, c2)


# -- spin Q-function -----------------------------------------------------------


def _coherent_magnitudes(n: int, thetas: np.ndarray) -> np.ndarray:
    """|<j, j - k | theta, phi>| for every theta (rows) and k = 0..N (columns).

    theta = 0 points at the all-up state.  With k = j - m the number of spin
    flips off the top, the component on |j, m> is

        sqrt(binom(N, k)) cos(theta/2)^(N-k) sin(theta/2)^k e^{i k phi},

    evaluated in the log domain so large N cannot overflow; log binom(N, k)
    is the logarithm of the exact integer binomial, rounded once.  Basis
    index i has m = j - i, i.e. k = i directly.  The phase e^{i k phi} is
    left out.
    """
    k = np.arange(n + 1)  # flips off the all-up state; equals the basis index
    half = 0.5 * np.asarray(thetas, dtype=float)[:, None]
    log_binom = np.array([math.log(math.comb(n, i)) for i in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.log(np.abs(np.cos(half)))
        log_s = np.log(np.abs(np.sin(half)))
        # Zero exponents must not multiply -inf logs at the poles theta = 0, pi.
        cos_part = np.where(k == n, 0.0, (n - k) * log_c)
        sin_part = np.where(k == 0, 0.0, k * log_s)
    mags = np.exp(0.5 * log_binom + cos_part + sin_part)
    mags[np.isnan(mags)] = 0.0
    # cos/sin are nonnegative for theta in [0, pi], so no sign bookkeeping.
    return mags


def _coherent_state(n: int, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state |theta, phi> in the m-descending Dicke basis."""
    return _coherent_magnitudes(n, [theta])[0] * np.exp(1j * np.arange(n + 1) * phi)


def spin_qfunction(
    rho: np.ndarray, algebra: DickeAlgebra, thetas, phis
) -> QFunctionGrid:
    """Husimi-style overlap <theta,phi| rho |theta,phi> on the given angle grids.

    With a_k(theta) the magnitudes of :func:`_coherent_magnitudes` and H the
    Hermitian part of rho (whose overlap it is), the overlap is a Fourier
    sum over the coherence diagonals d = 0..N,

        Q(theta, phi) = Re sum_d w_d c_d(theta) e^{i d phi},
        c_d(theta) = sum_k a_k a_{k+d} H_{k,k+d},  w_0 = 1, w_{d>0} = 2,

    so one pass over the diagonals gives every c_d, and one
    (n_theta, N+1) x (N+1, n_phi) product gives the grid.  Any grids work,
    including non-uniform ones and the poles.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if thetas.size == 0 or phis.size == 0:
        raise ValueError("angle grids must be nonempty")
    n = algebra.n_spins
    rho = np.asarray(rho)
    herm = 0.5 * (rho + rho.conj().T)
    mags = _coherent_magnitudes(n, thetas)
    coeffs = np.empty((len(thetas), n + 1), dtype=complex)
    for d in range(n + 1):
        coeffs[:, d] = (mags[:, : n + 1 - d] * mags[:, d:]) @ np.diagonal(herm, d)
    coeffs[:, 1:] *= 2.0
    values = (coeffs @ np.exp(1j * np.outer(np.arange(n + 1), phis))).real
    return QFunctionGrid(thetas=thetas, phis=phis, values=values)


def qfunction_norm(grid: QFunctionGrid, n_atoms: int) -> float:
    """(N+1)/(4 pi) * integral of Q over the sphere (should be 1).

    Trapezoid in phi, midpoint-weighted trapezoid in cos(theta); intended for
    grids that span theta in [0, pi] and phi in [0, 2 pi).
    """
    ct = np.cos(grid.thetas)
    q_phi = np.trapezoid(
        np.column_stack([grid.values, grid.values[:, :1]]),
        x=np.append(grid.phis, grid.phis[0] + 2.0 * np.pi),
        axis=1,
    )
    total = -np.trapezoid(q_phi, x=ct)  # ct decreasing
    return float((n_atoms + 1) / (4.0 * np.pi) * total)

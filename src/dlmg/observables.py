"""Entanglement diagnostics and the spin Q-function.

Pairwise entanglement of symmetric N-spin states is witnessed by

    C_phi = 1 - (4/N) <Delta J_phi^2> - (4/N^2) <J_phi>^2,
    J_phi = sin(phi) Jx + cos(phi) Jy,

positive iff entangled (for symmetric states).  The rescaled concurrence
C_R = (N-1) * C (pairwise concurrence scaled to survive the thermodynamic
limit) follows from collective second moments through a two-branch closed
form, and equals max over phi of max{0, C_phi}.

The Holstein-Primakoff analogues use the Gaussian moments n = <c+c>,
m = <c^2>; fourth moments reduce by Wick factorization,
<(c+c)^2> = 2 n^2 + |m|^2 + n.

The spin Q-function is the overlap of the state with spin coherent states
|theta, phi>, evaluated in the log domain so binomials at N ~ 100 cannot
overflow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .hp import MomentState
from .operators import DickeAlgebra, expectation

logger = logging.getLogger(__name__)


@dataclass
class EntanglementResult:
    phi_grid: np.ndarray
    c_phi: np.ndarray
    c_r: float
    phi_star: float


@dataclass
class QFunctionGrid:
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray  # shape (len(thetas), len(phis))


def _moment_operators(algebra: DickeAlgebra) -> dict:
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


def _second_moments(rho: np.ndarray, algebra: DickeAlgebra) -> dict:
    moments = {name: expectation(op, rho) for name, op in _moment_operators(algebra).items()}
    return {name: v if name == "jp2" else v.real for name, v in moments.items()}


def trajectory_moments(values: dict, n_spins: int) -> dict:
    """Collective moments and C_R along a trajectory of N = ``n_spins`` spins.

    ``values`` holds the complex expectation values of the operators of
    :func:`_moment_operators`, one array of length T each, as
    :func:`expectation_values` or ``evolve(observables=...)`` return them.
    The moments are their real parts, but ``"jp2"`` (<J+^2>) stays complex;
    ``"c_r"`` holds the rescaled concurrence at each time.
    """
    moments = {name: v if name == "jp2" else v.real for name, v in values.items()}
    moments["c_r"] = np.array([
        _rescaled_concurrence_from_moments({name: v[k] for name, v in moments.items()}, n_spins)
        for k in range(len(moments["jz"]))
    ])
    return moments


def c_phi(rho: np.ndarray, algebra: DickeAlgebra, phi: float) -> float:
    """Entanglement witness along quadrature angle phi (positive = entangled)."""
    m = _second_moments(rho, algebra)
    return _c_phi_from_moments(m, algebra.n_spins, phi)


def _c_phi_from_moments(m: dict, n: int, phi: float) -> float:
    s, c = np.sin(phi), np.cos(phi)
    mean = s * m["jx"] + c * m["jy"]
    second = s**2 * m["jx2"] + c**2 * m["jy2"] + s * c * m["jxjy_sym"]
    var = second - mean**2
    return 1.0 - (4.0 / n) * var - (4.0 / n**2) * mean**2


def entanglement_curve(rho: np.ndarray, algebra: DickeAlgebra, n_phi: int = 720) -> EntanglementResult:
    """C_phi over a phi grid plus the rescaled concurrence.

    The optimum phi is located on the (pi-periodic) coarse grid and polished
    by golden-section search to 1e-6.
    """
    moments = _second_moments(rho, algebra)
    n = algebra.n_spins
    phis = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    curve = np.array([_c_phi_from_moments(moments, n, p) for p in phis])

    i_best = int(np.argmax(curve))
    phi_star = float(phis[i_best])
    span = np.pi / n_phi
    phi_star = _golden_max(
        lambda p: _c_phi_from_moments(moments, n, p),
        phi_star - span,
        phi_star + span,
        tol=1e-6,
    )

    c_r = _rescaled_concurrence_from_moments(moments, n)
    return EntanglementResult(phi_grid=phis, c_phi=curve, c_r=c_r, phi_star=phi_star)


def _golden_max(fun, lo: float, hi: float, tol: float) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def rescaled_concurrence(rho: np.ndarray, algebra: DickeAlgebra) -> float:
    """Rescaled concurrence C_R = (N-1) C from collective moments."""
    return _rescaled_concurrence_from_moments(_second_moments(rho, algebra), algebra.n_spins)


def _rescaled_concurrence_from_moments(m: dict, n: int) -> float:
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


def hp_entanglement(s: MomentState, n_phi: int = 720) -> EntanglementResult:
    """HP C_phi curve and rescaled concurrence from Gaussian moments."""
    phis = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    curve = hp_c_phi(s, phis)
    n, m_abs = s.n, abs(s.m)
    # Wick closure for the fourth moment: <(c+c)^2> = 2 n^2 + |m|^2 + n.
    quart = 2.0 * n**2 + m_abs**2 + n
    root = np.sqrt(max(quart - n, 0.0))
    c1 = m_abs - n
    c2 = n - root
    e = 2.0 * n
    f = root + m_abs
    c_r = 2.0 * max(0.0, c1) if e < f else 2.0 * max(0.0, c2)
    phi_star = float(phis[int(np.argmax(curve))]) if m_abs == 0 else float(
        (-np.angle(s.m) / 2.0) % np.pi
    )
    return EntanglementResult(phi_grid=phis, c_phi=curve, c_r=c_r, phi_star=phi_star)


# -- spin Q-function -----------------------------------------------------------


def _coherent_magnitudes(n: int, thetas: np.ndarray) -> np.ndarray:
    """|<j, j - k | theta, phi>| for every theta (rows) and k = 0..N (columns).

    theta = 0 points at the all-up state.  With k = j - m the number of spin
    flips off the top, the component on |j, m> is

        sqrt(binom(N, k)) cos(theta/2)^(N-k) sin(theta/2)^k e^{i k phi},

    evaluated via log-gamma so N ~ 100 cannot overflow.  Basis index i has
    m = j - i, i.e. k = i directly.  The phase e^{i k phi} is left out.
    """
    from scipy.special import gammaln

    k = np.arange(n + 1)  # flips off the all-up state; equals the basis index
    half = 0.5 * np.asarray(thetas, dtype=float)[:, None]
    log_binom = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
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

    The magnitudes are built once for all theta and the phases e^{i k phi}
    once for all phi; each theta row is then one product over the phi grid,
    Q = Re sum_i conj(V)_pi (V rho^T)_pi with V = magnitudes * phases, so
    the transient memory is one (n_phi, N+1) block.  Any grids work,
    including non-uniform ones and the poles.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if thetas.size == 0 or phis.size == 0:
        raise ValueError("angle grids must be nonempty")
    n = algebra.n_spins
    phases = np.exp(1j * np.outer(phis, np.arange(n + 1)))
    rho_t = np.asarray(rho).T
    values = np.empty((len(thetas), len(phis)))
    for i, mags in enumerate(_coherent_magnitudes(n, thetas)):
        vecs = mags * phases
        values[i] = np.sum(vecs.conj() * (vecs @ rho_t), axis=1).real
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

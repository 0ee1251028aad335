"""Effective-parameter map and LMG master-equation builders.

The microscopic cavity-QED setup (four Raman channels between two ground
states, two cavity modes a and b) reduces, after adiabatic elimination of the
atomic excited states and then of the cavity modes, to collective-spin master
equations of Lipkin-Meshkov-Glick form

    H = -2 h J_z - (2 lambda / N) (J_x^2 + gamma J_y^2),   gamma in {-1, 0, +1},

with collective dissipators whose structure depends on the anisotropy case.
This module computes the effective parameters from the microscopic ones and
assembles the three named model variants as LindbladSpec objects.

Normalized-unit presets: the second-order study uses {h=1, Gamma_a=0.01,
Gamma_b=0.2} with lambda swept; the first-order study uses {lambda=1,
Gamma_a=0.01, Gamma_b=0.2} with h swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the sparse engine is imported by the builders that need it
    from .lindblad import LindbladSpec
    from .operators import DickeAlgebra


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@dataclass(frozen=True)
class MicroscopicParams:
    """Microscopic drive, coupling, and detuning parameters.

    Rabi frequencies and cavity couplings may be complex; the excited-state
    detunings delta_r, delta_s must be nonzero.  ``delta_a_raw`` and
    ``delta_b_raw`` are the bare cavity Raman detunings before the collective
    dispersive shift N*delta_i^+ is added.
    """

    rabi_r0: complex = 0.0
    rabi_s0: complex = 0.0
    rabi_r1: complex = 0.0
    rabi_s1: complex = 0.0
    g_r0: complex = 0.0
    g_s1: complex = 0.0
    g_r1: complex = 0.0
    g_s0: complex = 0.0
    delta_r: float = 1.0
    delta_s: float = 1.0
    omega_1: float = 0.0
    omega_1_prime: float = 0.0
    kappa_a: float = 0.0
    kappa_b: float = 0.0
    delta_a_raw: float = 0.0
    delta_b_raw: float = 0.0
    n_atoms: int = 1

    def __post_init__(self):
        if self.delta_r == 0.0 or self.delta_s == 0.0:
            raise ValueError("excited-state detunings delta_r, delta_s must be nonzero")
        if self.kappa_a < 0 or self.kappa_b < 0:
            raise ValueError("cavity decay rates must be >= 0")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")


@dataclass(frozen=True)
class EffectiveParams:
    """Effective spin-model parameters derived from MicroscopicParams.

    ``delta_a_minus`` / ``delta_b_minus`` are the dispersive nonlinear shifts;
    they are reported for inspection only and never enter a built model (they
    drop out of the adiabatic cavity elimination).
    """

    omega_0: float
    h: float
    lambda_a: float
    lambda_b: float
    alpha_a: float
    beta_a: float
    alpha_b: float
    beta_b: float
    delta_a: float
    delta_b: float
    delta_a_plus: float
    delta_a_minus: float
    delta_b_plus: float
    delta_b_minus: float
    Lambda_a: float
    Lambda_b: float
    Gamma_a: float
    Gamma_b: float


@dataclass(frozen=True)
class LMGParams:
    """Parameters of one dissipative LMG model instance."""

    n_atoms: int
    h: float
    lam: float
    gamma_anisotropy: int = 0
    Gamma_a: float = 0.0
    Gamma_b: float = 0.0

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.gamma_anisotropy not in (-1, 0, 1):
            raise ValueError("gamma_anisotropy must be one of -1, 0, +1")
        if self.Gamma_a < 0 or self.Gamma_b < 0:
            raise ValueError("dissipation rates must be >= 0")


def interaction_strength(lam_i: float, delta_i: float, kappa_i: float) -> float:
    """Cavity-mediated spin-spin interaction strength Lambda_i = lam_i^2 delta_i / (kappa_i^2 + delta_i^2)."""
    if lam_i == 0.0:
        return 0.0
    return lam_i**2 * delta_i / (kappa_i**2 + delta_i**2)


def dissipation_rate(lam_i: float, delta_i: float, kappa_i: float) -> float:
    """Cavity-induced collective dissipation rate Gamma_i = lam_i^2 kappa_i / (kappa_i^2 + delta_i^2)."""
    if lam_i == 0.0:
        return 0.0
    return lam_i**2 * kappa_i / (kappa_i**2 + delta_i**2)


def _split_coupling(p: complex, q: complex):
    """Split the products (lambda*alpha, lambda*beta) into lambda and (alpha, beta) in [-1, 1]."""
    if abs(p.imag) > 1e-9 * max(1.0, abs(p)) or abs(q.imag) > 1e-9 * max(1.0, abs(q)):
        raise ValueError("coupling products must be real; choose drive phases accordingly")
    p, q = p.real, q.real
    lam = max(abs(p), abs(q))
    if lam == 0.0:
        return 0.0, 0.0, 0.0
    return lam, p / lam, q / lam


def effective_params(micro: MicroscopicParams) -> EffectiveParams:
    """Map microscopic parameters to the effective collective-spin parameters.

    Returns the effective field (as both omega_0 and h = -omega_0/2), the
    collective couplings lambda_i with their alpha/beta splits, the full
    Raman detunings including the N delta_i^+ shifts, and the interaction /
    dissipation rates Lambda_i, Gamma_i.
    """
    m = micro
    omega_0 = 0.25 * (
        abs(m.rabi_r1) ** 2 / m.delta_r
        + abs(m.rabi_s1) ** 2 / m.delta_s
        - abs(m.rabi_r0) ** 2 / m.delta_r
        - abs(m.rabi_s0) ** 2 / m.delta_s
    ) + (m.omega_1 - m.omega_1_prime)

    da_plus = 0.5 * (abs(m.g_s1) ** 2 / m.delta_s + abs(m.g_r0) ** 2 / m.delta_r)
    da_minus = 0.5 * (abs(m.g_s1) ** 2 / m.delta_s - abs(m.g_r0) ** 2 / m.delta_r)
    db_plus = 0.5 * (abs(m.g_r1) ** 2 / m.delta_r + abs(m.g_s0) ** 2 / m.delta_s)
    db_minus = 0.5 * (abs(m.g_r1) ** 2 / m.delta_r - abs(m.g_s0) ** 2 / m.delta_s)

    delta_a = m.delta_a_raw + m.n_atoms * da_plus
    delta_b = m.delta_b_raw + m.n_atoms * db_plus

    rtn = np.sqrt(m.n_atoms)
    lam_a, alpha_a, beta_a = _split_coupling(
        rtn * np.conj(m.rabi_r1) * m.g_r0 / (2.0 * m.delta_r),
        rtn * np.conj(m.rabi_s0) * m.g_s1 / (2.0 * m.delta_s),
    )
    lam_b, alpha_b, beta_b = _split_coupling(
        rtn * np.conj(m.rabi_s1) * m.g_s0 / (2.0 * m.delta_s),
        rtn * np.conj(m.rabi_r0) * m.g_r1 / (2.0 * m.delta_r),
    )

    return EffectiveParams(
        omega_0=omega_0,
        h=-0.5 * omega_0,
        lambda_a=lam_a,
        lambda_b=lam_b,
        alpha_a=alpha_a,
        beta_a=beta_a,
        alpha_b=alpha_b,
        beta_b=beta_b,
        delta_a=delta_a,
        delta_b=delta_b,
        delta_a_plus=da_plus,
        delta_a_minus=da_minus,
        delta_b_plus=db_plus,
        delta_b_minus=db_minus,
        Lambda_a=interaction_strength(lam_a, delta_a, m.kappa_a),
        Lambda_b=interaction_strength(lam_b, delta_b, m.kappa_b),
        Gamma_a=dissipation_rate(lam_a, delta_a, m.kappa_a),
        Gamma_b=dissipation_rate(lam_b, delta_b, m.kappa_b),
    )


def _check_match(params: LMGParams, algebra: DickeAlgebra, gamma: int):
    if params.gamma_anisotropy != gamma:
        raise ValueError(
            f"model requires gamma_anisotropy={gamma}, got {params.gamma_anisotropy}"
        )
    if params.n_atoms != algebra.n_spins:
        raise ValueError(
            f"params.n_atoms={params.n_atoms} does not match algebra N={algebra.n_spins}"
        )


def build_gamma0(params: LMGParams, algebra: DickeAlgebra) -> LindbladSpec:
    """gamma = 0 model: H = -2h Jz - (2 lam/N) Jx^2 with D[2Jx] and D[J+] dissipators.

    The beta^2 factor of the original J- channel is taken as already absorbed
    into Gamma_b; only the absorbed rate is exposed.
    """
    from .lindblad import LindbladSpec

    _check_match(params, algebra, 0)
    n = params.n_atoms
    h = -2.0 * params.h * algebra.jz - (2.0 * params.lam / n) * (algebra.jx @ algebra.jx)
    dissipators = [
        (params.Gamma_a / n, 2.0 * algebra.jx),
        (params.Gamma_b / n, algebra.jplus),
    ]
    return LindbladSpec(hamiltonian=h, dissipators=tuple(dissipators))


def build_conventional(
    params: LMGParams, algebra: DickeAlgebra, alpha: float, beta: float
) -> LindbladSpec:
    """gamma = -1 model: H = -2h Jz - (2 lam/N)(Jx^2 - Jy^2) with D[J+-] dissipators.

    Assumes the symmetric dissipation split 2*Gamma_a = 2*Gamma_b = Gamma, so
    the channel rates are Gamma_plus = Gamma alpha^2 and Gamma_minus =
    Gamma beta^2 for caller-supplied alpha, beta in [-1, 1].
    """
    from .lindblad import LindbladSpec

    _check_match(params, algebra, -1)
    if params.Gamma_a != params.Gamma_b:
        raise ValueError("conventional model assumes Gamma_a == Gamma_b")
    n = params.n_atoms
    jx2 = algebra.jx @ algebra.jx
    jy2 = algebra.jy @ algebra.jy
    h = -2.0 * params.h * algebra.jz - (2.0 * params.lam / n) * (jx2 - jy2)
    gamma_total = 2.0 * params.Gamma_a
    dissipators = [
        (gamma_total * alpha**2 / n, algebra.jplus),
        (gamma_total * beta**2 / n, algebra.jminus),
    ]
    return LindbladSpec(hamiltonian=h, dissipators=tuple(dissipators))


def build_isotropic(params: LMGParams, algebra: DickeAlgebra) -> LindbladSpec:
    """gamma = +1 model: H = -2h Jz - (2 lam/N)(Jx^2 + Jy^2) with D[J-], D[J+] dissipators."""
    from .lindblad import LindbladSpec

    _check_match(params, algebra, 1)
    n = params.n_atoms
    jx2 = algebra.jx @ algebra.jx
    jy2 = algebra.jy @ algebra.jy
    h = -2.0 * params.h * algebra.jz - (2.0 * params.lam / n) * (jx2 + jy2)
    dissipators = [
        (params.Gamma_a / n, algebra.jminus),
        (params.Gamma_b / n, algebra.jplus),
    ]
    return LindbladSpec(hamiltonian=h, dissipators=tuple(dissipators))


# -- flat key=value config ---------------------------------------------------

_MODEL_KEYS = {"model", "n_atoms", "h", "lambda", "gamma_a", "gamma_b"}
_MICRO_KEYS = {
    "rabi_r0", "rabi_s0", "rabi_r1", "rabi_s1",
    "g_r0", "g_s1", "g_r1", "g_s0",
    "delta_r", "delta_s", "omega_1", "omega_1_prime",
    "kappa_a", "kappa_b", "delta_a_raw", "delta_b_raw", "n_atoms",
}

_MODEL_BUILDERS = {"gamma0": 0, "conventional": -1, "isotropic": 1}


def parse_config_text(text: str) -> dict:
    """Parse a flat ``key = value`` block into a string->string dict.

    Blank lines and ``#`` comments are ignored.  Duplicate keys are rejected.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def model_params_from_config(cfg: dict) -> LMGParams:
    """Build LMGParams from the model block of a parsed config.

    Recognized keys: ``model``, ``n_atoms``, ``h``, ``lambda``, ``gamma_a``,
    ``gamma_b``, and an optional ``micro.*`` block that overrides the direct
    values via the effective-parameter map.  Unknown keys are rejected.
    """
    micro_raw = {}
    plain = {}
    for key, value in cfg.items():
        if key.startswith("micro."):
            sub = key[len("micro."):]
            if sub not in _MICRO_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            micro_raw[sub] = value
        elif key in _MODEL_KEYS:
            plain[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")

    model = plain.get("model", "gamma0")
    if model not in _MODEL_BUILDERS:
        raise ConfigError(f"unknown model {model!r}; expected one of {sorted(_MODEL_BUILDERS)}")

    try:
        n_atoms = int(plain.get("n_atoms", "0"))
        h = float(plain.get("h", "0"))
        lam = float(plain.get("lambda", "0"))
        gamma_a = float(plain.get("gamma_a", "0"))
        gamma_b = float(plain.get("gamma_b", "0"))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in config: {exc}") from None

    if micro_raw:
        # micro block supplies defaults; explicit plain keys override them
        # (so a sweep over h or lambda wins over the derived values).
        kwargs = {}
        for key, value in micro_raw.items():
            try:
                kwargs[key] = int(value) if key == "n_atoms" else complex(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for micro.{key}: {exc}") from None
        for key in ("delta_r", "delta_s", "omega_1", "omega_1_prime",
                    "kappa_a", "kappa_b", "delta_a_raw", "delta_b_raw"):
            if key in kwargs:
                kwargs[key] = kwargs[key].real
        micro = MicroscopicParams(**kwargs)
        eff = effective_params(micro)
        gamma_idx = _MODEL_BUILDERS[model]
        if gamma_idx == 0:
            lam_eff = 2.0 * eff.alpha_a**2 * eff.Lambda_a
        elif gamma_idx == -1:
            lam_eff = 2.0 * eff.alpha_a * eff.beta_a * eff.Lambda_a
        else:
            lam_eff = eff.Lambda_a
        n_atoms = int(plain["n_atoms"]) if "n_atoms" in plain else micro.n_atoms
        h = float(plain["h"]) if "h" in plain else eff.h
        lam = float(plain["lambda"]) if "lambda" in plain else lam_eff
        gamma_a = float(plain["gamma_a"]) if "gamma_a" in plain else eff.Gamma_a
        gamma_b = float(plain["gamma_b"]) if "gamma_b" in plain else eff.Gamma_b

    if n_atoms < 1:
        raise ConfigError("n_atoms must be a positive integer")

    return LMGParams(
        n_atoms=n_atoms,
        h=h,
        lam=lam,
        gamma_anisotropy=_MODEL_BUILDERS[model],
        Gamma_a=gamma_a,
        Gamma_b=gamma_b,
    )

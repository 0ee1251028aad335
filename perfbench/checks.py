"""Correctness checks on the CLI's outputs, and the references they use.

Each check returns how many sweep points it attempted, how many failed and
the largest error it measured against its reference.  A non-zero exit code,
a manifest with failures or a missing file fails every point of the command.

References are computed by the benchmark outside the timed region:

* steady: the steady state re-solved by sparse LU of ``liouvillian_matrix``
  with the middle diagonal row replaced by the trace row (the program
  replaces the first one), compared moment by moment;
* dynamics: the action of the matrix exponential of ``liouvillian_matrix``
  on the all-up state (``scipy.sparse.linalg.expm_multiply``, Al-Mohy &
  Higham 2011) at every output time;
* qfunc: the sphere integral ``observables.qfunction_norm`` must be 1 up to
  the grid's quadrature error.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

# Errors below this are beyond what 15-significant-digit CSV values resolve;
# they are reported as this floor so that max_err is never 0.
ERR_FLOOR = 1e-12

STEADY_TOL = 1e-8      # steady moments against the re-solved reference
DYNAMICS_TOL = 1e-4    # RK45 at the CLI's tol=1e-8 reaches ~4e-5 in rho entries
CASIMIR_TOL = 1e-9     # jx2 + jy2 + jz2 = (j + 1) / j
C_R_MAX = 1.0 + 1e-9
QNORM_TOL = 0.05       # trapezoid rule on the 61 x 121 grid is off by ~1e-2


@dataclass
class CheckResult:
    attempted: int
    failed: int = 0
    max_err: float = ERR_FLOOR
    problems: list = field(default_factory=list)

    def fail(self, points: int, message: str) -> None:
        self.failed += points
        self.problems.append(message)

    def record_error(self, err: float) -> None:
        self.max_err = max(self.max_err, float(err))


def spin_moment_ops(n_atoms: int) -> dict:
    """Dense Jx^2, Jy^2, Jz^2 in the m-descending Dicke basis, built independently."""
    j = n_atoms / 2.0
    m = j - np.arange(n_atoms + 1)
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.diag(ladder, k=1).astype(complex)
    jx = (jp + jp.conj().T) / 2.0
    jy = (jp - jp.conj().T) / 2j
    jz = np.diag(m).astype(complex)
    return {"jx2": jx @ jx, "jy2": jy @ jy, "jz2": jz @ jz}


def _moments(ops: dict, rho: np.ndarray, j2: float) -> dict:
    return {k: float(np.einsum("ij,ji->", op, rho).real) / j2 for k, op in ops.items()}


def _spec(cfg: dict, n_atoms: int, lam: float):
    from dlmg.models import LMGParams, build_gamma0
    from dlmg.operators import build_algebra

    params = LMGParams(n_atoms=n_atoms, h=float(cfg["h"]), lam=lam,
                       Gamma_a=float(cfg["gamma_a"]), Gamma_b=float(cfg["gamma_b"]))
    return build_gamma0(params, build_algebra(n_atoms))


def steady_reference(cfg: dict, n_atoms: int, lam: float) -> dict:
    from dlmg.lindblad import liouvillian_matrix

    d = n_atoms + 1
    lv = liouvillian_matrix(_spec(cfg, n_atoms, lam)).tolil()
    trace_idx = np.arange(d) * (d + 1)
    row = (d // 2) * (d + 1)
    lv.rows[row] = list(trace_idx)
    lv.data[row] = [1.0 + 0j] * d
    rhs = np.zeros(d * d, dtype=complex)
    rhs[row] = 1.0
    rho = spla.splu(lv.tocsc()).solve(rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return _moments(spin_moment_ops(n_atoms), rho, (n_atoms / 2.0) ** 2)


def dynamics_reference(cfg: dict, n_atoms: int, lam: float) -> list:
    from dlmg.lindblad import liouvillian_matrix

    d = n_atoms + 1
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0  # all spins up
    states = spla.expm_multiply(
        liouvillian_matrix(_spec(cfg, n_atoms, lam)), rho0.reshape(-1),
        start=0.0, stop=float(cfg["dynamics.t_end"]),
        num=int(cfg["dynamics.t_points"]), endpoint=True,
    )
    ops, j2 = spin_moment_ops(n_atoms), (n_atoms / 2.0) ** 2
    return [_moments(ops, v.reshape(d, d), j2) for v in states]


def references(cmd) -> dict:
    """Reference data of one command, keyed by (n_atoms, point index)."""
    ref = {}
    if cmd.cli in ("steady", "dynamics"):
        solve = steady_reference if cmd.cli == "steady" else dynamics_reference
        for n in cmd.n_atoms:
            for k, lam in enumerate(cmd.sweep):
                ref[n, k] = solve(cmd.config, n, float(lam))
    return ref


def _read_csv(path: Path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _value_tag(value: float) -> str:
    return f"{value:.15g}".replace("-", "m").replace(".", "p")


def check_command(cmd, out_dir: Path, returncode: int, ref: dict) -> CheckResult:
    result = CheckResult(attempted=cmd.points)
    if returncode != 0:
        result.fail(cmd.points, f"{cmd.name}: exit code {returncode}")
        return result
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        result.fail(cmd.points, f"{cmd.name}: unreadable manifest: {exc}")
        return result
    if manifest.get("failures") != 0:
        result.fail(cmd.points, f"{cmd.name}: manifest reports {manifest.get('failures')} failures")
        return result
    try:
        _CHECKS[cmd.cli](cmd, out_dir, ref, result)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # malformed CSV
        result.failed = cmd.points
        result.problems.append(f"{cmd.name}: unreadable output: {exc!r}")
    return result


def _check_casimir_and_cr(row: dict, n_atoms: int) -> str | None:
    j = n_atoms / 2.0
    casimir = float(row["jx2"]) + float(row["jy2"]) + float(row["jz2"]) - (j + 1.0) / j
    if not abs(casimir) <= CASIMIR_TOL:
        return f"Casimir sum rule off by {casimir:.3e}"
    if "c_r" in row and not float(row["c_r"]) <= C_R_MAX:
        return f"c_r = {row['c_r']} > 1"
    return None


def _check_steady(cmd, out_dir, ref, result):
    for n in cmd.n_atoms:
        rows = _read_csv(out_dir / f"steady_N{n}.csv")
        if len(rows) != len(cmd.sweep):
            result.fail(len(cmd.sweep), f"steady N={n}: {len(rows)} rows for {len(cmd.sweep)} points")
            continue
        for k, (lam, row) in enumerate(zip(cmd.sweep, rows)):
            problem = _check_casimir_and_cr(row, n)
            err = max(abs(float(row[key]) - val) for key, val in ref[n, k].items())
            if problem is None and not err <= STEADY_TOL:
                problem = f"moments off the reference by {err:.3e}"
            if problem is None and abs(float(row["lambda"]) - lam) > 1e-12:
                problem = f"row lambda {row['lambda']} != {lam}"
            if problem:
                result.fail(1, f"steady N={n} lambda={lam:.6f}: {problem}")
            else:
                result.record_error(err)


def _check_dynamics(cmd, out_dir, ref, result):
    t_points = int(cmd.config["dynamics.t_points"])
    times = np.linspace(0.0, float(cmd.config["dynamics.t_end"]), t_points)
    for n in cmd.n_atoms:
        rows = _read_csv(out_dir / f"dynamics_N{n}.csv")
        if len(rows) != len(cmd.sweep) * t_points:
            result.fail(len(cmd.sweep), f"dynamics N={n}: {len(rows)} rows, "
                                        f"expected {len(cmd.sweep)} x {t_points}")
            continue
        for k, lam in enumerate(cmd.sweep):
            block = rows[k * t_points:(k + 1) * t_points]
            problem, err = None, 0.0
            for t, row, ref_row in zip(times, block, ref[n, k]):
                problem = _check_casimir_and_cr(row, n)
                if problem is None and (abs(float(row["t"]) - t) > 1e-12
                                        or abs(float(row["lambda"]) - lam) > 1e-12):
                    problem = f"row (lambda, t) = ({row['lambda']}, {row['t']}) out of order"
                if problem:
                    break
                err = max(err, *(abs(float(row[key]) - val) for key, val in ref_row.items()))
            if problem is None and not err <= DYNAMICS_TOL:
                problem = f"moments off the expm_multiply reference by {err:.3e}"
            if problem:
                result.fail(1, f"dynamics N={n} lambda={lam:.6f}: {problem}")
            else:
                result.record_error(err)


def _check_spectrum(cmd, out_dir, ref, result):
    nu_points = int(cmd.config["spectrum.nu_points"])
    for lam in cmd.sweep:
        rows = _read_csv(out_dir / f"spectrum_lambda_{_value_tag(lam)}.csv")
        t_p = np.array([float(r["t_p"]) for r in rows])
        if len(rows) != nu_points:
            result.fail(1, f"spectrum lambda={lam:.6f}: {len(rows)} rows for {nu_points} nu")
        elif not (np.all(np.isfinite(t_p)) and np.all(t_p >= 0.0)):
            result.fail(1, f"spectrum lambda={lam:.6f}: t_p not finite and non-negative")


def _check_qfunc(cmd, out_dir, ref, result):
    from dlmg.observables import QFunctionGrid, qfunction_norm

    n_theta, n_phi = int(cmd.config["qfunc.n_theta"]), int(cmd.config["qfunc.n_phi"])
    n_atoms = cmd.n_atoms[0]
    for lam in cmd.sweep:
        rows = _read_csv(out_dir / f"qfunc_lambda_{_value_tag(lam)}.csv")
        if len(rows) != n_theta * n_phi:
            result.fail(1, f"qfunc lambda={lam:.6f}: {len(rows)} rows for {n_theta} x {n_phi}")
            continue
        q = np.array([float(r["q"]) for r in rows]).reshape(n_theta, n_phi)
        thetas = np.array([float(r["theta"]) for r in rows[::n_phi]])
        phis = np.array([float(r["phi"]) for r in rows[:n_phi]])
        err = abs(qfunction_norm(QFunctionGrid(thetas, phis, q), n_atoms) - 1.0)
        if not (np.all(np.isfinite(q)) and np.all(q >= -1e-12)):
            result.fail(1, f"qfunc lambda={lam:.6f}: Q not finite and non-negative")
        elif not err <= QNORM_TOL:
            result.fail(1, f"qfunc lambda={lam:.6f}: Q integrates to 1 {err:+.3e}")
        else:
            result.record_error(err)


_CHECKS = {
    "steady": _check_steady,
    "dynamics": _check_dynamics,
    "spectrum": _check_spectrum,
    "qfunc": _check_qfunc,
}

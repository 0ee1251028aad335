"""Command-line driver: parameter sweeps, dynamics, spectra, Q-functions.

    dlmg steady|dynamics|spectrum|qfunc [--config FILE] [--preset figN]
         [--jobs K] [--out DIR]

Configuration is a flat ``key = value`` file; a preset supplies a base block
that the config file overrides key by key.  The merged config is checked and
turned into a plan before any work or output: the point tasks, the output
files and their columns, with every numeric key parsed.  A config is
rejected there, with exit code 1 and ``config error``, for an unknown key
(the ``sweep.*``, ``dynamics.*``, ``spectrum.*`` and ``qfunc.*`` keys are
checked against the keys any command reads, so a preset runs under another
command), an unknown name in ``outputs``, a ``sweep.variable`` other than
``lambda`` or ``h``, a ``model`` other than ``gamma0`` (the CLI runs the
gamma=0 model only), a malformed value, a list of N for ``qfunc``, a
``dynamics.initial_m`` that is no spin projection m of some N in the sweep,
``gamma_a = gamma_b = 0`` under ``steady`` or ``qfunc`` (no dissipation, so
no unique steady state; ``dynamics`` then runs the unitary evolution), or,
under ``spectrum``, a model key other than ``lambda``, ``h`` and
``model`` (the spectrum derives its own parameters, so ``gamma_a``,
``gamma_b``, ``n_atoms`` and ``micro.*`` would be ignored).

Only ``steady``, ``dynamics`` and ``qfunc`` import the finite-N engine
(``operators``, ``lindblad``, ``observables``: scipy.sparse and scipy.linalg,
about 0.4 s; ``qfunc`` also scipy.special).  They load it in the main process
while planning, so a forked worker pool inherits it; each point function
imports the names it uses, so a spawned worker loads it once itself.
``import dlmg.cli`` and the ``spectrum`` command, whose 6x6 linear-response
model needs numpy alone, never load it.

Sweep points are independent solves dispatched to a worker pool; results are
collected and written in point order.  The OpenBLAS copies bundled with
numpy and scipy are set to one thread in the main process and in every
worker (threaded BLAS gains nothing at these sizes, oversubscribes the cores
of a pool and may change the last printed digits), so identical configs
produce byte-identical CSV files at any ``--jobs`` wherever both copies could
be pinned (no null in the manifest's ``blas_threads``).  Every run writes a
``manifest.json`` recording the merged config, tool version, ``jobs``, the
thread count each BLAS library reports (``blas_threads``), wall time, output
files, and per-point diagnostics, including each point's wall time
``wall_s`` measured in the worker; for dynamics, the propagated
``block_size``, the ``matvecs`` it took (retried steps included) and the
number of ladder levels of its last window (``window``); for steady and
qfunc, the number of ladder levels the steady state was solved on
(``window``) and its full-space ``residual``.  A steady state that fails
``lindblad.validate_density_matrix`` on its window (outside which it is
zero) fails its point.  A point that raises is recorded with its error (and
the residual, if the error carries one) and left out of the CSV files, and
the run goes on.  Exit
code 0 means full success, 2 that some points failed, 1 a configuration
error or an output error (an ``OSError`` creating or writing ``--out``).  The
env var ``DLMG_LOG`` (debug/info/warning/error) selects log verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import os
import sys
import time
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .models import ConfigError, LMGParams, build_gamma0, model_params_from_config, parse_config_text
from .presets import PRESETS
from .hp import (
    NoStableGaussianState,
    MomentState,
    eigenvalues as hp_eigenvalues,
    evolve_moments,
    hp_coefficients,
    moment_steady_state,
    rotation_angles,
)
from .semiclassical import NORMAL, fixed_points, selected_branch
from .spectrum import fig_cavity, linear_system, transmission

logger = logging.getLogger("dlmg")

# Every CLI-namespace key some command reads.  Each command ignores the keys
# of the others, so that a preset runs under another command.
_CLI_KEYS = {
    "command", "outputs",
    "sweep.variable", "sweep.start", "sweep.stop", "sweep.points", "sweep.singular_offset",
    "dynamics.t_end", "dynamics.t_points", "dynamics.initial_m",
    "spectrum.values", "spectrum.nu_min", "spectrum.nu_max", "spectrum.nu_points",
    "spectrum.gamma_b", "spectrum.kappa_a", "spectrum.delta_a", "spectrum.kappa_b",
    "spectrum.delta_b",
    "qfunc.values", "qfunc.n_theta", "qfunc.n_phi",
}
_OUTPUTS = {"moments", "entanglement", "cphi", "eigenvalues", "semiclassical", "hp"}
_DEFAULT_OUTPUTS = {"steady": "moments,entanglement", "dynamics": "entanglement"}
# Cavity keys passed to fig_cavity, whose keyword defaults apply when absent.
_CAVITY_KEYS = ("gamma_b", "kappa_a", "delta_a", "kappa_b", "delta_b")

_STEADY_COLUMNS = ["lambda", "h", "jx2", "jy2", "jz2", "sc_x", "sc_y", "sc_z", "sc_branch"]
_ENTANGLEMENT_COLUMNS = ["c_r", "c_r_hp", "phi_star"]
_EIGENVALUE_COLUMNS = ["phase", "re_mu_p", "im_mu_p", "re_mu_m", "im_mu_m",
                       "n_ss", "re_m_ss", "im_m_ss"]

SINGULAR_OFFSET = 1e-6


class PointFailure(RuntimeError):
    pass


def _fmt(x) -> str:
    return f"{x:.15g}"


# -- validation: config -> plan --------------------------------------------------


@dataclasses.dataclass
class _Plan:
    """A command's points and output files, worked out before any of it runs.

    ``point(task)`` returns ``{"rows": {kind: block}}`` plus an optional
    ``"record"`` of manifest fields, or raises; a block is a numeric ndarray
    or a list of rows (see :func:`_write_rows`).  Each entry of ``files`` is
    ``(name, kind, extra header lines, columns, indices of its points)``: the
    file takes the block of ``kind`` from each of its points that succeeded.
    """

    variable: str
    point: object
    tasks: list
    coords: list  # (sweep value, n_atoms or 0) of each task
    files: list
    config: dict = dataclasses.field(default_factory=dict)


def _merged_config(args) -> dict:
    cfg = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        cfg.update(PRESETS[args.preset])
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        cfg.update(parse_config_text(text))
    if not cfg:
        raise ConfigError("no configuration given: pass --config and/or --preset")
    return cfg


def _split_config(cfg: dict):
    """Separate CLI keys from the model block, whose check rejects every other key."""
    cli_cfg, model_cfg = {}, {}
    for key, value in cfg.items():
        (cli_cfg if key in _CLI_KEYS else model_cfg)[key] = value
    return cli_cfg, model_cfg


def _number(cfg: dict, key: str, default=None, kind=float):
    if key not in cfg:
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from None


def _sweep_values(cli_cfg: dict) -> np.ndarray:
    try:
        start = float(cli_cfg["sweep.start"])
        stop = float(cli_cfg["sweep.stop"])
        points = int(cli_cfg["sweep.points"])
    except KeyError as exc:
        raise ConfigError(f"missing sweep key: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from None
    if points < 2 or not start < stop:
        raise ConfigError("sweep requires start < stop and points >= 2")
    return np.linspace(start, stop, points)


def _value_list(cli_cfg: dict, key: str) -> list:
    if key not in cli_cfg:
        raise ConfigError(f"{key.split('.')[0]} requires {key} (comma-separated)")
    try:
        values = [float(tok) for tok in cli_cfg[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value in {key}: {exc}") from None
    if not values:
        raise ConfigError(f"{key} lists no values")
    return values


def _n_atoms_list(model_cfg: dict) -> list:
    raw = model_cfg.get("n_atoms", model_cfg.get("micro.n_atoms", ""))
    try:
        values = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n_atoms: {exc}") from None
    if not values:
        raise ConfigError("n_atoms must be given")
    return values


def _point_params(model_cfg: dict, n_atoms: int, variable: str, value: float) -> LMGParams:
    cfg = dict(model_cfg)
    cfg["n_atoms"] = str(n_atoms)
    cfg[variable] = _fmt(value)
    return model_params_from_config(cfg)


def _sweep_grid(cli_cfg, model_cfg, variable):
    """(value, n_atoms) and parameters of every steady or dynamics point, N outermost."""
    values = _sweep_values(cli_cfg)
    coords = [(v, n) for n in _n_atoms_list(model_cfg) for v in values]
    return coords, [_point_params(model_cfg, n, variable, v) for v, n in coords]


def _per_n_files(coords, kinds):
    """One file per N and per ``(kind, columns)``, fed by the points at that N."""
    files = []
    for n in dict.fromkeys(n for _, n in coords):
        indices = [i for i, (_, m) in enumerate(coords) if m == n]
        files += [(f"{kind}_N{n}.csv", kind, [], columns, indices) for kind, columns in kinds]
    return files


def _per_value_files(kind, variable, values, columns):
    """One file per sweep value, named by the value and carrying it in its header."""
    return [(f"{kind}_{variable}_{_fmt(v).replace('-', 'm').replace('.', 'p')}.csv", kind,
             [f"{variable} = {_fmt(v)}"], columns, [i])
            for i, v in enumerate(values)]


def _plan_steady(cli_cfg, model_cfg, variable, outputs) -> _Plan:
    # Imported here, in the main process, so that a forked pool inherits the
    # engine; the point functions import its names themselves.
    from . import lindblad, observables, operators  # noqa: F401
    offset = _number(cli_cfg, "sweep.singular_offset", SINGULAR_OFFSET)
    columns = list(_STEADY_COLUMNS)
    if outputs & {"entanglement", "cphi"}:
        columns += _ENTANGLEMENT_COLUMNS
    if "eigenvalues" in outputs:
        columns += _EIGENVALUE_COLUMNS
    kinds = [("steady", columns)]
    if "cphi" in outputs:
        kinds.append(("cphi", [variable, "phi", "c_phi"]))
    if "semiclassical" in outputs:
        kinds.append(("semiclassical", ["lambda", "h", "branch", "X", "Y", "Z", "stable"]))
    coords, params = _sweep_grid(cli_cfg, model_cfg, variable)
    tasks = [(p, v, outputs, columns, offset) for p, (v, _) in zip(params, coords)]
    return _Plan(variable, _steady_point, tasks, coords, _per_n_files(coords, kinds))


def _plan_dynamics(cli_cfg, model_cfg, variable, outputs) -> _Plan:
    from . import lindblad, observables, operators  # noqa: F401
    offset = _number(cli_cfg, "sweep.singular_offset", SINGULAR_OFFSET)
    times = np.linspace(0.0, _number(cli_cfg, "dynamics.t_end", 10.0),
                        _number(cli_cfg, "dynamics.t_points", 101, int))
    m0 = _number(cli_cfg, "dynamics.initial_m")
    columns = ["lambda", "h", "t"]
    if "entanglement" in outputs:
        columns.append("c_r")
    if "moments" in outputs:
        columns += ["jx2", "jy2", "jz2"]
    if "hp" in outputs:
        columns.append("c_r_hp")
    coords, params = _sweep_grid(cli_cfg, model_cfg, variable)
    if m0 is not None:
        for n in dict.fromkeys(n for _, n in coords):
            operators.dicke_state(n, m0)  # raises ValueError unless m0 is in {-N/2, ..., N/2}
    tasks = [(p, outputs, columns, times, m0, offset) for p in params]
    return _Plan(variable, _dynamics_point, tasks, coords,
                 _per_n_files(coords, [("dynamics", columns)]))


def _plan_spectrum(cli_cfg, model_cfg, variable, outputs) -> _Plan:
    ignored = sorted(key for key in model_cfg if key not in ("model", "lambda", "h"))
    if ignored:
        hint = "; the spectrum's gamma_b is spectrum.gamma_b" if "gamma_b" in ignored else ""
        raise ConfigError(f"spectrum reads only lambda and h of the model block, "
                          f"not {ignored}{hint}")
    values = _value_list(cli_cfg, "spectrum.values")
    lam, h = _number(model_cfg, "lambda", 1.0), _number(model_cfg, "h", 1.0)
    cavity = {key: _number(cli_cfg, f"spectrum.{key}")
              for key in _CAVITY_KEYS if f"spectrum.{key}" in cli_cfg}
    nu = np.linspace(_number(cli_cfg, "spectrum.nu_min", -3.0),
                     _number(cli_cfg, "spectrum.nu_max", 3.0),
                     _number(cli_cfg, "spectrum.nu_points", 2001, int))
    tasks = [((v, h) if variable == "lambda" else (lam, v), cavity, nu) for v in values]
    return _Plan(variable, _spectrum_point, tasks, [(v, 0) for v in values],
                 _per_value_files("spectrum", variable, values, ["nu", "t_p", "diverged"]))


def _plan_qfunc(cli_cfg, model_cfg, variable, outputs) -> _Plan:
    # scipy.special gives the Q-function its coherent-state amplitudes.
    import scipy.special  # noqa: F401

    from . import lindblad, observables, operators  # noqa: F401
    values = _value_list(cli_cfg, "qfunc.values")
    n_atoms, *rest = _n_atoms_list(model_cfg)
    if rest:
        raise ConfigError("qfunc takes one n_atoms, not a list")
    thetas = np.linspace(0.0, np.pi, _number(cli_cfg, "qfunc.n_theta", 61, int))
    phis = np.linspace(0.0, 2.0 * np.pi, _number(cli_cfg, "qfunc.n_phi", 121, int),
                       endpoint=False)
    tasks = [(_point_params(model_cfg, n_atoms, variable, v), thetas, phis) for v in values]
    return _Plan(variable, _qfunc_point, tasks, [(v, n_atoms) for v in values],
                 _per_value_files("qfunc", variable, values, ["theta", "phi", "q"]))


_PLANNERS = {
    "steady": _plan_steady,
    "dynamics": _plan_dynamics,
    "spectrum": _plan_spectrum,
    "qfunc": _plan_qfunc,
}


def _plan(command: str, cfg: dict) -> _Plan:
    """Check the merged config and plan the run; raises ValueError on a bad config."""
    cfg = dict(cfg)
    preset_cmd = cfg.pop("command", None)
    if preset_cmd and preset_cmd != command:
        logger.info("preset is for %s, running %s as requested", preset_cmd, command)
    cli_cfg, model_cfg = _split_config(cfg)
    variable = cli_cfg.get("sweep.variable", "lambda")
    if variable not in ("lambda", "h"):
        raise ConfigError("sweep.variable must be 'lambda' or 'h'")
    raw = cli_cfg.get("outputs", _DEFAULT_OUTPUTS.get(command, ""))
    outputs = {tok.strip() for tok in raw.split(",") if tok.strip()}
    if outputs - _OUTPUTS:
        raise ConfigError(f"unknown outputs {sorted(outputs - _OUTPUTS)}; "
                          f"known: {sorted(_OUTPUTS)}")
    # The model block is checked once here; spectra derive their own parameters,
    # so the probe takes any N.
    probe = model_params_from_config({**model_cfg, "n_atoms": "1"})
    if probe.gamma_anisotropy != 0:
        raise ConfigError(f"model {model_cfg['model']!r} is not supported by the CLI, "
                          "which runs the gamma0 model only")
    if command in ("steady", "qfunc") and probe.Gamma_a == probe.Gamma_b == 0:
        raise ConfigError(f"{command} needs dissipation: with gamma_a = gamma_b = 0 "
                          "the steady state is not unique")
    plan = _PLANNERS[command](cli_cfg, model_cfg, variable, outputs)
    plan.config = {**model_cfg, **cli_cfg}
    return plan


# -- points ------------------------------------------------------------------------


def _offset_retry(params: LMGParams, offset: float, solve):
    """``solve(params)``, else ``solve`` at lambda + offset, then lambda - offset.

    The HP linearization is singular at the transition itself.  Returns None
    when all three raise.
    """
    for trial in (params, dataclasses.replace(params, lam=params.lam + offset),
                  dataclasses.replace(params, lam=params.lam - offset)):
        try:
            return solve(trial)
        except (NoStableGaussianState, ValueError):
            continue
    return None


def _hp_steady(params: LMGParams, fp, offset: float = SINGULAR_OFFSET):
    """HP steady moments at a sweep point whose selected branch is ``fp``, or None.

    At a shifted coupling the branch is selected again.
    """
    return _offset_retry(params, offset, lambda trial: moment_steady_state(
        hp_coefficients(trial, fp if trial is params else selected_branch(trial))))


def _hp_dynamics_curve(params: LMGParams, times, offset: float = SINGULAR_OFFSET) -> list:
    """C_R^HP(t) from vacuum initial moments about the selected branch."""
    from .observables import hp_entanglement

    def curve(trial):
        coeffs = hp_coefficients(trial, selected_branch(trial))
        return [hp_entanglement(s).c_r for s in evolve_moments(coeffs, MomentState(n=0.0, m=0.0), times)]

    result = _offset_retry(params, offset, curve)
    if result is None:
        raise PointFailure("no HP linearization available at this point")
    return result


def _steady_rho(params: LMGParams, algebra):
    """Steady state of the gamma = 0 model and its manifest record (``window``, ``residual``).

    Raises SteadyStateError if the state fails the density-matrix check on
    its window, outside which it is zero.
    """
    from .lindblad import SteadyStateError, steady_solution, validate_density_matrix

    sol = steady_solution(build_gamma0(params, algebra), tol=1e-10, check_unique=False)
    lo, hi = sol.window
    try:
        validate_density_matrix(sol.rho[lo:hi, lo:hi])
    except ValueError as exc:
        raise SteadyStateError(f"unphysical steady state: {exc}", residual=sol.residual) from None
    return sol.rho, {"window": hi - lo, "residual": sol.residual}


def _steady_point(task):
    from .observables import entanglement_curve, hp_entanglement
    from .operators import build_algebra, expectation

    params, value, outputs, columns, offset = task
    algebra = build_algebra(params.n_atoms)
    rho, record = _steady_rho(params, algebra)
    j2 = (params.n_atoms / 2.0) ** 2
    row = {
        "lambda": params.lam,
        "h": params.h,
        "jx2": expectation(algebra.jx @ algebra.jx, rho).real / j2,
        "jy2": expectation(algebra.jy @ algebra.jy, rho).real / j2,
        "jz2": expectation(algebra.jz @ algebra.jz, rho).real / j2,
    }
    fp_sel = selected_branch(params)
    row["sc_branch"] = fp_sel.branch
    row["sc_x"], row["sc_y"], row["sc_z"] = fp_sel.state.x, fp_sel.state.y, fp_sel.state.z

    rows = {}
    moments = None
    if outputs & {"entanglement", "cphi", "eigenvalues"}:
        moments = _hp_steady(params, fp_sel, offset)
    if outputs & {"entanglement", "cphi"}:
        ent = entanglement_curve(rho, algebra)
        row["c_r"] = ent.c_r
        row["phi_star"] = ent.phi_star
        row["c_r_hp"] = np.nan if moments is None else hp_entanglement(moments).c_r
        if "cphi" in outputs:
            rows["cphi"] = np.column_stack(
                [np.full(len(ent.phi_grid), value), ent.phi_grid, ent.c_phi])
    if "eigenvalues" in outputs:
        phase = "normal" if fp_sel.branch == NORMAL else "broken"
        pair = hp_eigenvalues(params, phase)
        row["phase"] = phase
        row["re_mu_p"], row["im_mu_p"] = pair.mu_plus.real, pair.mu_plus.imag
        row["re_mu_m"], row["im_mu_m"] = pair.mu_minus.real, pair.mu_minus.imag
        if moments is None:
            row["n_ss"] = row["re_m_ss"] = row["im_m_ss"] = np.nan
        else:
            row["n_ss"], row["re_m_ss"], row["im_m_ss"] = (
                moments.n, moments.m.real, moments.m.imag,
            )
    if "semiclassical" in outputs:
        rows["semiclassical"] = [
            [params.lam, params.h, f.branch, f.state.x, f.state.y, f.state.z, int(f.stable)]
            for f in fixed_points(params)
        ]
    rows["steady"] = [[row[col] for col in columns]]
    return {"rows": rows, "record": record}


def _dynamics_point(task):
    from .lindblad import evolve
    from .observables import _moment_operators, trajectory_moments
    from .operators import all_up_state, build_algebra, dicke_state

    params, outputs, columns, times, m0, offset = task
    table = {"lambda": np.full(len(times), params.lam), "h": np.full(len(times), params.h),
             "t": times}
    record = {}
    if "hp" in outputs:
        table["c_r_hp"] = _hp_dynamics_curve(params, times, offset)
    if outputs & {"entanglement", "moments"}:
        algebra = build_algebra(params.n_atoms)
        rho0 = all_up_state(params.n_atoms) if m0 is None else dicke_state(params.n_atoms, m0)
        traj = evolve(build_gamma0(params, algebra), rho0, times,
                      observables=_moment_operators(algebra), keep_states=False)
        lo, hi = traj.window
        record = {"block_size": traj.block_size, "matvecs": traj.matvecs, "window": hi - lo}
        moments = trajectory_moments(traj.expectations, params.n_atoms)
        j2 = (params.n_atoms / 2.0) ** 2
        table["c_r"] = moments["c_r"]
        for name in ("jx2", "jy2", "jz2"):
            table[name] = moments[name] / j2
    return {"rows": {"dynamics": np.column_stack([table[col] for col in columns])},
            "record": record}


def _spectrum_point(task):
    (lam, h), cavity, nu = task
    params, cav = fig_cavity(lam=lam, h=h, **cavity)
    sysm = linear_system(params, cav, rotation_angles(selected_branch(params)))
    result = transmission(sysm, nu)
    return {"rows": {"spectrum": np.column_stack([result.nu, result.t_p, result.diverged])},
            "record": {"diverged_points": int(result.diverged.sum())}}


def _qfunc_point(task):
    from .observables import spin_qfunction
    from .operators import build_algebra

    params, thetas, phis = task
    algebra = build_algebra(params.n_atoms)
    rho, record = _steady_rho(params, algebra)
    grid = spin_qfunction(rho, algebra, thetas, phis)
    theta, phi = np.meshgrid(grid.thetas, grid.phis, indexing="ij")
    return {"rows": {"qfunc": np.column_stack([theta.ravel(), phi.ravel(), grid.values.ravel()])},
            "record": record}


# -- running and writing -------------------------------------------------------------


# The OpenBLAS copy each package bundles: (package, library glob, symbol suffix).
_BLAS_LIBS = (
    (np, "libscipy_openblas64_*.so", "64_"),
    (scipy, "libscipy_openblas*.so", ""),
)


def _blas_threads(count: int | None = None) -> dict:
    """Thread count of the OpenBLAS copies bundled with numpy and scipy.

    Sets each copy to ``count`` threads first if ``count`` is given.  A
    library or symbol that cannot be found (older wheels ship OpenBLAS under
    other names) is logged as a warning, left alone and reported as None.
    """
    threads = {}
    for package, pattern, suffix in _BLAS_LIBS:
        name = package.__name__
        libdir = Path(package.__file__).parent.parent / f"{name}.libs"
        threads[name] = None
        try:
            lib = ctypes.CDLL(str(sorted(libdir.glob(pattern))[0]))
            if count is not None:
                lib[f"scipy_openblas_set_num_threads{suffix}"](count)
            threads[name] = lib[f"scipy_openblas_get_num_threads{suffix}"]()
        except (IndexError, OSError, AttributeError) as exc:
            logger.warning("cannot reach the BLAS threads of %s: %s", name, exc)
    return threads


def _pin_blas() -> dict:
    """Set the bundled OpenBLAS copies to one thread each; returns :func:`_blas_threads`.

    Runs at the start of :func:`main` and in every pool worker, never at
    import: importing dlmg leaves a program's BLAS settings alone, while a
    program that calls :func:`main` in-process keeps the pin afterwards.
    """
    return _blas_threads(1)


def _timed(call):
    """Run one point in the worker and record its wall time as ``wall_s``.

    The result is the point function's dict with ``status`` ``"ok"``, or, if
    it raised, ``status`` ``"error"`` with the ``error`` and the ``residual``
    the exception carries (NaN if none).
    """
    worker, task = call
    start = time.perf_counter()
    try:
        result = {"status": "ok", **worker(task)}
    except Exception as exc:  # a failed point must not stop the sweep
        logger.debug("point failed", exc_info=True)
        result = {"status": "error", "error": f"{type(exc).__name__}: {exc}",
                  "residual": getattr(exc, "residual", np.nan)}
    result["wall_s"] = time.perf_counter() - start
    return result


def _run_pool(worker, tasks, jobs):
    """Results of ``worker`` on every task, in task order, over ``jobs`` processes."""
    calls = [(worker, t) for t in tasks]
    if jobs <= 1 or len(tasks) <= 1:
        return [_timed(call) for call in calls]
    with Pool(processes=min(jobs, len(tasks)), initializer=_pin_blas) as pool:
        return pool.map(_timed, calls)


def _point_records(plan: _Plan, results) -> list:
    records = []
    for index, ((value, n_atoms), r) in enumerate(zip(plan.coords, results)):
        rec = {"index": index, plan.variable: float(value), "status": r["status"],
               "wall_s": round(r["wall_s"], 6)}
        if n_atoms:
            rec["n_atoms"] = int(n_atoms)
        if r["status"] == "ok":
            rec.update(r.get("record", {}))
        else:
            rec["error"] = r["error"]
            if r["residual"] is not None and np.isfinite(r["residual"]):
                rec["residual"] = float(r["residual"])
        records.append(rec)
    return records


def _write_rows(path, header, columns, blocks):
    """Write one CSV file: ``# `` header lines, the column line, the rows of each block.

    A block is a numeric ndarray, formatted with one ``%`` template for all its
    cells, or a list of rows mixing strings and numbers, formatted cell by
    cell.  Both print a number as :func:`_fmt` does.
    """
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            if isinstance(block, np.ndarray):
                nrows, ncols = block.shape
                fh.write((",".join(["%.15g"] * ncols) + "\n") * nrows
                         % tuple(block.ravel().tolist()))
            else:
                fh.writelines(",".join(cell if isinstance(cell, str) else _fmt(cell)
                                       for cell in row) + "\n" for row in block)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlmg",
        description="Dissipative collective-spin model sweeps: steady states, dynamics, spectra, Q-functions.",
    )
    parser.add_argument("command", choices=sorted(_PLANNERS))
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (default: all cores)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    level = os.environ.get("DLMG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    blas_threads = _pin_blas()

    started = time.perf_counter()
    try:
        plan = _plan(args.command, _merged_config(args))
    except ValueError as exc:  # ConfigError, and the range checks of the parameter classes
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    results = _run_pool(plan.point, plan.tasks, args.jobs)
    points = _point_records(plan, results)
    failures = sum(1 for p in points if p["status"] != "ok")
    header = [f"dlmg {__version__}", *(f"{k} = {plan.config[k]}" for k in sorted(plan.config))]
    try:
        for name, kind, extra, columns, indices in plan.files:
            blocks = [results[i]["rows"][kind] for i in indices if results[i]["status"] == "ok"]
            _write_rows(outdir / name, header + extra, columns, blocks)
        manifest = {
            "command": args.command,
            "preset": args.preset,
            "version": __version__,
            "jobs": args.jobs,
            "blas_threads": blas_threads,
            "config": plan.config,
            "wall_time_s": round(time.perf_counter() - started, 6),
            "outputs": [name for name, *_ in plan.files],
            "points": points,
            "failures": failures,
        }
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, default=str)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    logger.info("wrote %d files to %s (%d failures)", len(plan.files) + 1, outdir, failures)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

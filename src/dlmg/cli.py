"""Command-line driver: parameter sweeps, dynamics, spectra, Q-functions.

    dlmg steady|dynamics|spectrum|qfunc [--config FILE] [--preset figN]
         [--jobs K] [--out DIR] [--gnuplot]

Configuration is a flat ``key = value`` file; a preset supplies a base block
that the config file overrides key by key.  Sweep points are independent
solves dispatched to a worker pool; results are collected and written in
point order.  The OpenBLAS copies bundled with numpy and scipy are set to one
thread in the main process and in every worker (threaded BLAS gains nothing
at these sizes, oversubscribes the cores of a pool and may change the last
printed digits), so identical configs produce byte-identical CSV files at
any ``--jobs`` wherever both copies could be pinned (no null in the
manifest's ``blas_threads``).  Every run writes a ``manifest.json``
recording the merged config, tool version, ``jobs``, the thread count each
BLAS library reports (``blas_threads``), wall time, output files, and
per-point diagnostics, including each point's wall time ``wall_s`` measured
in the worker and, for dynamics, the propagated ``block_size`` and the
``matvecs`` it took.  Exit code 0 means full success, 2 partial per-point
failures, 1 a configuration error.  The env var ``DLMG_LOG``
(debug/info/warning/error) selects log verbosity.
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
from .lindblad import evolve, steady_state
from .models import ConfigError, LMGParams, build_gamma0, model_params_from_config, parse_config_text
from .observables import entanglement_curve, hp_entanglement, spin_qfunction, trajectory_moments
from .operators import all_up_state, build_algebra, dicke_state, expectation
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

_CLI_PREFIXES = ("sweep.", "dynamics.", "spectrum.", "qfunc.")
_CLI_PLAIN = {"command", "outputs"}

SINGULAR_OFFSET = 1e-6


class PointFailure(RuntimeError):
    pass


def _fmt(x) -> str:
    return f"{x:.15g}"


def _split_config(cfg: dict):
    """Separate CLI-namespace keys from the model block."""
    cli_cfg, model_cfg = {}, {}
    for key, value in cfg.items():
        if key.startswith(_CLI_PREFIXES) or key in _CLI_PLAIN:
            cli_cfg[key] = value
        else:
            model_cfg[key] = value
    return cli_cfg, model_cfg


def _merged_config(args) -> dict:
    cfg = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        cfg.update(PRESETS[args.preset])
    if args.config:
        text = Path(args.config).read_text()
        cfg.update(parse_config_text(text))
    if not cfg:
        raise ConfigError("no configuration given: pass --config and/or --preset")
    return cfg


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


def _value_list(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _n_atoms_list(model_cfg: dict) -> list:
    raw = model_cfg.get("n_atoms", model_cfg.get("micro.n_atoms", ""))
    values = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    if not values:
        raise ConfigError("n_atoms must be given")
    return values


def _point_params(model_cfg: dict, n_atoms: int, variable: str, value: float) -> LMGParams:
    cfg = dict(model_cfg)
    cfg["n_atoms"] = str(n_atoms)
    cfg[variable] = _fmt(value)
    return model_params_from_config(cfg)


def _hp_steady(params: LMGParams, fp, offset: float = SINGULAR_OFFSET):
    """HP steady moments at a sweep point whose selected branch is ``fp``.

    Singular points get a small coupling offset, with the branch re-selected
    at the shifted coupling.
    """
    trials = ((params, fp), (dataclasses.replace(params, lam=params.lam + offset), None),
              (dataclasses.replace(params, lam=params.lam - offset), None))
    for trial, branch in trials:
        try:
            if branch is None:
                branch = selected_branch(trial)
            return moment_steady_state(hp_coefficients(trial, branch))
        except (NoStableGaussianState, ValueError):
            continue
    raise PointFailure("no stable Gaussian steady state near this point")


# -- steady ------------------------------------------------------------------


def _steady_point(task):
    index, model_cfg, n_atoms, variable, value, outputs, offset = task
    try:
        params = _point_params(model_cfg, n_atoms, variable, value)
        algebra = build_algebra(params.n_atoms)
        spec = build_gamma0(params, algebra)
        rho = steady_state(spec, tol=1e-10, check_unique=False)
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

        payload = {"row": row, "index": index}
        moments = None
        if outputs & {"entanglement", "cphi", "eigenvalues"}:
            try:
                moments = _hp_steady(params, fp_sel, offset)
            except PointFailure:
                pass
        if "entanglement" in outputs or "cphi" in outputs:
            ent = entanglement_curve(rho, algebra)
            row["c_r"] = ent.c_r
            row["phi_star"] = ent.phi_star
            row["c_r_hp"] = np.nan if moments is None else hp_entanglement(moments).c_r
            if "cphi" in outputs:
                payload["cphi"] = (ent.phi_grid, ent.c_phi)
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
            payload["semiclassical"] = [
                (params.lam, params.h, f.branch, f.state.x, f.state.y, f.state.z, f.stable)
                for f in fixed_points(params)
            ]
        return {"index": index, "status": "ok", "value": value, "n_atoms": n_atoms, "payload": payload}
    except Exception as exc:  # per-point failures must not kill the sweep
        residual = getattr(exc, "residual", np.nan)
        return {
            "index": index, "status": "error", "value": value, "n_atoms": n_atoms,
            "error": f"{type(exc).__name__}: {exc}", "residual": residual,
        }


def cmd_steady(cli_cfg, model_cfg, outdir, jobs, gnuplot):
    variable = cli_cfg.get("sweep.variable", "lambda")
    if variable not in ("lambda", "h"):
        raise ConfigError("sweep.variable must be 'lambda' or 'h'")
    values = _sweep_values(cli_cfg)
    outputs = set(cli_cfg.get("outputs", "moments,entanglement").split(","))
    offset = float(cli_cfg.get("sweep.singular_offset", str(SINGULAR_OFFSET)))
    n_list = _n_atoms_list(model_cfg)

    tasks = []
    index = 0
    for n_atoms in n_list:
        for value in values:
            tasks.append((index, model_cfg, n_atoms, variable, value, outputs, offset))
            index += 1
    results = _run_pool(_steady_point, tasks, jobs)

    files, points = [], []
    base_cols = ["lambda", "h", "jx2", "jy2", "jz2", "sc_x", "sc_y", "sc_z", "sc_branch"]
    if "entanglement" in outputs or "cphi" in outputs:
        base_cols += ["c_r", "c_r_hp", "phi_star"]
    if "eigenvalues" in outputs:
        base_cols += ["phase", "re_mu_p", "im_mu_p", "re_mu_m", "im_mu_m",
                      "n_ss", "re_m_ss", "im_m_ss"]
    for n_atoms in n_list:
        subset = [r for r in results if r["n_atoms"] == n_atoms]
        path = outdir / f"steady_N{n_atoms}.csv"
        _write_rows(path, cli_cfg, model_cfg, base_cols,
                    [r["payload"]["row"] for r in subset if r["status"] == "ok"])
        files.append(path)
        if "cphi" in outputs:
            cpath = outdir / f"cphi_N{n_atoms}.csv"
            with open(cpath, "w") as fh:
                _write_header(fh, cli_cfg, model_cfg)
                fh.write(f"{variable},phi,c_phi\n")
                for r in subset:
                    if r["status"] != "ok" or "cphi" not in r["payload"]:
                        continue
                    grid, curve = r["payload"]["cphi"]
                    for p, c in zip(grid, curve):
                        fh.write(f"{_fmt(r['value'])},{_fmt(p)},{_fmt(c)}\n")
            files.append(cpath)
        if "semiclassical" in outputs:
            spath = outdir / f"semiclassical_N{n_atoms}.csv"
            with open(spath, "w") as fh:
                _write_header(fh, cli_cfg, model_cfg)
                fh.write("lambda,h,branch,X,Y,Z,stable\n")
                for r in subset:
                    if r["status"] != "ok":
                        continue
                    for lam, h, branch, x, y, z, stable in r["payload"]["semiclassical"]:
                        fh.write(
                            f"{_fmt(lam)},{_fmt(h)},{branch},{_fmt(x)},{_fmt(y)},{_fmt(z)},{int(stable)}\n"
                        )
            files.append(spath)
    points = _point_records(results, variable)
    if gnuplot:
        files += _gnuplot_script(outdir, "steady", [f for f in files if f.suffix == ".csv"])
    return files, points


# -- dynamics ------------------------------------------------------------------


def _dynamics_point(task):
    index, model_cfg, n_atoms, variable, value, outputs, times, m0, offset = task
    try:
        params = _point_params(model_cfg, n_atoms, variable, value)
        rows, record = [], {}
        hp_cr = None
        if "hp" in outputs:
            hp_cr = _hp_dynamics_curve(params, times, offset)
        if outputs - {"hp"}:
            algebra = build_algebra(params.n_atoms)
            spec = build_gamma0(params, algebra)
            rho0 = all_up_state(params.n_atoms) if m0 is None else dicke_state(params.n_atoms, m0)
            traj = evolve(spec, rho0, times)
            record = {"block_size": traj.block_size, "matvecs": traj.matvecs}
            moments = trajectory_moments(traj.states, algebra)
            j2 = (params.n_atoms / 2.0) ** 2
            for k, t in enumerate(times):
                row = {"lambda": params.lam, "h": params.h, "t": t}
                if "entanglement" in outputs:
                    row["c_r"] = moments["c_r"][k]
                if "moments" in outputs:
                    row["jx2"] = moments["jx2"][k] / j2
                    row["jy2"] = moments["jy2"][k] / j2
                    row["jz2"] = moments["jz2"][k] / j2
                if hp_cr is not None:
                    row["c_r_hp"] = hp_cr[k]
                rows.append(row)
        else:
            for k, t in enumerate(times):
                rows.append({"lambda": params.lam, "h": params.h, "t": t, "c_r_hp": hp_cr[k]})
        return {"index": index, "status": "ok", "value": value, "n_atoms": n_atoms,
                "payload": {"rows": rows}, "record": record}
    except Exception as exc:
        return {"index": index, "status": "error", "value": value, "n_atoms": n_atoms,
                "error": f"{type(exc).__name__}: {exc}",
                "residual": getattr(exc, "residual", np.nan)}


def _hp_dynamics_curve(params: LMGParams, times, offset: float = SINGULAR_OFFSET) -> list:
    """C_R^HP(t) from vacuum initial moments about the selected branch."""
    for trial in (params, dataclasses.replace(params, lam=params.lam + offset),
                  dataclasses.replace(params, lam=params.lam - offset)):
        try:
            fp = selected_branch(trial)
            coeffs = hp_coefficients(trial, fp)
            states = evolve_moments(coeffs, MomentState(n=0.0, m=0.0), times)
            return [hp_entanglement(s).c_r for s in states]
        except ValueError:
            continue
    raise PointFailure("no HP linearization available at this point")


def cmd_dynamics(cli_cfg, model_cfg, outdir, jobs, gnuplot):
    variable = cli_cfg.get("sweep.variable", "lambda")
    if variable not in ("lambda", "h"):
        raise ConfigError("sweep.variable must be 'lambda' or 'h'")
    values = _sweep_values(cli_cfg)
    outputs = set(cli_cfg.get("outputs", "entanglement").split(","))
    t_end = float(cli_cfg.get("dynamics.t_end", "10.0"))
    t_points = int(cli_cfg.get("dynamics.t_points", "101"))
    m0 = cli_cfg.get("dynamics.initial_m")
    m0 = float(m0) if m0 is not None else None
    offset = float(cli_cfg.get("sweep.singular_offset", str(SINGULAR_OFFSET)))
    times = np.linspace(0.0, t_end, t_points)
    n_list = _n_atoms_list(model_cfg)

    tasks = []
    for i, n_atoms in enumerate(n_list):
        for k, value in enumerate(values):
            tasks.append((i * len(values) + k, model_cfg, n_atoms, variable, value, outputs, times, m0, offset))
    results = _run_pool(_dynamics_point, tasks, jobs)

    cols = ["lambda", "h", "t"]
    if "entanglement" in outputs:
        cols.append("c_r")
    if "moments" in outputs:
        cols += ["jx2", "jy2", "jz2"]
    if "hp" in outputs:
        cols.append("c_r_hp")
    files = []
    for n_atoms in n_list:
        subset = [r for r in results if r["n_atoms"] == n_atoms]
        rows = []
        for r in subset:
            if r["status"] == "ok":
                rows.extend(r["payload"]["rows"])
        path = outdir / f"dynamics_N{n_atoms}.csv"
        _write_rows(path, cli_cfg, model_cfg, cols, rows)
        files.append(path)
    if gnuplot:
        files += _gnuplot_script(outdir, "dynamics", [f for f in files if f.suffix == ".csv"])
    return files, _point_records(results, variable)


# -- spectrum ------------------------------------------------------------------


def _spectrum_point(task):
    index, cfg, variable, value = task
    try:
        h = float(cfg.get("h", "1.0"))
        lam = float(cfg.get("lambda", "1.0"))
        if variable == "lambda":
            lam = value
        else:
            h = value
        params, cavity = fig_cavity(
            lam=lam,
            h=h,
            gamma_b=float(cfg.get("spectrum.gamma_b", "0.05")),
            kappa_a=float(cfg.get("spectrum.kappa_a", "0.3")),
            delta_a=float(cfg.get("spectrum.delta_a", "15.0")),
            kappa_b=float(cfg.get("spectrum.kappa_b", "15.0")),
            delta_b=float(cfg.get("spectrum.delta_b", "0.0")),
        )
        nu = np.linspace(
            float(cfg.get("spectrum.nu_min", "-3.0")),
            float(cfg.get("spectrum.nu_max", "3.0")),
            int(cfg.get("spectrum.nu_points", "2001")),
        )
        fp = selected_branch(params)
        sysm = linear_system(params, cavity, rotation_angles(fp))
        result = transmission(sysm, None, nu)
        return {"index": index, "status": "ok", "value": value,
                "n_atoms": 0, "payload": {"result": result},
                "record": {"diverged_points": int(result.diverged.sum())}}
    except Exception as exc:
        return {"index": index, "status": "error", "value": value, "n_atoms": 0,
                "error": f"{type(exc).__name__}: {exc}", "residual": np.nan}


def cmd_spectrum(cli_cfg, model_cfg, outdir, jobs, gnuplot):
    variable = cli_cfg.get("sweep.variable", "lambda")
    raw = cli_cfg.get("spectrum.values")
    if raw is None:
        raise ConfigError("spectrum requires spectrum.values (comma-separated)")
    values = _value_list(raw)
    cfg = {**cli_cfg, **model_cfg}
    tasks = [(i, cfg, variable, v) for i, v in enumerate(values)]
    results = _run_pool(_spectrum_point, tasks, jobs)

    files = []
    for r in sorted(results, key=lambda r: r["index"]):
        if r["status"] != "ok":
            continue
        tag = _fmt(r["value"]).replace("-", "m").replace(".", "p")
        path = outdir / f"spectrum_{variable}_{tag}.csv"
        with open(path, "w") as fh:
            _write_header(fh, cli_cfg, model_cfg)
            fh.write(f"# {variable} = {_fmt(r['value'])}\n")
            fh.write("nu,t_p,diverged\n")
            res = r["payload"]["result"]
            for nu, tp, dv in zip(res.nu, res.t_p, res.diverged):
                fh.write(f"{_fmt(nu)},{_fmt(tp)},{int(dv)}\n")
        files.append(path)
    if gnuplot:
        files += _gnuplot_script(outdir, "spectrum", [f for f in files if f.suffix == ".csv"])
    return files, _point_records(results, variable)


# -- qfunc ---------------------------------------------------------------------


def _qfunc_point(task):
    index, model_cfg, n_atoms, variable, value, n_theta, n_phi = task
    try:
        params = _point_params(model_cfg, n_atoms, variable, value)
        algebra = build_algebra(params.n_atoms)
        spec = build_gamma0(params, algebra)
        rho = steady_state(spec, tol=1e-10, check_unique=False)
        thetas = np.linspace(0.0, np.pi, n_theta)
        phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        grid = spin_qfunction(rho, algebra, thetas, phis)
        return {"index": index, "status": "ok", "value": value, "n_atoms": n_atoms,
                "payload": {"grid": grid}}
    except Exception as exc:
        return {"index": index, "status": "error", "value": value, "n_atoms": n_atoms,
                "error": f"{type(exc).__name__}: {exc}",
                "residual": getattr(exc, "residual", np.nan)}


def cmd_qfunc(cli_cfg, model_cfg, outdir, jobs, gnuplot):
    variable = cli_cfg.get("sweep.variable", "lambda")
    raw = cli_cfg.get("qfunc.values")
    if raw is None:
        raise ConfigError("qfunc requires qfunc.values (comma-separated)")
    values = _value_list(raw)
    n_theta = int(cli_cfg.get("qfunc.n_theta", "61"))
    n_phi = int(cli_cfg.get("qfunc.n_phi", "121"))
    n_atoms = _n_atoms_list(model_cfg)[0]
    tasks = [(i, model_cfg, n_atoms, variable, v, n_theta, n_phi) for i, v in enumerate(values)]
    results = _run_pool(_qfunc_point, tasks, jobs)

    files = []
    for r in sorted(results, key=lambda r: r["index"]):
        if r["status"] != "ok":
            continue
        tag = _fmt(r["value"]).replace("-", "m").replace(".", "p")
        path = outdir / f"qfunc_{variable}_{tag}.csv"
        with open(path, "w") as fh:
            _write_header(fh, cli_cfg, model_cfg)
            fh.write(f"# {variable} = {_fmt(r['value'])}\n")
            fh.write("theta,phi,q\n")
            grid = r["payload"]["grid"]
            for i, th in enumerate(grid.thetas):
                for j, ph in enumerate(grid.phis):
                    fh.write(f"{_fmt(th)},{_fmt(ph)},{_fmt(grid.values[i, j])}\n")
        files.append(path)
    if gnuplot:
        files += _gnuplot_script(outdir, "qfunc", [f for f in files if f.suffix == ".csv"])
    return files, _point_records(results, variable)


# -- shared plumbing -----------------------------------------------------------


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
    """Run one point in the worker and record its wall time as ``wall_s``."""
    worker, task = call
    start = time.perf_counter()
    result = worker(task)
    result["wall_s"] = time.perf_counter() - start
    return result


def _run_pool(worker, tasks, jobs):
    calls = [(worker, t) for t in tasks]
    if jobs <= 1 or len(tasks) <= 1:
        results = [_timed(call) for call in calls]
    else:
        with Pool(processes=min(jobs, len(tasks)), initializer=_pin_blas) as pool:
            results = pool.map(_timed, calls)
    return sorted(results, key=lambda r: r["index"])


def _point_records(results, variable):
    records = []
    for r in results:
        rec = {"index": r["index"], variable: float(r["value"]), "status": r["status"],
               "wall_s": round(r["wall_s"], 6)}
        if r.get("n_atoms"):
            rec["n_atoms"] = int(r["n_atoms"])
        if r["status"] != "ok":
            rec["error"] = r.get("error", "")
            residual = r.get("residual", np.nan)
            if residual is not None and np.isfinite(residual):
                rec["residual"] = float(residual)
        else:
            rec.update(r.get("record", {}))
        records.append(rec)
    return records


def _write_header(fh, cli_cfg, model_cfg):
    fh.write(f"# dlmg {__version__}\n")
    for key in sorted({**model_cfg, **cli_cfg}):
        value = {**model_cfg, **cli_cfg}[key]
        fh.write(f"# {key} = {value}\n")


def _write_rows(path, cli_cfg, model_cfg, cols, rows):
    with open(path, "w") as fh:
        _write_header(fh, cli_cfg, model_cfg)
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for col in cols:
                val = row.get(col, np.nan)
                cells.append(val if isinstance(val, str) else _fmt(val))
            fh.write(",".join(cells) + "\n")


def _gnuplot_script(outdir, command, csv_files):
    path = outdir / f"plot_{command}.gp"
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\nset key autotitle columnhead\n")
        for f in csv_files:
            fh.write(f"# plot '{f.name}' using 1:2 with lines\n")
    return [path]


_COMMANDS = {
    "steady": cmd_steady,
    "dynamics": cmd_dynamics,
    "spectrum": cmd_spectrum,
    "qfunc": cmd_qfunc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlmg",
        description="Dissipative collective-spin model sweeps: steady states, dynamics, spectra, Q-functions.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (default: all cores)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--gnuplot", action="store_true", help="emit companion gnuplot scripts")
    args = parser.parse_args(argv)

    level = os.environ.get("DLMG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    blas_threads = _pin_blas()

    started = time.perf_counter()
    try:
        cfg = _merged_config(args)
        preset_cmd = cfg.pop("command", None)
        if preset_cmd and preset_cmd != args.command:
            logger.info("preset is for %s, running %s as requested", preset_cmd, args.command)
        cli_cfg, model_cfg = _split_config(cfg)
        # Validate the model block up front so typos exit with code 1.
        probe = dict(model_cfg)
        try:
            probe["n_atoms"] = str(_n_atoms_list(model_cfg)[0])
        except ConfigError:
            probe["n_atoms"] = "1"  # spectra derive their own parameters
        model_params_from_config(probe)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        files, points = _COMMANDS[args.command](cli_cfg, model_cfg, outdir, args.jobs, args.gnuplot)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    failures = sum(1 for p in points if p["status"] != "ok")

    manifest = {
        "command": args.command,
        "preset": args.preset,
        "version": __version__,
        "jobs": args.jobs,
        "blas_threads": blas_threads,
        "config": {**model_cfg, **cli_cfg},
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [f.name for f in files],
        "points": points,
        "failures": failures,
    }
    manifest_path = outdir / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)
    for f in [*files, manifest_path]:
        if not Path(f).exists():
            print(f"internal error: missing output {f}", file=sys.stderr)
            return 1
    logger.info("wrote %d files to %s (%d failures)", len(files) + 1, outdir, failures)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI: config handling, determinism, manifest contract, exit codes, presets."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlmg import cli
from dlmg.presets import PRESETS

FAST_STEADY = {
    "command": "steady",
    "n_atoms": "6",
    "h": "1.0",
    "gamma_a": "0.01",
    "gamma_b": "0.2",
    "sweep.variable": "lambda",
    "sweep.start": "0.4",
    "sweep.stop": "1.6",
    "sweep.points": "4",
    "outputs": "moments,entanglement",
}


def write_config(tmp_path, cfg, name="run.cfg"):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


def test_exit_code_zero_and_outputs(tmp_path):
    cfg = write_config(tmp_path, FAST_STEADY)
    out = tmp_path / "out"
    rc = cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == 0
    assert manifest["command"] == "steady"
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert len(manifest["points"]) == 4
    assert all(p["status"] == "ok" for p in manifest["points"])


TINY_MODEL = {"n_atoms": "6", "h": "1.0", "gamma_a": "0.01", "gamma_b": "0.2",
              "sweep.variable": "lambda"}
TINY_RUNS = {
    "steady": FAST_STEADY,
    "dynamics": {**TINY_MODEL, "sweep.start": "0.5", "sweep.stop": "1.5", "sweep.points": "3",
                 "dynamics.t_end": "2.0", "dynamics.t_points": "5"},
    "spectrum": {"h": "1.0", "sweep.variable": "lambda", "spectrum.values": "0.3,0.6,1.2",
                 "spectrum.nu_points": "51"},
    "qfunc": {**TINY_MODEL, "qfunc.values": "0.5,1.5", "qfunc.n_theta": "9", "qfunc.n_phi": "8"},
}


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_manifest_records_point_wall_times(tmp_path, command):
    cfg = write_config(tmp_path, TINY_RUNS[command])
    out = tmp_path / command
    rc = cli.main([command, "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    times = [p["wall_s"] for p in manifest["points"]]
    assert len(times) >= 2 and all(t > 0.0 for t in times)
    assert sum(times) <= manifest["wall_time_s"]


LAYOUT_RUNS = {
    "steady": {**FAST_STEADY, "n_atoms": "4", "sweep.points": "3",
               "outputs": "moments,entanglement,cphi,eigenvalues,semiclassical"},
    "dynamics": {**TINY_RUNS["dynamics"], "n_atoms": "4", "outputs": "entanglement,moments,hp"},
    "spectrum": TINY_RUNS["spectrum"],
    "qfunc": {**TINY_RUNS["qfunc"], "n_atoms": "4"},
}


def _csv_layout(path):
    """(comment lines, column line, number of data rows) of one CSV file."""
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = lines[len(comments):]
    return comments, body[0], len(body) - 1


@pytest.mark.parametrize("command", sorted(LAYOUT_RUNS))
def test_csv_layout_of_every_output(tmp_path, command):
    from dlmg import __version__
    from dlmg.models import model_params_from_config
    from dlmg.semiclassical import fixed_points

    cfg = LAYOUT_RUNS[command]
    out = tmp_path / command
    assert cli.main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--jobs", "1", "--out", str(out)]) == 0
    header = [f"# dlmg {__version__}"] + [f"# {k} = {cfg[k]}" for k in sorted(cfg)
                                          if k != "command"]
    if command == "steady":
        lams = [0.4, 1.0, 1.6]
        n_fixed = sum(len(fixed_points(model_params_from_config(
            {"n_atoms": "4", "h": "1.0", "gamma_a": "0.01", "gamma_b": "0.2",
             "lambda": str(lam)}))) for lam in lams)
        expected = {
            "steady_N4.csv": ("lambda,h,jx2,jy2,jz2,sc_x,sc_y,sc_z,sc_branch,c_r,c_r_hp,"
                              "phi_star,phase,re_mu_p,im_mu_p,re_mu_m,im_mu_m,n_ss,re_m_ss,"
                              "im_m_ss", 3, []),
            "cphi_N4.csv": ("lambda,phi,c_phi", 3 * 720, []),
            "semiclassical_N4.csv": ("lambda,h,branch,X,Y,Z,stable", n_fixed, []),
        }
    elif command == "dynamics":
        expected = {"dynamics_N4.csv": ("lambda,h,t,c_r,jx2,jy2,jz2,c_r_hp", 3 * 5, [])}
    elif command == "spectrum":
        expected = {f"spectrum_lambda_{tag}.csv": ("nu,t_p,diverged", 51, [f"# lambda = {v}"])
                    for tag, v in (("0p3", "0.3"), ("0p6", "0.6"), ("1p2", "1.2"))}
    else:
        expected = {f"qfunc_lambda_{tag}.csv": ("theta,phi,q", 9 * 8, [f"# lambda = {v}"])
                    for tag, v in (("0p5", "0.5"), ("1p5", "1.5"))}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == list(expected)
    assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "manifest.json"])
    for name, (columns, n_rows, extra) in expected.items():
        assert _csv_layout(out / name) == (header + extra, columns, n_rows)


def test_exit_code_one_on_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {**FAST_STEADY, "lambdah": "1.0"})
    rc = cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, jobs", [(command, cfg, "1") for command, cfg in [
    ("steady", {**FAST_STEADY, "model": "isotropic"}),
    ("steady", {**FAST_STEADY, "model": "conventional"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "sweep.variable": "gamma_a"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "sweep.variable": "gamma_a"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "dynamics.t_ned": "3"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.nu_point": "11"}),
    ("steady", {**FAST_STEADY, "outputs": "moments,entanglment"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.kappa_a": "0.3x"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "n_atoms": "4,6"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "n_atoms": "4", "dynamics.initial_m": "0.3"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "gamma_a": "0.01"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "gamma_b": "0.2"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "n_atoms": "50"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "micro.kappa_a": "0.3"}),
    ("steady", {k: v for k, v in FAST_STEADY.items() if not k.startswith("gamma")}),
    ("qfunc", {**TINY_RUNS["qfunc"], "gamma_a": "0", "gamma_b": "0.0"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "dynamics.t_points": "0"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "dynamics.t_end": "0"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "dynamics.t_end": "-1.5"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "qfunc.n_theta": "0"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "qfunc.n_phi": "-2"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.nu_points": "0"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.values": "0.3,0.30,0.6"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "qfunc.values": "0.5,0.50"}),
    ("steady", {**FAST_STEADY, "gamma_a": "nan"}),
    ("steady", {**FAST_STEADY, "h": "nan"}),
    ("steady", {**FAST_STEADY, "gamma_b": "inf"}),
    ("steady", {**FAST_STEADY, "sweep.stop": "inf"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.kappa_a": "nan"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.values": "0.5,nan"}),
    ("steady", {**FAST_STEADY, "sweep.start": "-0.4"}),
    ("dynamics", {**TINY_RUNS["dynamics"], "sweep.start": "-0.5", "outputs": "hp"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.values": "-0.3,0.6",
                  "spectrum.delta_a": "-15"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.kappa_a": "0"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.delta_a": "0"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.kappa_b": "0"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.delta_a": "-15"}),
    ("spectrum", {**TINY_RUNS["spectrum"], "spectrum.gamma_b": "-0.1"}),
    ("steady", {**FAST_STEADY, "micro.kappa_a": "0.5+3j"}),
    ("steady", {**FAST_STEADY, "sweep.singular_offset": "1e-6"}),
]] + [
    ("steady", FAST_STEADY, "0"),
    ("steady", FAST_STEADY, "-2"),
], ids=["isotropic", "conventional", "spectrum-variable", "qfunc-variable",
        "dynamics-key", "spectrum-key", "outputs-name", "spectrum-number", "qfunc-n-list",
        "dynamics-initial-m", "spectrum-gamma-a", "spectrum-gamma-b", "spectrum-n-atoms",
        "spectrum-micro", "steady-no-dissipation", "qfunc-no-dissipation",
        "dynamics-no-times", "dynamics-zero-t-end", "dynamics-negative-t-end",
        "qfunc-no-theta", "qfunc-negative-phi", "spectrum-no-nu", "spectrum-repeated-value",
        "qfunc-repeated-value", "steady-nan-gamma-a", "steady-nan-h", "steady-inf-gamma-b",
        "steady-inf-sweep-stop", "spectrum-nan-kappa-a", "spectrum-nan-value",
        "steady-negative-lambda", "dynamics-hp-negative-lambda", "spectrum-negative-lambda",
        "spectrum-zero-kappa-a", "spectrum-zero-delta-a", "spectrum-zero-kappa-b",
        "spectrum-negative-delta-a", "spectrum-negative-gamma-b", "steady-complex-micro-kappa-a",
        "steady-singular-offset", "jobs-zero", "jobs-negative"])
def test_rejected_config_exits_one_and_writes_nothing(tmp_path, capsys, command, cfg, jobs):
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(write_config(tmp_path, cfg)), "--jobs", jobs,
                   "--out", str(out)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_single_point_grids_are_planned():
    # One output time is t = 0 whatever t_end is; one angle or one frequency is a grid too.
    cfg = {**TINY_RUNS["dynamics"], "dynamics.t_points": "1", "dynamics.t_end": "0"}
    assert cli._plan("dynamics", cfg).tasks[0][3].tolist() == [0.0]
    cfg = {**TINY_RUNS["qfunc"], "qfunc.n_theta": "1", "qfunc.n_phi": "1"}
    assert [len(grid) for grid in cli._plan("qfunc", cfg).tasks[0][1:]] == [1, 1]
    cfg = {**TINY_RUNS["spectrum"], "spectrum.nu_points": "1"}
    assert len(cli._plan("spectrum", cfg).tasks[0][1]) == 1


def test_dynamics_without_dissipation_is_planned():
    # Zero rates leave unitary evolution, which dynamics runs; only the steady
    # state needs a dissipator.
    cfg = {k: v for k, v in TINY_RUNS["dynamics"].items() if not k.startswith("gamma")}
    assert len(cli._plan("dynamics", cfg).tasks) == 3


@pytest.mark.parametrize("command, cfg", [
    ("dynamics", {**TINY_RUNS["dynamics"], "sweep.start": "-0.5", "dynamics.t_points": "2"}),
    ("qfunc", {**TINY_RUNS["qfunc"], "qfunc.values": "-0.5,0.5"}),
], ids=["dynamics", "qfunc"])
def test_negative_lambda_runs_where_no_mean_field_is_read(tmp_path, command, cfg):
    # Only the mean-field branch needs lambda >= 0; the finite-N solves take any lambda.
    rc = cli.main([command, "--config", str(write_config(tmp_path, cfg)), "--jobs", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 0


def test_spectrum_gamma_b_error_names_the_cavity_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY_RUNS["spectrum"], "gamma_b": "0.2"})
    rc = cli.main(["spectrum", "--config", str(cfg), "--jobs", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "spectrum.gamma_b" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["out", "csv"])
def test_unwritable_output_is_an_output_error(tmp_path, capsys, blocked):
    # A file where --out should be fails the mkdir; a directory where the CSV
    # should be fails the write after the points ran.
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("")
    else:
        (out / "steady_N6.csv").mkdir(parents=True)
    rc = cli.main(["steady", "--config", str(write_config(tmp_path, FAST_STEADY)),
                   "--jobs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "output error" in err and "config error" not in err


@pytest.mark.parametrize("argv", [
    ["bogus"],
    [],
    ["steady", "--preset", "fig3", "--jobs", "abc"],
    ["steady", "--preset", "fig3", "--bogus"],
], ids=["unknown-command", "no-command", "bad-flag-value", "unknown-flag"])
def test_usage_error_exits_one(tmp_path, capsys, argv):
    # Exit code 2, argparse's own for a usage error, means failed points here.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dlmg") and "dlmg: error: " in err
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dlmg")


def test_exit_code_one_without_config():
    assert cli.main(["steady", "--out", "/tmp/nowhere_dlmg"]) == 1


def test_exit_code_two_on_point_failure(tmp_path, monkeypatch):
    from dlmg import lindblad
    from dlmg.lindblad import SteadyStateError

    real = lindblad.steady_solution
    calls = {"n": 0}

    def flaky(spec, **kw):
        calls["n"] += 1
        if calls["n"] == 4:  # jobs=1 runs points in order; fail the last one
            raise SteadyStateError("forced failure", residual=1.0)
        return real(spec, **kw)

    monkeypatch.setattr(lindblad, "steady_solution", flaky)
    cfg = write_config(tmp_path, FAST_STEADY)
    out = tmp_path / "out2"
    rc = cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] >= 1
    failed = [p for p in manifest["points"] if p["status"] != "ok"]
    assert failed and "forced failure" in failed[0]["error"]
    assert failed[0]["residual"] == 1.0
    # run continued: remaining points are present in the CSV
    csv = (out / "steady_N6.csv").read_text()
    assert csv.count("\n") > 3


@pytest.mark.parametrize("command", ["steady", "qfunc"])
def test_unphysical_steady_state_fails_its_point(tmp_path, monkeypatch, command):
    from dlmg import lindblad
    from dlmg.lindblad import SteadySolution

    real = lindblad.steady_solution

    def negative(spec, **kw):
        sol = real(spec, **kw)
        rho = sol.rho.copy()
        rho[0, 0] += 0.1
        rho[-1, -1] -= 0.1  # keeps the trace, leaves an eigenvalue near -0.1
        return SteadySolution(rho, sol.window, sol.residual)

    monkeypatch.setattr(lindblad, "steady_solution", negative)
    cfg = write_config(tmp_path, {**TINY_RUNS[command], "n_atoms": "4"})
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    points = manifest["points"]
    assert manifest["failures"] == len(points) >= 2
    assert all("unphysical steady state: state not positive" in p["error"] for p in points)
    assert all(p["residual"] <= 1e-10 for p in points)
    for name in manifest["outputs"]:
        lines = (out / name).read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 1  # the column line only


@pytest.mark.parametrize("failure", ["singular", "missed"])
def test_failed_steady_solve_fails_its_point(tmp_path, monkeypatch, failure):
    # The CLI skips the uniqueness probes, yet a singular block solve still fails the point.
    from dlmg import lindblad

    real = lindblad._solve_block

    def broken(lv_r, trace, row):
        if failure == "singular":
            raise RuntimeError("Factor is exactly singular")
        vec, nnz = real(lv_r, trace, row)
        vec[trace[1]] += 1e-3
        return vec, nnz

    monkeypatch.setattr(lindblad, "_solve_block", broken)
    cfg = write_config(tmp_path, {**FAST_STEADY, "n_atoms": "4", "outputs": "moments"})
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 2
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert len(points) >= 2 and all(p["status"] == "error" for p in points)
    if failure == "singular":
        assert all(p["error"].startswith("NonUniqueSteadyStateError") for p in points)
        assert not any("residual" in p for p in points)
    else:
        assert all(p["error"].startswith("SteadyStateError: steady state did not converge")
                   for p in points)
        assert all(p["residual"] > 1e-10 for p in points)


def _levels(point) -> int:
    """The level count of a manifest point's window, recorded as [lo, hi]."""
    lo, hi = point["window"]
    return hi - lo


@pytest.mark.parametrize("n_atoms,max_window", [(4, 5), (60, 61)])
def test_steady_manifest_records_window_and_residual(tmp_path, n_atoms, max_window):
    cfg = write_config(tmp_path, {**FAST_STEADY, "n_atoms": str(n_atoms), "sweep.points": "3",
                                  "outputs": "moments"})
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert len(points) == 3
    assert all(p["residual"] <= 1e-10 for p in points)
    if n_atoms == 4:
        assert all(p["window"] == [0, 5] for p in points)
    else:
        assert all(40 <= _levels(p) <= max_window for p in points)
        assert min(_levels(p) for p in points) < max_window  # the window did not always fill


def test_qfunc_manifest_records_window_and_residual(tmp_path):
    cfg = write_config(tmp_path, {**TINY_RUNS["qfunc"], "n_atoms": "4"})
    out = tmp_path / "out"
    assert cli.main(["qfunc", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert all(p["window"] == [0, 5] and p["residual"] <= 1e-10 for p in points)


def _record_fill(monkeypatch) -> list:
    """The L+U entries of every steady-state factorization from here on, in call order."""
    from dlmg import lindblad

    nnz, factorize = [], lindblad._factorize

    def recording(mat):
        lu = factorize(mat)
        nnz.append(lu.nnz)
        return lu

    monkeypatch.setattr(lindblad, "_factorize", recording)
    return nnz


def test_steady_manifest_records_windows_and_fill(tmp_path, monkeypatch):
    # At N=100, lambda=1.46 the state fills the ladder: 40 and 60 levels fail first.
    nnz = _record_fill(monkeypatch)
    cfg = write_config(tmp_path, {**FAST_STEADY, "n_atoms": "100", "sweep.start": "1.46",
                                  "sweep.stop": "1.5", "sweep.points": "2", "outputs": "moments"})
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    point = json.loads((out / "manifest.json").read_text())["points"][0]
    assert point["windows"] == [40, 60, 101] and point["window"] == [0, 101]
    assert point["lu_nnz"] == nnz[2]


def test_qfunc_manifest_records_windows_and_fill(tmp_path, monkeypatch):
    nnz = _record_fill(monkeypatch)
    cfg = write_config(tmp_path, {**TINY_RUNS["qfunc"], "n_atoms": "4"})
    out = tmp_path / "out"
    assert cli.main(["qfunc", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert [p["windows"] for p in points] == [[5], [5]]
    assert [p["lu_nnz"] for p in points] == nnz and all(n > 0 for n in nnz)


def test_subnormal_field_runs(tmp_path):
    # y = Gamma_b x / (2h) * z overflowed for 0 < |h| < 2.2e-308, and every
    # point failed in the stability check of the broken pair.
    cfg = write_config(tmp_path, {**FAST_STEADY, "n_atoms": "4", "h": "1e-310", "sweep.points": "3",
                                  "outputs": "moments,entanglement,eigenvalues,semiclassical"})
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, FAST_STEADY)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli.main(["steady", "--config", str(cfg), "--jobs", "2", "--out", str(out)])
        assert rc == 0
        outs.append((out / "steady_N6.csv").read_bytes())
    assert outs[0] == outs[1]


def test_jobs_one_and_two_give_byte_identical_csv(tmp_path):
    # Each run is a fresh interpreter with default (unset) BLAS threading, so
    # the CLI's own pinning is what makes the two runs agree.
    cfg = write_config(tmp_path, {**FAST_STEADY, "n_atoms": "30", "sweep.start": "0.6",
                                  "outputs": "entanglement,eigenvalues"})
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        subprocess.run([sys.executable, "-m", "dlmg.cli", "steady", "--config", str(cfg),
                        "--jobs", jobs, "--out", str(out)], env=env, check=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["jobs"] == int(jobs)
        assert manifest["blas_threads"] == {"numpy": 1, "scipy": 1}
        csvs.append((out / "steady_N30.csv").read_bytes())
    assert csvs[0].count(b"\n") > 4 and csvs[0] == csvs[1]


# scipy subpackages that cost a fresh interpreter about 0.4 s together.  The
# spectrum command needs none of them; steady, dynamics and qfunc load the
# sparse engine (scipy.sparse and scipy.linalg) when they plan their run.
_HEAVY_SCIPY = ("scipy.sparse", "scipy.linalg", "scipy.special", "scipy.integrate",
                "scipy.optimize")


def _loaded_heavy_scipy(code: str) -> list:
    """The modules of ``_HEAVY_SCIPY`` loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys; print(','.join(m for m in {_HEAVY_SCIPY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [m for m in out.splitlines()[-1].split(",") if m]


def test_import_leaves_unused_scipy_subpackages_unloaded():
    assert _loaded_heavy_scipy("import dlmg.cli") == []


def test_spectrum_run_leaves_scipy_subpackages_unloaded(tmp_path):
    cfg = write_config(tmp_path, TINY_RUNS["spectrum"])
    run = (f"from dlmg import cli\n"
           f"assert cli.main(['spectrum', '--config', {str(cfg)!r}, '--jobs', '1', "
           f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _loaded_heavy_scipy(run) == []
    assert len(list((tmp_path / "out").glob("spectrum_*.csv"))) == 3


def test_qfunc_run_loads_the_sparse_engine_alone(tmp_path):
    # The coherent-state amplitudes take exact integer binomials, not scipy.special.
    cfg = write_config(tmp_path, TINY_RUNS["qfunc"])
    run = (f"from dlmg import cli\n"
           f"assert cli.main(['qfunc', '--config', {str(cfg)!r}, '--jobs', '1', "
           f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _loaded_heavy_scipy(run) == ["scipy.sparse", "scipy.linalg"]
    assert len(list((tmp_path / "out").glob("qfunc_*.csv"))) == 2


@pytest.mark.parametrize("command", ["steady", "dynamics", "qfunc"])
def test_engine_commands_load_the_engine_when_planning(tmp_path, command):
    # Loaded in the main process before the pool forks, so no worker imports it again.
    cfg = write_config(tmp_path, TINY_RUNS[command])
    plan = f"from dlmg import cli\ncli._plan({command!r}, cli.parse_config_text(open({str(cfg)!r}).read()))"
    loaded = set(_loaded_heavy_scipy(plan))
    assert {"scipy.sparse", "scipy.linalg"} <= loaded
    if command == "qfunc":  # exact binomials give the coherent-state amplitudes
        assert "scipy.special" not in loaded


@pytest.mark.parametrize("command", ["steady", "dynamics", "qfunc"])
def test_engine_points_run_in_a_spawned_pool(tmp_path, monkeypatch, command):
    # A spawned worker imports dlmg.cli afresh and does not inherit the engine
    # the planner loaded, so each point function must import what it uses.
    cfg = write_config(tmp_path, TINY_RUNS[command])
    plan = cli._plan(command, cli.parse_config_text(cfg.read_text()))
    serial = cli._run_pool(plan.point, plan.tasks, 1)
    monkeypatch.setattr(cli, "Pool", multiprocessing.get_context("spawn").Pool)
    spawned = cli._run_pool(plan.point, plan.tasks, 2)
    assert [r["status"] for r in spawned] == ["ok"] * len(plan.tasks)
    for one, two in zip(serial, spawned):
        assert one["rows"].keys() == two["rows"].keys()
        for kind, block in one["rows"].items():
            if isinstance(block, np.ndarray):
                np.testing.assert_allclose(two["rows"][kind], block, rtol=1e-9, atol=1e-12)
            else:
                assert len(two["rows"][kind]) == len(block)


def test_dynamics_manifest_records_block_size_and_matvecs(tmp_path):
    # From all-up the propagated block is the even-parity half of the last
    # window: at N=4 the whole ladder, 3^2 + 2^2 = 13 of the 25 coordinates;
    # at N=80 and weak coupling the top 32 levels, 2 * 16^2 = 512, reached
    # from the first window of the top 21 levels.
    for n, extra, block, windows in (("4", {}, 13, [5]),
                                     ("80", {"sweep.start": "0.2", "sweep.stop": "0.25"}, 512,
                                      [21, 32])):
        cfg = write_config(tmp_path, {**TINY_RUNS["dynamics"], "n_atoms": n, **extra})
        out = tmp_path / f"dyn{n}"
        assert cli.main(["dynamics", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
        points = json.loads((out / "manifest.json").read_text())["points"]
        assert len(points) == 3
        assert all(p["block_size"] == block and p["matvecs"] > 0 and _levels(p) == windows[-1]
                   and p["windows"] == windows for p in points)


def test_manifest_records_library_versions(tmp_path):
    import platform

    import scipy

    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(write_config(tmp_path, FAST_STEADY)),
                     "--jobs", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}


def _report_blas_threads(task):
    return {"index": task, "threads": cli._blas_threads()}


def test_pool_workers_run_single_threaded_blas():
    # Give this process two BLAS threads so that a worker which inherits or
    # defaults its setting, rather than running the pool initializer, shows.
    before = cli._blas_threads()
    if None in before.values():
        pytest.skip("no bundled OpenBLAS found")
    cli._blas_threads(2)
    try:
        results = cli._run_pool(_report_blas_threads, [0, 1], jobs=2)
    finally:
        cli._blas_threads(before["numpy"])
    assert [r["threads"] for r in results] == [{"numpy": 1, "scipy": 1}] * 2


def _os_threads_after_loading_cli(load):
    """OS threads of a fresh interpreter that ran ``load`` on dlmg.cli, then loaded scipy's BLAS."""
    probe = ("import os, runpy, sys\n"
             "sys.argv = ['dlmg', '--help']\n"
             "try:\n"
             f"    {load}\n"
             "except SystemExit:\n"
             "    pass\n"
             "import scipy.linalg\n"
             "print(len(os.listdir('/proc/self/task')))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_as_program_starts_no_blas_helper_threads():
    # Imported as a library, dlmg.cli leaves OpenBLAS its default helper threads;
    # run as the program, it starts numpy and scipy with one thread each.
    if _os_threads_after_loading_cli("import dlmg.cli") == 1:
        pytest.skip("OpenBLAS starts no helper threads here (one core, or no threaded BLAS)")
    as_program = "runpy.run_module('dlmg.cli', run_name='__main__', alter_sys=True)"
    assert _os_threads_after_loading_cli(as_program) == 1


def test_block_template_prints_every_cell_as_fmt(tmp_path):
    # An ndarray block is printed with one "%.15g" template, a list of rows
    # cell by cell; both must print each number exactly as cli._fmt does.
    floats = np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-300, 1e16], [0.1, 1 / 3, -2.5e-7],
                       [5e-324, 1.7976931348623157e308, 123456789012345.67]])
    ints = np.array([[1, -2, 0], [10**15, 2**53 + 1, -(2**62)]], dtype=np.int64)
    mixed = [["normal", 1.5, np.int64(3), 7, np.float64(np.nan), -0.0, 10**16, True]]
    blocks = [floats, ints, mixed, floats[:0]]
    path = tmp_path / "t.csv"
    cli._write_rows(path, ["a = 1"], ["c1", "c2", "c3"], blocks)
    expected = ["# a = 1", "c1,c2,c3"]
    for block in blocks:  # the per-cell path; ndarray rows hold numpy scalars
        expected += [",".join(c if isinstance(c, str) else cli._fmt(c) for c in row)
                     for row in block]
    assert path.read_text() == "\n".join(expected) + "\n"
    for x in floats.ravel().tolist() + [np.int64(-7), 10**16, 2**53 + 1]:
        assert "%.15g" % x == cli._fmt(x)
    assert "nan,inf,-inf\n-0,1e-300,1e+16\n" in path.read_text()


def test_csv_header_carries_config(tmp_path):
    cfg = write_config(tmp_path, FAST_STEADY)
    out = tmp_path / "hdr"
    cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    text = (out / "steady_N6.csv").read_text()
    header = [l for l in text.splitlines() if l.startswith("#")]
    assert any("gamma_b = 0.2" in l for l in header)
    assert any("sweep.points = 4" in l for l in header)


def test_deep_normal_phase_z_moment_near_one(tmp_path):
    cfg = write_config(
        tmp_path,
        {**FAST_STEADY, "n_atoms": "12", "sweep.start": "0.1", "sweep.stop": "0.4"},
    )
    out = tmp_path / "deep"
    rc = cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    rows = [
        l.split(",")
        for l in (out / "steady_N12.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("lambda")
    ]
    jz2 = [float(r[4]) for r in rows]
    assert all(z > 0.9 for z in jz2)


def test_dynamics_lambda_zero_column_unentangled(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "n_atoms": "8",
            "h": "1.0",
            "gamma_a": "0.01",
            "gamma_b": "0.2",
            "sweep.variable": "lambda",
            "sweep.start": "0.0",
            "sweep.stop": "1.0",
            "sweep.points": "2",
            "dynamics.t_end": "3.0",
            "dynamics.t_points": "7",
            "outputs": "entanglement",
        },
    )
    out = tmp_path / "dyn"
    rc = cli.main(["dynamics", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    rows = [
        l.split(",")
        for l in (out / "dynamics_N8.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("lambda")
    ]
    lam0 = [float(r[3]) for r in rows if float(r[0]) == 0.0]
    assert len(lam0) == 7
    assert np.allclose(lam0, 0.0, atol=1e-10)


def test_dynamics_columns_match_per_state_observables(tmp_path):
    from dlmg.lindblad import evolve
    from dlmg.models import LMGParams, build_gamma0
    from dlmg.observables import rescaled_concurrence, spin_moments
    from dlmg.operators import all_up_state, build_algebra, expectation

    cfg = write_config(
        tmp_path,
        {
            "n_atoms": "6",
            "h": "1.0",
            "gamma_a": "0.01",
            "gamma_b": "0.2",
            "sweep.variable": "lambda",
            "sweep.start": "0.5",
            "sweep.stop": "1.5",
            "sweep.points": "2",
            "dynamics.t_end": "4.0",
            "dynamics.t_points": "9",
            "outputs": "entanglement,moments",
        },
    )
    out = tmp_path / "dyn"
    assert cli.main(["dynamics", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    lines = [l for l in (out / "dynamics_N6.csv").read_text().splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    assert header == ["lambda", "h", "t", "c_r", "jx2", "jy2", "jz2"]
    assert len(rows) == 18

    alg = build_algebra(6)
    times = np.linspace(0.0, 4.0, 9)
    for k, lam in enumerate((0.5, 1.5)):
        spec = build_gamma0(LMGParams(n_atoms=6, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2), alg)
        states = evolve(spec, all_up_state(6), times).states
        for row, rho in zip(rows[k * 9:(k + 1) * 9], states):
            assert abs(float(row["c_r"]) - rescaled_concurrence(spin_moments(rho, alg), 6)) <= 1e-12
            for name, op in (("jx2", alg.jx), ("jy2", alg.jy), ("jz2", alg.jz)):
                assert abs(float(row[name]) - expectation(op @ op, rho).real / 9.0) <= 1e-12


def test_cphi_columns_are_the_witness_of_the_steady_moments(tmp_path):
    # phi runs over 720 angles in [0, pi); c_phi is the witness of the
    # moments of each point's steady state.
    from dlmg.lindblad import steady_solution
    from dlmg.models import LMGParams, build_gamma0
    from dlmg.observables import c_phi, spin_moments
    from dlmg.operators import build_algebra

    cfg = write_config(tmp_path, {**FAST_STEADY, "sweep.points": "2", "outputs": "cphi"})
    out = tmp_path / "cphi"
    assert cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    lines = [l for l in (out / "cphi_N6.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "lambda,phi,c_phi"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2 * 720
    grid = np.linspace(0.0, np.pi, 720, endpoint=False)
    alg = build_algebra(6)
    for k, lam in enumerate((0.4, 1.6)):
        spec = build_gamma0(LMGParams(n_atoms=6, h=1.0, lam=lam, Gamma_a=0.01, Gamma_b=0.2), alg)
        rho = steady_solution(spec, tol=1e-10, check_unique=False).rho
        block = rows[k * 720:(k + 1) * 720]
        assert all(float(r[0]) == lam for r in block)
        assert [r[1] for r in block] == [f"{phi:.15g}" for phi in grid]
        curve = c_phi(spin_moments(rho, alg), 6, grid)
        assert np.max(np.abs(np.array([float(r[2]) for r in block]) - curve)) <= 1e-12


def test_spectrum_command_writes_per_value_files(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "h": "1.0",
            "sweep.variable": "lambda",
            "spectrum.values": "0.3,1.05",
            "spectrum.nu_points": "101",
            "spectrum.gamma_b": "0.05",
        },
    )
    out = tmp_path / "spec"
    rc = cli.main(["spectrum", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["spectrum_lambda_0p3.csv", "spectrum_lambda_1p05.csv"]


def test_preset_fidelity_blocks():
    # Parameter blocks must match the reference figure captions.
    fig3 = PRESETS["fig3"]
    assert (fig3["h"], fig3["gamma_a"], fig3["gamma_b"]) == ("1.0", "0.01", "0.2")
    assert fig3["n_atoms"] == "25,50,100"
    assert (fig3["sweep.start"], fig3["sweep.stop"]) == ("0.0", "2.0")

    fig7 = PRESETS["fig7"]
    assert fig7["n_atoms"] == "100"
    assert (fig7["sweep.start"], fig7["sweep.stop"], fig7["sweep.points"]) == ("0.5", "1.5", "41")

    fig4 = PRESETS["fig4"]
    assert fig4["spectrum.kappa_a"] == "0.3"
    assert fig4["spectrum.delta_a"] == "15.0"
    assert fig4["spectrum.kappa_b"] == "15.0"
    assert fig4["spectrum.gamma_b"] == "0.05"
    assert fig4["h"] == "1.0"
    vals = [float(v) for v in fig4["spectrum.values"].split(",")]
    assert vals == [0.3, 0.93, 0.992, 1.000625, 1.005, 1.05, 1.5]

    fig14 = PRESETS["fig14"]
    assert fig14["lambda"] == "1.0"
    assert [float(v) for v in fig14["spectrum.values"].split(",")][:3] == [-0.6, -0.1, -0.01]

    fig6 = PRESETS["fig6"]
    assert fig6["n_atoms"] == "50"
    assert [float(v) for v in fig6["qfunc.values"].split(",")] == [0.5, 1.01, 1.1, 2.0]

    fig13 = PRESETS["fig13"]
    assert fig13["lambda"] == "1.0"
    assert fig13["n_atoms"] == "50"

    fig10 = PRESETS["fig10"]
    assert (fig10["h"], fig10["gamma_a"], fig10["gamma_b"]) == ("1.0", "0.01", "0.2")
    assert fig10["n_atoms"] == "100"


def test_unknown_preset_is_config_error(tmp_path):
    assert cli.main(["steady", "--preset", "fig99", "--out", str(tmp_path)]) == 1


def test_micro_config_block_through_cli(tmp_path):
    # Microscopic parameters route through the effective map: engineered to
    # give lambda_a = 2 at full detuning 8 with kappa_a = 0.5 for N = 9.
    delta_r = 1000.0
    n = 9
    cfg = write_config(
        tmp_path,
        {
            "model": "gamma0",
            "micro.rabi_r1": f"{2.0 * delta_r * 2.0 / np.sqrt(n)}",
            "micro.g_r0": "1.0",
            "micro.delta_r": f"{delta_r}",
            "micro.delta_s": "1000.0",
            "micro.kappa_a": "0.5",
            "micro.delta_a_raw": f"{8.0 - n * 0.5 / delta_r}",
            "micro.n_atoms": f"{n}",
            "sweep.variable": "h",
            "sweep.start": "0.5",
            "sweep.stop": "1.0",
            "sweep.points": "2",
            "outputs": "moments",
        },
    )
    out = tmp_path / "micro"
    rc = cli.main(["steady", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    rows = [
        l.split(",")
        for l in (out / f"steady_N{n}.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("lambda")
    ]
    # lam = 2 Lambda_a carried into every point
    lam_expected = 2.0 * 2.0**2 * 8.0 / (0.5**2 + 8.0**2)
    assert all(abs(float(r[0]) - lam_expected) < 1e-9 for r in rows)


def test_qfunc_cli_small(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "n_atoms": "6",
            "h": "1.0",
            "gamma_a": "0.01",
            "gamma_b": "0.2",
            "sweep.variable": "lambda",
            "qfunc.values": "0.5",
            "qfunc.n_theta": "9",
            "qfunc.n_phi": "8",
        },
    )
    out = tmp_path / "qf"
    rc = cli.main(["qfunc", "--config", str(cfg), "--jobs", "1", "--out", str(out)])
    assert rc == 0
    rows = [
        l for l in (out / "qfunc_lambda_0p5.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("theta")
    ]
    assert len(rows) == 9 * 8
    qvals = np.array([float(r.split(",")[2]) for r in rows])
    assert np.all(qvals >= 0.0) and np.all(qvals <= 1.0 + 1e-12)

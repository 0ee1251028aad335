"""Benchmark of the dlmg command-line program.

    python3 perfbench/run.py --workload steady-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec

Runs one seeded workload (workloads.py) as a user would: one fresh
interpreter per CLI command (``python3 -m dlmg.cli`` on this checkout's
``src``), fed only generated config files.  Every output is checked
(checks.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  End-to-end metrics.  Passes over the workload's commands repeat
           until --seconds have elapsed; timings are medians over passes.
           ``setup_s`` is the median of several fresh interpreters importing
           dlmg.cli; ``max_err`` is the largest error a check measured
           against its reference (checks.py).
--trace 1  Per-layer metrics.  Each pass runs the commands untraced, then
           traced in-process with --jobs 1 (tracer.py); same seed, same
           configs, same time limit.

Configs, CLI logs, spans and result.json (with the context block) go to
.perfbench_out/<workload>-s<seed>-t<trace>/.  The benchmark sets no BLAS or
OpenMP thread variable for the program.  --write-spec rewrites BENCHMARK.json
from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 25
SETUP_REPEATS = 5
RUN_BUDGET_S = 160  # commands still running after this are killed

# (name, unit, better, bound): a user's view of one workload pass.  Times get
# the largest bound allowed, 0.25: on a shared 2-vCPU machine their medians
# spread 5-7% run to run; memory and accuracy are steadier.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("max_err", "abs", "lower", 0.15),
]

# (name, unit, better, end-to-end metric it should move, on which workloads).
PER_LAYER = [
    ("lindblad.steady_state.self_s", "s", "lower", "wall_s, points_per_s",
     "steady-sweep (dominant: N=63 dense solves); small on spectra-qfunc; none on dynamics"),
    ("lindblad.steady_state.calls", "count", "lower", "wall_s", "steady-sweep, spectra-qfunc"),
    ("lindblad.steady_state.max_residual", "abs", "lower", "max_err guard", "steady-sweep"),
    ("lindblad.liouvillian_matrix.self_s", "s", "lower", "wall_s, peak_rss_mb",
     "steady-sweep, dynamics"),
    ("lindblad.liouvillian_matrix.calls", "count", "lower", "wall_s", "steady-sweep, dynamics"),
    ("lindblad.liouvillian_matrix.nnz", "count", "lower", "peak_rss_mb", "steady-sweep, dynamics"),
    ("lindblad.evolve.self_s", "s", "lower", "wall_s", "dynamics only"),
    ("lindblad.evolve.calls", "count", "lower", "wall_s", "dynamics only"),
    ("observables.entanglement_curve.self_s", "s", "lower", "wall_s",
     "dynamics (101 calls per trajectory); negligible on steady-sweep"),
    ("observables.entanglement_curve.calls", "count", "lower", "wall_s", "dynamics, steady-sweep"),
    ("observables.spin_qfunction.self_s", "s", "lower", "wall_s", "spectra-qfunc only"),
    ("observables.hp_entanglement.self_s", "s", "lower", "wall_s (small)", "steady-sweep, dynamics"),
    ("hp.moment_steady_state.calls_per_point", "count", "lower", "wall_s (small)",
     "steady-sweep (2 per point today)"),
    ("hp.evolve_moments.self_s", "s", "lower", "wall_s (small)", "dynamics"),
    ("hp.eigenvalues.self_s", "s", "lower", "wall_s (small)", "steady-sweep"),
    ("semiclassical.selected_branch.self_s", "s", "lower", "wall_s (small)", "steady-sweep"),
    ("semiclassical.fixed_points.self_s", "s", "lower", "wall_s (small)", "steady-sweep"),
    ("spectrum.transmission.self_s", "s", "lower", "wall_s", "spectra-qfunc only"),
    ("spectrum.transmission.calls", "count", "lower", "wall_s", "spectra-qfunc only"),
    ("operators.build_algebra.self_s", "s", "lower", "wall_s (small)", "all finite-N workloads"),
    ("models.build_gamma0.self_s", "s", "lower", "wall_s (small)", "all finite-N workloads"),
    ("operators.self_s", "s", "lower", "wall_s", "all"),
    ("models.self_s", "s", "lower", "wall_s", "all"),
    ("lindblad.self_s", "s", "lower", "wall_s", "all"),
    ("observables.self_s", "s", "lower", "wall_s", "all"),
    ("hp.self_s", "s", "lower", "wall_s", "all"),
    ("semiclassical.self_s", "s", "lower", "wall_s", "all"),
    ("spectrum.self_s", "s", "lower", "wall_s", "spectra-qfunc only"),
    ("cli.self_s", "s", "lower", "wall_s",
     "spectra-qfunc (largest CSVs): main span minus its children (config, CSV, manifest I/O)"),
    ("cli.bytes_written", "B", "lower", "wall_s", "spectra-qfunc"),
    ("cli.cpu_per_wall", "ratio", "lower", "wall_s, cpu_s",
     "untraced pass; --jobs 1 workloads never enter the pool (prediction: no change)"),
    ("cli.ctx_switches_involuntary", "count", "lower", "wall_s, cpu_s", "untraced pass"),
    ("pool.wall_s", "s", "lower", "wall_s, cpu_s",
     "steady-sweep only: N=100 x 6 lambda at the CLI default --jobs, untraced"),
    ("pool.cpu_per_wall", "ratio", "lower", "cpu_s", "steady-sweep only (BLAS oversubscription)"),
    ("pool.ctx_switches_involuntary", "count", "lower", "wall_s", "steady-sweep only"),
    ("tracing_overhead_s", "s", "lower", "none", "all: traced minus untraced wall"),
]

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
            "OMP_PROC_BIND", "OMP_WAIT_POLICY", "OPENBLAS_CORETYPE")


def spec() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }


# -- running the program -------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    nivcsw: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list, log_path: Path, timeout: float) -> Proc:
    """Run one child to completion; CPU and context switches from RUSAGE_CHILDREN."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, process_group=0)
        try:
            returncode = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            proc.wait()
            returncode = -signal.SIGKILL
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Proc(returncode, wall, cpu, after.ru_nivcsw - before.ru_nivcsw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # kB on Linux


@dataclass
class Pass:
    """Totals of one pass over a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    nivcsw: int = 0
    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    bytes_written: int = 0
    spans: list = field(default_factory=list)  # span files of a traced pass


@dataclass
class Bench:
    """One benchmark run: its output directory, references and check problems."""

    run_dir: Path
    refs: dict
    give_up_at: float  # perf_counter time after which a command is killed
    problems: list = field(default_factory=list)

    def process(self, argv: list, log_name: str) -> Proc:
        timeout = max(1.0, self.give_up_at - time.perf_counter())
        return run_process(argv, self.run_dir / log_name, timeout)

    def measure_setup(self) -> list:
        """Wall times of fresh interpreters importing dlmg.cli (the first warms caches)."""
        times = []
        for _ in range(SETUP_REPEATS + 1):
            proc = self.process([sys.executable, "-c", "import dlmg.cli"], "setup.log")
            if proc.returncode != 0:
                raise RuntimeError("importing dlmg.cli failed: "
                                   + (self.run_dir / "setup.log").read_text())
            times.append(proc.wall_s)
        return times[1:]

    def run_pass(self, cmds, traced: bool = False) -> Pass:
        from checks import check_command

        result = Pass()
        for cmd in cmds:
            out_dir = self.run_dir / ("traced" if traced else "out") / cmd.name
            shutil.rmtree(out_dir, ignore_errors=True)
            cli_argv = cmd.argv(self.run_dir / "configs" / f"{cmd.name}.cfg", out_dir,
                                jobs=1 if traced else cmd.jobs)
            spans_path = self.run_dir / f"spans_{cmd.name}.json"
            spans_path.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *cli_argv]
            else:
                argv = [sys.executable, "-m", "dlmg.cli", *cli_argv]
            proc = self.process(argv, f"{cmd.name}{'.traced' if traced else ''}.log")
            if spans_path.exists():  # absent if the traced process died
                result.spans.append(spans_path)
            check = check_command(cmd, out_dir, proc.returncode, self.refs[cmd.name])
            self.problems.extend(check.problems)
            result.wall_s += proc.wall_s
            result.cpu_s += proc.cpu_s
            result.nivcsw += proc.nivcsw
            result.attempted += check.attempted
            result.failed += check.failed
            result.max_err = max(result.max_err, check.max_err)
            if out_dir.is_dir():
                result.bytes_written += sum(f.stat().st_size for f in out_dir.iterdir())
        return result


# -- metrics -------------------------------------------------------------------


def tail(samples: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def report(name: str, samples: list, unit: str) -> None:
    median = statistics.median(samples)
    t = tail(samples)
    tail_text = f"p{t[0]:.0f} {t[1]:.6g}" if t else "tail n/a (< 11 samples)"
    print(f"  {name:<40} median {median:.6g} {unit}  {tail_text}  n={len(samples)}")


def end_to_end(bench: Bench, workload, cmds, seconds: float):
    setup = bench.measure_setup()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(bench.run_pass(cmds))
    samples = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in passes],
        "points_per_s": [(p.attempted - p.failed) / p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [peak_rss_mb()],
        "max_err": [max(p.max_err for p in passes)],
    }
    print(f"{workload.name}: {len(passes)} passes of {sum(c.points for c in cmds)} points")
    for name, unit, *_ in END_TO_END:
        report(name, samples[name], unit)
    return passes, samples


def layer_metrics(traced: Pass, points: int, problems: list) -> dict:
    from tracer import LAYERS, check_spans, self_times

    by_name, layer_self = {}, dict.fromkeys(LAYERS, 0.0)
    nnz, max_residual = 0, 0.0
    for path in traced.spans:
        record = json.loads(Path(path).read_text())
        spans = record["spans"]
        selfs = self_times(spans)
        problems.extend(f"{record['trace_id']}: {p}" for p in check_spans(spans, selfs))
        for span, self_s in zip(spans, selfs):
            calls, total = by_name.get(span["name"], (0, 0.0))
            by_name[span["name"]] = (calls + 1, total + self_s)
            layer_self[span["name"].split(".")[0]] += self_s
        nnz += record["nnz"]
        max_residual = max(max_residual, record["max_residual"])
    metrics = {f"{layer}.self_s": value for layer, value in layer_self.items()}
    for name, *_ in PER_LAYER:  # function-level metrics such as lindblad.evolve.calls
        func, _, kind = name.rpartition(".")
        if kind in ("self_s", "calls") and func.count(".") == 1:
            calls, self_s = by_name.get(func, (0, 0.0))
            metrics[name] = self_s if kind == "self_s" else calls
    metrics["lindblad.liouvillian_matrix.nnz"] = nnz
    metrics["lindblad.steady_state.max_residual"] = max_residual
    metrics["hp.moment_steady_state.calls_per_point"] = (
        by_name.get("hp.moment_steady_state", (0, 0.0))[0] / points)
    metrics["cli.bytes_written"] = traced.bytes_written
    return metrics


def per_layer(bench: Bench, workload, cmds, seconds: float, pool_cmd=None):
    points = sum(cmd.points for cmd in cmds)
    passes, rows = [], []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        untraced = bench.run_pass(cmds)
        traced = bench.run_pass(cmds, traced=True)
        passes += [untraced, traced]
        row = layer_metrics(traced, points, bench.problems)
        row["cli.cpu_per_wall"] = untraced.cpu_s / untraced.wall_s
        row["cli.ctx_switches_involuntary"] = untraced.nivcsw
        row["tracing_overhead_s"] = traced.wall_s - untraced.wall_s
        rows.append(row)
    pool = Pass()
    if pool_cmd is not None:
        pool = bench.run_pass([pool_cmd])
        passes.append(pool)
    for row in rows:
        row["pool.wall_s"] = pool.wall_s
        row["pool.cpu_per_wall"] = pool.cpu_s / pool.wall_s if pool.wall_s else 0.0
        row["pool.ctx_switches_involuntary"] = pool.nivcsw
    samples = {name: [r[name] for r in rows] for name, *_ in PER_LAYER}
    print(f"{workload.name}: {len(rows)} traced passes of {points} points")
    for name, unit, *_ in PER_LAYER:
        report(name, samples[name], unit)
    return passes, samples


# -- context and entry point ---------------------------------------------------


def context() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except OSError:
            sha = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
    }


def write_configs(cmds, run_dir: Path) -> None:
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for cmd in cmds:
        (run_dir / "configs" / f"{cmd.name}.cfg").write_text(cmd.config_text())


def main(argv=None) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small points, for the benchmark's self-tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from this file and workloads.py")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "dlmg" / "cli.py").is_file():
        print(f"error: no dlmg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import references

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    cmds = workload.commands(args.seed, tiny)
    pool_cmd = workload.pool(args.seed, tiny) if args.trace and workload.pool else None
    run_dir = OUT / f"{workload.name}-s{args.seed}-t{args.trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    all_cmds = cmds + ([pool_cmd] if pool_cmd else [])
    write_configs(all_cmds, run_dir)
    ctx = context()
    print("context: " + json.dumps(ctx))

    bench = Bench(run_dir, {cmd.name: references(cmd) for cmd in all_cmds},
                      give_up_at=started + RUN_BUDGET_S)
    if args.trace:
        passes, samples = per_layer(bench, workload, cmds, args.seconds, pool_cmd)
        listed = PER_LAYER
    else:
        passes, samples = end_to_end(bench, workload, cmds, args.seconds)
        listed = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} points)")
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit, *_ in listed},
    }
    predictions = {name: {"moves": moves, "on": on} for name, _, _, moves, on in PER_LAYER}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "workload": workload.name, "seed": args.seed, "context": ctx,
         "samples": samples, "problems": bench.problems,
         **({"predictions": predictions} if args.trace else {})}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads of the dlmg benchmark.

A workload is a list of CLI commands, each with a generated flat config
file.  The seed only moves the sweep coordinates (lambda) inside fixed
bands, so every seed exercises the same regimes and costs about the same,
while no two seeds feed the program identical inputs.  ``size="tiny"``
shrinks every command to a few small points for the benchmark's self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Second-order study parameters (lambda_c = h + gamma_b^2 / 4h = 1.01).
_MODEL = {"model": "gamma0", "h": "1.0", "gamma_a": "0.01", "gamma_b": "0.2"}

# Cavity set of the transmission presets (lambda_c = 1.000625 at gamma_b = 0.05).
_CAVITY = {
    "h": "1.0",
    "spectrum.kappa_a": "0.3",
    "spectrum.delta_a": "15.0",
    "spectrum.kappa_b": "15.0",
    "spectrum.delta_b": "0.0",
    "spectrum.gamma_b": "0.05",
    "spectrum.nu_min": "-3.0",
    "spectrum.nu_max": "3.0",
}


def _f(x: float) -> str:
    return f"{x:.6f}"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``dlmg <cli> --config <name>.cfg [--jobs K]``."""

    name: str
    cli: str
    config: dict
    jobs: int | None = 1  # None leaves the CLI default (all cores)

    @property
    def n_atoms(self) -> list:
        return [int(tok) for tok in self.config.get("n_atoms", "").split(",") if tok]

    @property
    def sweep(self) -> np.ndarray:
        """Sweep coordinates in point order, exactly as the CLI computes them."""
        cfg = self.config
        if self.cli in ("steady", "dynamics"):
            return np.linspace(float(cfg["sweep.start"]), float(cfg["sweep.stop"]),
                               int(cfg["sweep.points"]))
        return np.array([float(tok) for tok in cfg[f"{self.cli}.values"].split(",")])

    @property
    def points(self) -> int:
        per_value = len(self.n_atoms) if self.cli in ("steady", "dynamics") else 1
        return per_value * len(self.sweep)

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def argv(self, config_path, out_dir, jobs: int | None) -> list:
        argv = [self.cli, "--config", str(config_path), "--out", str(out_dir)]
        return argv + (["--jobs", str(jobs)] if jobs is not None else [])


def steady_sweep(rng, tiny: bool) -> list:
    # Three lambda points: one in each phase and one within 0.01 of lambda_c.
    center, half = rng.uniform(1.0, 1.02), rng.uniform(0.44, 0.48)
    return [Command("steady", "steady", {
        **_MODEL,
        "n_atoms": "4,6" if tiny else "25,50,63,100,150",
        "sweep.variable": "lambda",
        "sweep.start": _f(center - half),
        "sweep.stop": _f(center + half),
        "sweep.points": "3",
        "outputs": "moments,entanglement,eigenvalues",
    })]


def dynamics(rng, tiny: bool) -> list:
    # The top of the lambda range sets the integrator's worst error, so its
    # band is narrow; the middle point lands near lambda_c.
    return [Command("dynamics", "dynamics", {
        **_MODEL,
        "n_atoms": "4,6" if tiny else "50,100",
        "sweep.variable": "lambda",
        "sweep.start": _f(rng.uniform(0.05, 0.2)),
        "sweep.stop": _f(rng.uniform(1.98, 2.0)),
        "sweep.points": "3",
        "dynamics.t_end": "10.0",
        "dynamics.t_points": "11" if tiny else "101",
        "outputs": "entanglement,moments,hp",
    })]


def spectra_qfunc(rng, tiny: bool) -> list:
    per_phase = 1 if tiny else 4
    lam = np.concatenate([np.sort(rng.uniform(0.3, 0.95, per_phase)),
                          np.sort(rng.uniform(1.05, 1.5, per_phase))])
    # Q-function anchors of the fig6 preset, each moved by a seeded jitter.
    anchors = np.array([0.5, 1.1] if tiny else [0.5, 1.01, 1.1, 2.0])
    q_lam = anchors + rng.uniform(-0.02, 0.02, len(anchors))
    return [
        Command("spectrum", "spectrum", {
            **_CAVITY,
            "sweep.variable": "lambda",
            "spectrum.values": ",".join(_f(x) for x in lam),
            "spectrum.nu_points": "51" if tiny else "2001",
        }),
        Command("qfunc", "qfunc", {
            **_MODEL,
            "n_atoms": "4" if tiny else "50",
            "sweep.variable": "lambda",
            "qfunc.values": ",".join(_f(x) for x in q_lam),
            "qfunc.n_theta": "13" if tiny else "61",
            "qfunc.n_phi": "25" if tiny else "121",
        }),
    ]


def pool_probe(seed: int, tiny: bool = False) -> Command:
    """Steady sweep through the CLI's worker pool at its default --jobs (all cores).

    Its wall time is bimodal run to run (the BLAS-thread oversubscription the
    pool suffers from), so it is measured in the traced run only, where
    metrics carry no bound.
    """
    rng = np.random.default_rng([seed, 1])
    return Command("steady-pool", "steady", {
        **_MODEL,
        "n_atoms": "6" if tiny else "100",
        "sweep.variable": "lambda",
        "sweep.start": _f(rng.uniform(0.5, 0.55)),
        "sweep.stop": _f(rng.uniform(1.45, 1.5)),
        "sweep.points": "6",
        "outputs": "moments,entanglement,eigenvalues",
    }, jobs=None)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (numpy Generator, tiny) -> list[Command]
    pool: object = None  # (seed, tiny) -> Command the traced run sends through the pool

    def commands(self, seed: int, tiny: bool = False) -> list:
        return self.build(np.random.default_rng(seed), tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady-sweep",
            "steady --jobs 1, N 25,50,63,100,150 x 3 seeded lambda in [0.52,1.5] (15 pts): "
            "factorization-bound, straddles the dense/sparse steady-solver cutoff at N=63/64",
            steady_sweep,
            pool=pool_probe,
        ),
        Workload(
            "dynamics",
            "dynamics --jobs 1 from all-up, N 50,100 x 3 seeded lambda in [0.05,2] (6 pts), "
            "t 0..10 with 101 outputs: integration-bound, no steady solve",
            dynamics,
        ),
        Workload(
            "spectra-qfunc",
            "spectrum over 8 seeded lambda in both phases (2001 nu each), then qfunc at N=50 "
            "on a 61x121 grid at 4 lambda (12 values): small solves, heavy CSV output",
            spectra_qfunc,
        ),
    )
}

"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from checks import check_command, references  # noqa: E402
from tracer import check_spans, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_definitions():
    assert run.spec() == SPEC


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_exactly_the_spec_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _run_tiny_steady(tmp_path):
    cmd = WORKLOADS["steady-sweep"].commands(seed=5, tiny=True)[0]
    run.write_configs([cmd], tmp_path)
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "dlmg.cli",
            *cmd.argv(tmp_path / "configs" / f"{cmd.name}.cfg", out, jobs=1)]
    proc = run.run_process(argv, tmp_path / "cli.log", timeout=120)
    return cmd, out, proc.returncode, references(cmd)


def test_clean_output_passes_the_check(tmp_path):
    cmd, out, code, ref = _run_tiny_steady(tmp_path)
    result = check_command(cmd, out, code, ref)
    assert (result.attempted, result.failed) == (cmd.points, 0), result.problems


def test_corrupted_csv_fails_the_check(tmp_path):
    cmd, out, code, ref = _run_tiny_steady(tmp_path)
    path = out / f"steady_N{cmd.n_atoms[0]}.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[header].strip().split(",")
    cells = lines[header + 1].strip().split(",")
    cells[cols.index("jz2")] = repr(float(cells[cols.index("jz2")]) + 1e-6)
    lines[header + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    result = check_command(cmd, out, code, ref)
    assert result.failed / result.attempted > 0, result.problems


def test_missing_row_and_bad_exit_fail_the_check(tmp_path):
    cmd, out, code, ref = _run_tiny_steady(tmp_path)
    path = out / f"steady_N{cmd.n_atoms[-1]}.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert check_command(cmd, out, code, ref).failed == len(cmd.sweep)
    assert check_command(cmd, out, 2, ref).failed == cmd.points


def test_self_times_and_span_checks():
    spans = [
        {"id": 0, "name": "cli.main", "start": 0.0, "end": 10.0, "parent": -1},
        {"id": 1, "name": "lindblad.steady_state", "start": 1.0, "end": 5.0, "parent": 0},
        {"id": 2, "name": "lindblad.liouvillian_matrix", "start": 1.5, "end": 2.0, "parent": 1},
        {"id": 3, "name": "operators.build_algebra", "start": 6.0, "end": 7.0, "parent": 0},
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([5.0, 3.5, 0.5, 1.0])
    assert check_spans(spans, selfs) == []
    spans[2]["end"] = 6.0  # the child now outlives its parent
    assert any("outside its parent" in p for p in check_spans(spans, self_times(spans)))


def test_command_past_its_timeout_is_killed(tmp_path):
    start = run.time.perf_counter()
    proc = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                           tmp_path / "sleep.log", timeout=1.0)
    assert proc.returncode == -run.signal.SIGKILL
    assert run.time.perf_counter() - start < 10

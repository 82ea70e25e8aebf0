"""Tiny-size runs of the benchmark command, through every correctness check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("baseline-synth", "cbe-zipf", "sweep-par")


def run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_benchmark(dest: Path, with_source: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks(workload, trace):
    proc, result = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(f"{name} " in proc.stdout for name in expected)  # the table
    if workload == "sweep-par" and trace:
        assert result["metrics"]["experiment.sweep_serial_s"]["value"] > 0
        assert result["metrics"]["experiment.parallel_speedup"]["value"] > 0


def test_wrong_map_fails_the_command(tmp_path):
    root = copy_benchmark(tmp_path, with_source=True)
    metrics = root / "src" / "bloomemb" / "metrics.py"
    metrics.write_text(metrics.read_text() + (
        "\n_exact_average_precision = average_precision\n\n"
        "def average_precision(ranked, relevant):\n"
        "    return 0.99 * _exact_average_precision(ranked, relevant)\n"))
    proc, result = run(root, "baseline-synth", 1)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "MAP recomputed" in proc.stdout


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    root = copy_benchmark(tmp_path, with_source=False)
    proc, result = run(root, "baseline-synth", 0)
    assert proc.returncode != 0
    assert result is None

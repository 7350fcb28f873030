"""Tiny-size runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from fareyshift import cli, coding  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=root)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_every_binding_and_restores():
    point_of_code, symbol_at = coding.point_of_code, coding.CodeStream.symbol_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.point_of_code is coding.point_of_code is not point_of_code
        assert coding.CodeStream.__getitem__ is coding.CodeStream.symbol_at is not symbol_at
        stream = coding.CodeStream.periodic("", "0")
        enc = cli.point_of_code(stream, 100, 1)
        assert stream[3] == 0
    finally:
        tracer.uninstall()
    assert cli.point_of_code is coding.point_of_code is point_of_code
    assert coding.CodeStream.__getitem__ is coding.CodeStream.symbol_at is symbol_at
    assert tracer.calls["coding.point_of_code"] == 1
    assert tracer.counters["coding.symbols_consumed"] == enc.prefix_len
    assert tracer.calls["coding.symbol_at"] == enc.prefix_len + 1

"""Smoke test of the benchmark itself (not part of the package's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

A tiny run of each workload must print every metric BENCHMARK.json
names, with its unit; a corrupted reference must show up as failures;
a program whose ops all fail must still get a result line, with
correct false; and without the package next to it the benchmark must
refuse to run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# chain-modes is runnable but not in BENCHMARK.json (see README.md)
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + ["chain-modes"])
def test_tiny_run_reports_every_metric(workload, trace):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", str(trace), "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + ["chain-modes"])
def test_wrong_reference_raises_failed_ratio(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds",
                       "1", "--trace", "0", "--tiny", "--wrong-reference"))
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_broken_program_still_prints_a_failed_result(monkeypatch, capsys):
    """An op that always raises is counted as failed, the result line is
    printed with correct false, and the exit code is not 0."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run
    import workloads

    def broken(self, k, rec):
        with rec.timed(1):
            raise RuntimeError("broken op")

    monkeypatch.setattr(workloads.OdeGate, "cycle", broken)
    for trace in ("0", "1"):
        rc = run.main(["--workload", "ode-gate", "--seed", "3", "--seconds",
                       "1", "--trace", trace, "--tiny"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc != 0
        assert not out["correct"]
        assert 0 < out["failed"] <= out["attempted"]
        assert "ops_per_s" not in out["metrics"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "sweep-1mode", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

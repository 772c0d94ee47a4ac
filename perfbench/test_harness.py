"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "fit-knn-20k": lambda: harness.Fit(points=400, pool=2, max_iterations=3),
    "eval-20k": lambda: harness.Eval(points=400, pool=2, elements=2, resolution=20),
    "compare-2k-filtered": lambda: harness.Compare(points=400, pool=2, max_iterations=3),
}


def run(tmp_path, monkeypatch, capsys, name, trace=0):
    monkeypatch.setitem(harness.WORKLOADS, name, TINY[name])
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert harness.main(argv, SRC, tmp_path) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in harness.WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tmp_path, monkeypatch, capsys, name, trace, section):
    result = run(tmp_path, monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def corrupt_surface(out: Path) -> None:
    payload = json.loads(out.read_text())
    payload["coefficients"][0][0] = 1e9
    out.write_text(json.dumps(payload))


def corrupt_report(out: Path) -> None:
    out.write_text(out.read_text().replace('"stop_reason"', '"stop_reason" ', 1))


@pytest.mark.parametrize(
    "corrupted_op, corrupt, failed",
    [
        (0, corrupt_surface, 2),  # cloud 0's first op and its repeat
        (2, corrupt_report, 1),  # only the repeat differs from the first op
    ],
)
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, capsys, corrupted_op, corrupt, failed):
    real = harness.run_op
    calls = []

    def corrupting_run_op(wq, argvs):
        ok = real(wq, argvs)
        if len(calls) == corrupted_op:
            argv = argvs[0]
            name = "--surface-out" if corrupt is corrupt_surface else "--report-out"
            corrupt(Path(argv[argv.index(name) + 1]))
        calls.append(argvs)
        return ok

    monkeypatch.setattr(harness, "run_op", corrupting_run_op)
    result = run(tmp_path, monkeypatch, capsys, "fit-knn-20k")
    assert result["attempted"] == 3
    assert result["failed"] == failed and not result["correct"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "eval-20k", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

"""Self-test of the benchmark: result-line schema and correctness gate.

No timing gate.  Uses the fast ``field-wide`` workload (about 1 s a run).
Run from the repository root: ``python3 -m pytest perfbench/tests -q``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(root: Path, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field-wide",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_checkout(dst: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(json.loads(run.EXPECTED.read_text())) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)])
def test_result_line_schema(trace, units):
    res = _result(_bench(ROOT, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_gate_accepts_recorded_output_and_rejects_a_wrong_value(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())["field-wide"][0]
    [inv] = workloads.invocations("field-wide", 5, str(tmp_path))
    [out] = run.run_child([str(BENCH / "child.py"), json.dumps([inv])])["invocations"]
    assert workloads.check(inv["argv"], out, expected) is None
    wrong = json.loads(json.dumps(expected))
    wrong["rows"][0]["found_c_hex"] = "00"
    assert "rows" in workloads.check(inv["argv"], out, wrong)
    assert workloads.check(inv["argv"], {**out, "rc": 1}, expected) == "exit code 1"


def test_wrong_expected_value_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path, with_src=True)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["field-wide"][0]["rows"][-1]["exists_c"] = False
    path.write_text(json.dumps(expected))
    res = _result(_bench(root))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["ok_frac"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench(_copy_checkout(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

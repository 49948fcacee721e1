"""BENCHMARK.json and the metric tables the benchmark prints agree."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run_module():
    spec = importlib.util.spec_from_file_location("servebench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_the_printed_metrics():
    run = _run_module()
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "servebench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == ["backfill", "live"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layers == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_exits_nonzero_without_program_source(tmp_path):
    """A directory holding only the benchmark must fail, printing no result."""
    copy = tmp_path / "servebench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "backfill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke check of the benchmark harness at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((BENCH / "config.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_and_checks_verdicts(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in wanted]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_verdict_digest():
    digests = []
    for _ in range(2):
        proc = run_bench("--workload", "chain-sweep", "--seed", "5", "--seconds", "0.3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(proc.stdout.split("digest ")[1].split()[0])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_config_matches_the_metric_names():
    assert list(CONFIG["workloads"]) == WORKLOADS
    layer = {m["name"] for m in SPEC["per_layer"]}
    end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in CONFIG["layer_map"]:
        assert set(entry["layer"]) <= layer
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS
            assert set(metrics) <= end


def test_an_item_that_raises_fails_the_run_unless_it_is_a_known_defect():
    sys.path.insert(0, str(BENCH))
    import run
    from workloads import Outcome, Stream

    streams = [Stream("s", None, None, None)]
    known = {"altstack raised RecursionError"}
    items = run.Items()
    items.add(0, 0, 0.1, Outcome("checked"))
    items.add(0, 1, 0.1, Outcome("failed", "altstack raised RecursionError"))
    assert run.output_problems(items, streams, 0.1, known) == []
    assert run.unexpected(items, known) == []
    items.add(0, 2, 0.1, Outcome("failed", "altstack raised RecursionError; alt raised TypeError"))
    items.add(0, 3, 0.1, Outcome("failed", "TypeError: boom"))
    assert len(run.output_problems(items, streams, 0.1, known)) == 2
    assert run.unexpected(items, known) == [2, 3]
    assert len(run.output_problems(items, streams, 0.1, set())) == 3

"""Self-test of the benchmark on tiny runs: ``python3 -m pytest perfbench -q``."""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = {"catalog": 20, "identities": 2, "analyze": 3}


def bench(root: Path, workload: str, trace: int = 0, env=None):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "5", "--trace", str(trace), "--items", str(TINY[workload])],
        capture_output=True, text=True, timeout=170, env=env, cwd=root)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def copy_tree(dest: Path, parts) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".bench_tmp")
    for part in parts:
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, section):
    proc = bench(ROOT, workload, trace)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == TINY[workload]
    assert "  error_rate 0.0 ratio " in proc.stdout
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_and_counts_ignore_hash_seed(workload):
    seen = []
    for hash_seed in ("1", "2"):
        proc = bench(ROOT, workload, env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        seen.append([line for line in proc.stdout.splitlines()
                     if line.startswith(("  digest ", "  counts "))])
    assert len(seen[0]) == 2 and seen[0] == seen[1]


def test_gate_passes_on_bundled_configs():
    assert gate.check(ROOT / "configs") == []


def test_wrong_expected_value_trips_gate():
    for name, key, value in [("example2.cfg", "dims", [1, 4]),
                             ("example4.cfg", "signatures", {11: (4, 7)}),
                             ("example1_d4.cfg", "casimir", {"12": "xi^2 * 1"})]:
        wrong = copy.deepcopy(gate.EXPECTED)
        wrong[name][key] = value
        problems = gate.check(ROOT / "configs", wrong)
        assert len(problems) == 1 and problems[0].startswith(name)


def test_gate_failure_exits_without_result(tmp_path):
    copy_tree(tmp_path, ["src", "configs", "perfbench"])
    cfg = tmp_path / "configs" / "example4.cfg"
    cfg.write_text(cfg.read_text().replace("path 0 2 ", "path 0 3 "))
    proc = bench(tmp_path, "catalog")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "correctness gate: example4.cfg" in proc.stderr


def test_benchmark_alone_exits_without_result(tmp_path):
    copy_tree(tmp_path, ["perfbench"])
    proc = bench(tmp_path, "catalog")
    assert proc.returncode != 0 and proc.stdout == ""

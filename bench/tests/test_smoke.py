"""Smoke test for the benchmark driver: every workload at toy size.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(tmp_path, trace, section):
    out_file = tmp_path / "result.json"
    proc = bench("--workload", "all", "--toy", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--out", str(out_file))
    doc = last_json(proc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())
    for name in WORKLOADS:
        assert f"{name:15s} failed_ratio" in proc.stdout

    result = json.loads(out_file.read_text(encoding="utf-8"))
    assert set(result["env"]) >= {"python", "nproc", "git_sha"}
    for res in result["workloads"].values():
        assert res["failed_ratio"] == 0
        assert all(c["argv"] and c["size"] for c in res["commands"])
    if trace:
        assert all(r["isolation"] for r in result["workloads"].values())

    same = bench("--compare", str(out_file), str(out_file))
    assert same.returncode == 0 and "0 flag(s)" in same.stdout


def test_single_workload_names_metrics_without_prefix():
    doc = last_json(bench("--workload", "descent-bigp", "--toy", "--seed", "3",
                          "--seconds", "1", "--trace", "0"))
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_same_seed_same_inputs_and_seed_changes_descents():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    ref = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    pick = lambda seed: [c.key for c in workloads.commands("descent-bigp", seed, ref)]
    assert pick(5) == pick(5)
    assert len({tuple(pick(s)) for s in range(5)}) > 1
    for toy in (False, True):
        assert all(c.key in ref["commands"] for c in workloads.every_command(ref, toy))


def test_compare_flags_a_changed_hash(tmp_path):
    a = {"workloads": {"w": {"metrics": {"wall_s": 2.0}, "units": {"wall_s": "s"},
                             "failed_ratio": 0.0,
                             "commands": [{"argv": ["x"], "sha256": "aa"}]}}}
    b = json.loads(json.dumps(a))
    b["workloads"]["w"]["metrics"]["wall_s"] = 1.0
    b["workloads"]["w"]["commands"][0]["sha256"] = "bb"
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    proc = bench("--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert proc.returncode == 1
    assert "0.500" in proc.stdout and "stdout hash changed" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-e2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_print_the_declared_metrics_and_repeat_their_outputs(workload):
    seed = 7
    outputs = []
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _bench(ROOT, "--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(declared)
        record = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
        outputs.append(json.loads(record.read_text())["outputs"])
    # same seed, separate processes, untraced against traced
    common = min(map(len, outputs))
    assert common >= 1
    assert outputs[0][:common] == outputs[1][:common]


def test_benchmark_json_matches_the_command():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS
    assert _units(SPEC["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(SPEC["per_layer"]) == {k: v[2] for k, v in run.PER_LAYER.items()}


def test_a_corrupted_oracle_lowers_correct_ratio_and_fails_the_run(monkeypatch, capsys):
    workloads = run._import_program()
    # operation 0 of bkk_chain is always a generic MCI
    monkeypatch.setattr(workloads, "generic_bkk_oracle", lambda evidence: -1)
    code = run.main(["--workload", "bkk_chain", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["metrics"]["correct_ratio"]["value"] < 1


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "bkk_chain", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

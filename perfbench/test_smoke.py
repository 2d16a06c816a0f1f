"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with ``--smoke`` (n0 = 10^5, 256-point grid), untraced
and traced, and checks that the printed metric lines and the result JSON
name exactly the metrics of BENCHMARK.json with their units, that every
repetition passed its checks, and the exact work counts of the traced run.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# traced work counts of the program as it stood when the benchmark was
# defined; a change that removes redundant work moves them on purpose
EXACT_COUNTS = {
    "cli-200k": {
        "eventsim.simulate_ensemble.calls": 2,
        "kernels.draws_per_molecule": 24,
        "pairstate.propagate_kernel.calls": 2,
    },
    "sim-8m": {"kernels.draws_per_molecule": 14},
    "rates-2048": {"pairstate.propagate_kernel.calls": 2},
}


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.rsplit(" ", 1)[1]
    assert printed == expected

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        for name, count in EXACT_COUNTS.get(workload, {}).items():
            assert result["metrics"][name]["value"] == count, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_names_and_units():
    """Names start with a letter or digit and are unique; units and bounds in range."""
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(name.fullmatch(e["name"]) for e in entries)
    assert len({e["name"] for e in entries}) == len(entries)
    assert all(unit.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_refuses_without_program(tmp_path):
    """Without the package sources the benchmark exits nonzero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "cli-200k", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

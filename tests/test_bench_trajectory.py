"""BENCH_trajectory.json, the committed record of the benchmark's medians:
it parses, and every entry names a workload and metrics of
BENCHMARK.json with their units."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_entry_names_a_workload_and_its_metrics_with_their_units():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    entries = json.loads((ROOT / "BENCH_trajectory.json").read_text())["entries"]
    assert entries
    newest = max(entry["pr"] for entry in entries)
    for entry in entries:
        where = (entry["pr"], entry["workload"])
        assert isinstance(entry["pr"], int) and entry["workload"] in workloads, where
        # only the newest PR's entries may wait for the sha of their commit
        if entry["sha"] is not None or entry["pr"] != newest:
            assert re.fullmatch("[0-9a-f]{7,40}", entry["sha"] or ""), where
        assert entry["pairs"] >= 1 and entry["seeds"] and entry["source"], where
        assert entry["machine_facts"]["nproc"] >= 1, where
        assert entry["metrics"], where
        for name, metric in entry["metrics"].items():
            assert metric["unit"] == units[name], (where, name)
            for side in ("parent", "change"):
                median = metric[f"{side}_median"]
                assert median > 0, (where, name, side)
                low, high = metric.get(f"{side}_quartiles", (median, median))
                assert low <= median <= high, (where, name, side)
    # one entry per PR and workload
    keys = [(e["pr"], e["workload"]) for e in entries]
    assert len(keys) == len(set(keys))

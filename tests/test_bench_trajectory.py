"""The benchmark trajectory files: one `BENCH_<workload>.json` per workload of `BENCHMARK.json`.

Each file is a list of entries, oldest first.  An entry quotes a benchmark check's medians
(`quoted: driver check`, no quartiles, no environment) or holds the medians and quartiles of
paired runs measured on the parent or the change, with the environment they ran in.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
QUOTED = "quoted: driver check"
MEASURED = ("measured: parent", "measured: change")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_entry_names_its_commit_and_every_gated_median(workload):
    path = ROOT / f"BENCH_{workload}.json"
    assert path.is_file(), f"{path.name} is missing"
    entries = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(entries, list) and entries
    for i, entry in enumerate(entries):
        where = f"{path.name} entry {i}"
        assert {"label", "commit", "source", "env", "metrics"} <= entry.keys(), where
        assert entry["label"] in (QUOTED, *MEASURED), where
        assert isinstance(entry["commit"], str) and re.fullmatch(r"[0-9a-f]{7,40}", entry["commit"]), where
        metrics = entry["metrics"]
        for gated in BENCHMARK["end_to_end"]:
            metric = metrics.get(gated["name"])
            assert metric is not None, f"{where}: no {gated['name']}"
            assert metric["unit"] == gated["unit"], f"{where}: {gated['name']} unit"
            assert isinstance(metric["median"], (int, float)), f"{where}: {gated['name']} median"
            assert math.isfinite(metric["median"]) and metric["median"] > 0, f"{where}: {gated['name']} median"
        if entry["label"] == QUOTED:
            assert entry["env"] is None, where
            for name, metric in metrics.items():
                assert metric["q1"] is None and metric["q3"] is None, f"{where}: {name} quartiles"
        else:
            assert isinstance(entry["env"], dict) and "PYTHONDONTWRITEBYTECODE" in entry["env"], where
            for name, metric in metrics.items():
                assert metric["q1"] <= metric["median"] <= metric["q3"], f"{where}: {name} quartiles"

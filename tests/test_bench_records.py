"""Every committed benchmark record names what the benchmark defines.

A ``BENCH_*.json`` at the root of the repository records a measured
comparison.  Its ``claim`` and its ``workloads`` must name workloads and an
end-to-end metric that ``BENCHMARK.json`` declares, or the record cannot be
checked against the benchmark it cites.  The claim must also restate its own
record: its medians are those of the claimed workload's metric, its ratio
is theirs and points the way the metric's ``better`` says (above 1 for a
"higher" metric, below 1 for a "lower" one), its pair counts are the
workload's, and every workload's outputs were correct.  This guard only
reads ``BENCHMARK.json`` and the records.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END
    assert record["workloads"]
    assert set(record["workloads"]) <= WORKLOADS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claim_restates_its_workload(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    workload = record["workloads"][claim["workload"]]
    metric = workload["metrics"][claim["metric"]]
    assert claim["parent_median"] == metric["parent"]["median"]
    assert claim["change_median"] == metric["change"]["median"]
    assert claim["change_over_parent"] == round(
        claim["change_median"] / claim["parent_median"], 4)
    if END_TO_END[claim["metric"]] == "higher":
        assert claim["change_over_parent"] > 1
    else:
        assert claim["change_over_parent"] < 1
    assert claim["pairs"] == workload["pairs"]
    assert 0 <= claim["change_wins"] <= claim["pairs"]
    assert all(w["correct_all"] is True for w in record["workloads"].values())

"""Every committed benchmark record names what the benchmark defines.

A ``BENCH_*.json`` at the root of the repository records a measured
comparison.  Its ``claim`` and its ``workloads`` must name workloads and an
end-to-end metric that ``BENCHMARK.json`` declares, or the record cannot be
checked against the benchmark it cites.  This guard only reads
``BENCHMARK.json``.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
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

"""Benchmark of posterior-dynamics: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each workload is a closed loop with one client: one process, one thread,
the items of ``workloads.build`` in a fixed order, each started when the
previous one is done.  A pass runs every item once; passes repeat until the
next one would end after ``--seconds``.  Timings are scaled to a reference
speed by a calibration kernel run around each item.  Outputs are then
checked against golden verdicts, across passes for byte identity, and on
sampled n against the independent references of ``references.py``.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (see ``selfcheck.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from workloads import Item

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
MIN_PASSES = 2
# calibration_s() in quiet stretches on the machine in NOTES.md
CAL_REF_S = 0.02


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PassRecord:
    wall_s: float  # sum of the item times, calibration excluded
    item_s: dict[str, float] = field(default_factory=dict)
    # calibration around each item: cal_s[i] before item i, cal_s[i + 1] after it
    cal_s: list[float] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    results: int = 0  # psi values or audit checks delivered by successful items

    def scaled_s(self) -> dict[str, float]:
        """Item times at the reference speed.  The host is shared; the
        calibration kernel run just before and after an item tracks its
        current speed."""
        return {name: t * 2 * CAL_REF_S / (self.cal_s[i] + self.cal_s[i + 1])
                for i, (name, t) in enumerate(self.item_s.items())}


def calibration_s() -> float:
    """Time of a fixed kernel that does not touch the program: float math,
    float formatting, dict updates and big-int products, the operation mix
    of the workloads."""
    start = time.perf_counter()
    total, table, out = 0.0, {}, []
    for i in range(20000):
        total += math.lgamma(i + 1.5) * 1e-9 + (i * 0.37) ** 0.5
        table[i & 1023] = total
        if i % 8 == 0:
            out.append(format(total, ".17g"))
    ",".join(out)
    x = 3**20000
    for i in range(5):
        x = (x * (x >> 17000) + i) % (1 << 40000)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports the package and
    writes the scenario files, and the median import time inside it."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(directory)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def import_program():
    sys.path.insert(0, str(SRC))
    import posterior_dynamics
    from posterior_dynamics import cli, engine, families, priors

    if not Path(posterior_dynamics.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"posterior_dynamics comes from {posterior_dynamics.__file__}")
    return cli, engine, families, priors


class Runner:
    """Runs the items of one workload and keeps what they delivered."""

    def __init__(self, items: list[Item], scenario_paths: dict[str, str], work: Path, program):
        self.items = items
        self.paths = scenario_paths
        self.out = work / "out"
        self.audit_out = work / "audit"
        self.cli, self.engine, families, self.priors = program
        self.scenarios = {it.name: it.scenario or bundled_scenario(it.bundled)
                          for it in items if it.kind == "psi"}
        self.quadrature_args = {}
        for it in items:
            if it.kind == "quadrature":
                q = it.quadrature
                if q["family"] == "normal":
                    fam, prior = families.normal(q["sigma"]), self.priors.StdNormal()
                else:
                    fam, prior = families.exponential(), self.priors.ExpPrior(q["rate"])
                self.quadrature_args[it.name] = (fam, prior, q["theta0"], q["theta1"])
        self.quadrature_values: dict[str, list] = {}
        self.audit_digests: dict[int, set[str]] = {}
        self.audit_reports: dict[int, dict] = {}

    def audit_seed(self, item: Item, pass_index: int) -> int:
        return item.audit_seeds[pass_index % len(item.audit_seeds)]

    def _call(self, item: Item, pass_index: int) -> None:
        if item.kind == "quadrature":
            fam, prior, t0, t1 = self.quadrature_args[item.name]
            self.quadrature_values[item.name] = [
                self.engine.expected_posterior_quadrature(fam, prior, t0, t1, n)
                for n in item.quadrature["ns"]
            ]
            return
        if item.kind == "psi":
            argv = ["psi", item.bundled or self.paths[item.name], "--out", str(self.out)]
        else:
            seed = self.audit_seed(item, pass_index)
            argv = ["audit", "all", "--seed", str(seed),
                    "--out", str(self.audit_out / str(seed))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    def run_pass(self, pass_index: int, around=None) -> PassRecord:
        """One pass over the items; ``around(item, call)`` may wrap each call."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        record = PassRecord(0.0)
        clock = time.perf_counter
        for item in self.items:
            record.cal_s.append(calibration_s())
            start = clock()
            try:
                if around is None:
                    self._call(item, pass_index)
                else:
                    around(item, lambda: self._call(item, pass_index))
            except Exception as exc:  # a failed item is counted, not fatal
                record.errors[item.name] = type(exc).__name__
            record.item_s[item.name] = clock() - start
        record.cal_s.append(calibration_s())
        record.wall_s = sum(record.item_s.values())
        self._collect(record, pass_index)
        return record

    def timed_passes(self, seconds: float, first_index: int = 0, around=None,
                     min_passes: int = MIN_PASSES) -> list[PassRecord]:
        """Passes until the next one would end after ``seconds``."""
        records = []
        start = time.perf_counter()
        while True:
            records.append(self.run_pass(first_index + len(records), around))
            elapsed = time.perf_counter() - start
            if len(records) >= min_passes and elapsed + records[-1].wall_s > seconds:
                return records

    def _collect(self, record: PassRecord, pass_index: int) -> None:
        """Digest what each item delivered and count its results."""
        for item in self.items:
            ok = item.name not in record.errors
            digest = hashlib.sha256()
            if item.kind == "psi":
                for ext in workloads.OUTPUTS:
                    path = self.out / f"{self.scenarios[item.name]['name']}.{ext}"
                    if path.exists():
                        digest.update(path.read_bytes())
                if ok:
                    record.results += self.scenarios[item.name]["horizon"]
            elif item.kind == "quadrature":
                if ok:
                    digest.update(repr(self.quadrature_values[item.name]).encode())
                    record.results += len(item.quadrature["ns"])
            else:
                seed = self.audit_seed(item, pass_index)
                path = self.audit_out / str(seed) / "audit_all.json"
                if ok:
                    data = path.read_bytes()
                    digest.update(data)
                    self.audit_digests.setdefault(seed, set()).add(digest.hexdigest())
                    report = json.loads(data)
                    self.audit_reports[seed] = report
                    record.results += sum(len(s["checks"]) for s in report["suites"])
                path.unlink(missing_ok=True)
            record.digests[item.name] = digest.hexdigest()


def bundled_scenario(name: str) -> dict:
    path = SRC / "posterior_dynamics" / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    ok_items: int = 0
    sampled: int = 0
    bad_values: int = 0
    known: dict[str, int] = field(default_factory=dict)


def check_outputs(runner: Runner, records: list[PassRecord]) -> Verdict:
    """Failures, byte identity, golden verdicts and reference values."""
    import references as ref

    verdict = Verdict()
    for item in runner.items:
        before = len(verdict.problems)
        errors = {r.errors.get(item.name) for r in records}
        if errors != {None}:
            if errors == {item.expect_error}:
                _note(verdict, item.defects[0])
            else:
                verdict.problems.append(f"{item.name}: failures {sorted(map(str, errors))}")
            continue
        if item.kind == "audit":
            for seed, digests in runner.audit_digests.items():
                if len(digests) != 1:
                    verdict.problems.append(f"audit seed {seed}: report bytes differ across passes")
            for seed, report in runner.audit_reports.items():
                checks = [c for s in report["suites"] for c in s["checks"]]
                verdict.sampled += len(checks)
                failed = sum(not c["pass"] for c in checks)
                verdict.bad_values += failed
                if failed or not report["pass"]:
                    verdict.problems.append(f"audit seed {seed}: {failed} checks failed")
        elif len({r.digests[item.name] for r in records}) != 1:
            verdict.problems.append(f"{item.name}: outputs differ across passes")
        if item.kind == "psi":
            check_psi(runner, item, verdict, ref)
        elif item.kind == "quadrature":
            check_quadrature(runner, item, verdict, ref)
        verdict.ok_items += len(verdict.problems) == before
    return verdict


def _note(verdict: Verdict, defect: str) -> None:
    verdict.known[defect] = verdict.known.get(defect, 0) + 1


def _known_defect(item: Item, err: float, value: float, reference) -> str | None:
    """The documented defect that explains an out-of-tolerance value."""
    # ratio_to_float keeps 55 - log2(den/num) bits, so its error is 2^-55/psi
    if "ratio_to_float" in item.defects and err * float(reference) <= 2.0**-52:
        return "ratio_to_float"
    if "log_cancellation" in item.defects and err <= workloads.LOG_CANCELLATION_ENVELOPE:
        return "log_cancellation"
    if "quadrature_early_stop" in item.defects and value < reference:
        return "quadrature_early_stop"
    return None


def _classify(item: Item, err: float, value: float, reference, tol: float,
              verdict: Verdict, where: str) -> None:
    verdict.sampled += 1
    if err <= tol:
        return
    verdict.bad_values += 1
    defect = _known_defect(item, err, value, reference)
    if defect is None:
        verdict.problems.append(f"{where}: relative error {err:.3g} exceeds {tol:g}")
    else:
        _note(verdict, defect)


def check_psi(runner: Runner, item: Item, verdict: Verdict, ref) -> None:
    scenario = runner.scenarios[item.name]
    base = runner.out / scenario["name"]
    if item.golden is not None:
        diagnostics = json.loads((base.with_suffix(".json")).read_text())["diagnostics"]
        got = workloads.verdicts(diagnostics)
        for key, want in item.golden.items():
            if got[key] != want:
                verdict.problems.append(f"{item.name}: {key} {got[key]} != golden {want}")
    rows = (base.with_suffix(".csv")).read_text().splitlines()[1:]
    tol = ref.EXACT_RTOL if scenario.get("numeric_mode") == "exact" else ref.FLOAT_RTOL
    for n in ref.sample_ns(scenario["horizon"]):
        fields = rows[n - 1].split(",")
        if int(fields[0]) != n:
            verdict.problems.append(f"{item.name}: CSV row {n} holds n={fields[0]}")
            continue
        value, log_value = float(fields[1]), float(fields[2])
        reference = ref.scenario_reference(scenario, n)
        if scenario["prior"]["type"] == "atoms" and n <= ref.BRUTEFORCE_MAX_N:
            brute = runner.engine.expected_posterior_bruteforce(
                *atoms_arguments(runner.priors, scenario), n)
            if brute != reference:
                verdict.problems.append(f"{item.name}: brute force != reference at n={n}")
        err = ref.relative_error(value, log_value, reference)
        _classify(item, err, value, reference, tol, verdict, f"{item.name} n={n}")


def atoms_arguments(priors, scenario: dict):
    prior = priors.atoms(*((Fraction(a["theta"]), Fraction(a["weight"]))
                           for a in scenario["prior"]["atoms"]))
    return prior, Fraction(scenario["theta0"]), Fraction(scenario["theta1"])


def check_quadrature(runner: Runner, item: Item, verdict: Verdict, ref) -> None:
    q = item.quadrature
    for n, (value, _error) in zip(q["ns"], runner.quadrature_values[item.name]):
        if q["family"] == "normal":
            reference = ref.normal_psi(q["theta0"], q["theta1"], q["sigma"], n)
        else:
            reference = ref.exponential_psi(q["theta0"], q["theta1"], q["rate"], n)
        err = ref.relative_error(value, None, reference)
        _classify(item, err, value, reference, ref.FLOAT_RTOL, verdict, f"{item.name} n={n}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(records: list[PassRecord], setup_s: float, rss_mb: float,
               verdict: Verdict, n_items: int) -> dict[str, float]:
    scaled = [r.scaled_s() for r in records]
    slowest = [max((t for n, t in s.items() if n not in r.errors), default=0.0)
               for r, s in zip(records, scaled)]
    return {
        "setup_s": setup_s,
        "results_per_s": statistics.median(
            r.results / sum(s.values()) for r, s in zip(records, scaled)),
        "slowest_item_s": statistics.median(slowest),
        "peak_rss_mb": rss_mb,
        "ok_item_frac": verdict.ok_items / n_items,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_specs(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json names for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    if not (SRC / "posterior_dynamics" / "__init__.py").is_file():
        raise BenchError(f"no program at {SRC / 'posterior_dynamics'}; run from a checkout")
    specs = metric_specs(args.trace)
    os.environ.pop("PD_THREADS", None)  # every workload is one thread
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    items = workloads.build(args.workload, args.seed)
    setup_s, import_s = measure_setup(args.workload, args.seed, work / "scenarios")
    paths = {it.name: str(work / "scenarios" / f"{it.name}.json")
             for it in items if it.scenario is not None}
    runner = Runner(items, paths, work, import_program())

    if args.trace:
        import selfcheck

        records, layer = selfcheck.traced_run(runner, args.seconds)
    else:
        records = runner.timed_passes(args.seconds)
    rss_mb = peak_rss_mb()
    verdict = check_outputs(runner, records)
    if args.trace:
        verdict.problems += layer.pop("problems")
    attempted = len(items) * len(records)
    failed = sum(len(r.errors) for r in records)

    print(f"workload {args.workload} seed {args.seed}: {len(records)} passes, "
          f"pass wall median {statistics.median(r.wall_s for r in records):.3f} s, "
          f"calibration median {statistics.median(c for r in records for c in r.cal_s):.4f} s, "
          f"bad_values {verdict.bad_values} of {verdict.sampled} sampled, "
          f"failed items {failed} of {attempted}")
    print("  item medians: " + ", ".join(
        f"{it.name} {statistics.median(r.item_s[it.name] for r in records):.3f} s"
        for it in items))
    for defect, count in sorted(verdict.known.items()):
        print(f"  known defect {defect}: {count} ({workloads.KNOWN_DEFECTS[defect]})")
    for problem in verdict.problems:
        print(f"  PROBLEM {problem}")

    if args.trace:
        layer["check.bad_values"] = verdict.bad_values
        layer["check.failed_items"] = failed / len(records)
        layer["import.posterior_dynamics_s"] = import_s
        values = layer
    else:
        values = end_to_end(records, setup_s, rss_mb, verdict, len(items))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return {"correct": not verdict.problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

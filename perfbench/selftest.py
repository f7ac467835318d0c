"""Fast self-test of the benchmark's workloads and checks, at tiny scale.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks that

* the output checks accept right counters and reject wrong ones (a
  perturbed counter, a short flip-flop, a sequential flip-flop stopped
  early or over its cap, a broken Table I shape);
* span self times and ``unattributed_s`` add up to the wall time;
* every workload runs end to end on the tiny circuits through ``run.py``,
  passes its checks and prints exactly the metrics ``BENCHMARK.json``
  declares, with their units;
* ``run.py`` exits non-zero without a result where the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import Spans  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_flat_checks() -> None:
    tallies = {"a": (4, 1, 3), "b": (4, 0, 0)}
    pinned = checks.digest(tallies)
    expect(checks.digest(dict(reversed(tallies.items()))) == pinned, "digest is order-independent")
    expect(checks.check_flat(tallies, ["a", "b"], 4, pinned) == [], "right counters pass")
    perturbed = {"a": (4, 2, 3), "b": (4, 0, 0)}
    expect(checks.check_flat(perturbed, ["a", "b"], 4, pinned), "perturbed counter fails")
    short = {"a": (4, 1, 3), "b": (3, 0, 0)}
    expect(checks.check_flat(short, ["a", "b"], 4, None), "short flip-flop fails")
    expect(checks.check_flat(tallies, ["a", "b", "c"], 4, None), "missing flip-flop fails")
    bad = {"a": (4, 0, 2), "b": (4, 0, 0)}
    expect(checks.check_flat(bad, ["a", "b"], 4, None), "latency without failure fails")


def test_sequential_checks() -> None:
    def retired(n: int, k: int) -> bool:
        return n >= 3 and k in (0, n)

    names = ["a", "b", "c"]
    good = {"a": (3, 0, 0), "b": (8, 4, 9), "c": (4, 4, 4)}
    expect(checks.check_sequential(good, names, 6, 8, retired) == [], "retired or capped passes")
    early = {"a": (3, 0, 0), "b": (5, 2, 3), "c": (4, 4, 4)}
    expect(checks.check_sequential(early, names, 6, 8, retired), "open flip-flop fails")
    over = {"a": (3, 0, 0), "b": (9, 4, 9), "c": (4, 4, 4)}
    expect(checks.check_sequential(over, names, 6, 8, retired), "over the cap fails")
    spent = {"a": (6, 3, 3), "b": (6, 3, 3), "c": (6, 3, 3)}
    expect(checks.check_sequential(spent, names, 6, 8, retired) == [], "spent budget passes")
    overspent = {"a": (7, 3, 3), "b": (6, 3, 3), "c": (6, 3, 3)}
    expect(checks.check_sequential(overspent, names, 6, 8, retired), "over budget fails")


def test_table1_checks() -> None:
    from repro.experiments.table1 import Table1Result

    def table(lls: float, knn: float, svr: float) -> Table1Result:
        return Table1Result(
            rows={
                "Linear Least Squares": {"r2": lls},
                "k-NN": {"r2": knn},
                "SVR w/ RBF Kernel": {"r2": svr},
            }
        )

    expect(checks.check_table1(table(0.6058, 0.9308, 0.9128), checks.PINNED_R2) == [], "pinned R² pass")
    expect(checks.check_table1(table(0.6058, 0.9308, 0.9000), checks.PINNED_R2), "moved R² fails")
    expect(checks.check_table1(table(0.9, 0.9, 0.9), None), "lost shape fails")


def test_span_accounting() -> None:
    spans = Spans("selftest", enabled=True)
    t0 = time.monotonic()
    spans.add("startup.import", t0 - 0.01, t0)
    with spans.span("outer"):
        with spans.span("inner"):
            time.sleep(0.01)
        time.sleep(0.01)
    time.sleep(0.005)
    wall = time.monotonic() - (t0 - 0.01)
    self_times = spans.self_times()
    unattributed = wall - spans.covered()
    expect(abs(sum(self_times.values()) + unattributed - wall) < 1e-9, "self times + unattributed = wall")
    outer = spans.records[1]
    expect(
        abs(self_times["outer"] + self_times["inner"] - (outer["end"] - outer["start"])) < 1e-9,
        "a child's time is excluded from its parent's self time",
    )
    expect(unattributed >= 0.005, "uncovered time is unattributed")
    expect(all(r["run_id"] == "selftest" for r in spans.records), "spans share the run id")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_workloads_end_to_end() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "3", "--seconds", "1"]
            proc = run_bench(ROOT, *args, "--trace", str(trace), "--scale", "tiny")
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0, f"{workload} checks pass")
            expect(result["attempted"] >= 1, "attempted counts operations")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace], f"{workload} trace={trace} metric set: {units}")
            print(f"ok  {workload} trace={trace}")


def test_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "--workload", "seq_j2", "--seed", "0", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0, "no program -> non-zero exit")
        expect(proc.stdout.strip() == "", "no program -> no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for test in (
        test_flat_checks,
        test_sequential_checks,
        test_table1_checks,
        test_span_accounting,
        test_refuses_without_program,
        test_workloads_end_to_end,
    ):
        test()
        print(f"ok  {test.__name__}")
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: paper-scale Table I and a sequential two-worker
campaign, each timed end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_table1 --seed 0 --seconds 60 --trace 0

Each repetition runs the workload once in a fresh Python process
(``perfbench/workloads.py``) with empty in-process caches, closed loop: one
job in flight, at most two campaign worker processes.  Repetitions continue
while another one is predicted to fit in ``--seconds`` (at least
:data:`MIN_REPS`), and every metric is the median over repetitions.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A traced run alternates untraced and traced repetitions; the span
self times come from the traced ones and ``trace.overhead_s`` is the
traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are the
output checks (one per repetition) plus the campaign's shard dispatches;
retried or quarantined dispatches and failed checks count as failed.
``--scale tiny`` swaps in the tiny circuits (for ``selftest.py``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import MODEL_KEYS, SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: No repetition starts or runs past this many seconds into a run, which
#: leaves time to stop a hung one and still exit within 180 s.
RUN_CAP_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "inj_per_s": "1/s", "peak_rss_mb": "MB"}

#: Span name -> per-layer metric (self seconds).
LAYER_SPANS = {
    "startup.import": "startup.import_s",
    "circuits.synth": "circuits.synth_s",
    "sim.golden": "sim.golden_s",
    "campaigns.warmup": "campaigns.warmup_s",
    "campaigns.run": "campaigns.run_s",
    "features.extract": "features.extract_s",
    "ml.cv_lls": "ml.cv_lls_s",
    "ml.cv_knn": "ml.cv_knn_s",
    "ml.cv_svr": "ml.cv_svr_s",
    "bench.check": "bench.check_s",
}

#: Program-published count -> per-layer metric.
LAYER_COUNTS = {
    "n_shards": ("campaigns.shards", "count"),
    "rounds": ("campaigns.rounds", "count"),
    "injections_saved": ("campaigns.injections_saved", "count"),
    "retries": ("campaigns.retries", "count"),
    "quarantined": ("campaigns.quarantined", "count"),
    "forward_runs": ("faultinjection.forward_runs", "count"),
    "lane_cycles": ("faultinjection.lane_cycles", "count"),
    "lane_occupancy": ("faultinjection.lane_occupancy", "ratio"),
    "cone_gate_hit_rate": ("faultinjection.cone_gate_hit_rate", "ratio"),
}


def run_child(
    workload: str, seed: int, trace: int, scale: str, timeout: float
) -> Tuple[Optional[Dict], str]:
    """One repetition in a fresh process: ``(record, "")`` or ``(None, why)``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--scale", scale,
            "--t0", repr(t0),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _signal_group(proc.pid, signal.SIGINT)
        try:
            proc.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.communicate()
        return None, f"timed out after {timeout:.0f}s"
    finally:
        _wait_group(proc.pid)
    if proc.returncode != 0:
        return None, f"exited with code {proc.returncode}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "printed no result record"


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _group_running(pgid: int) -> bool:
    """Whether a process of the group still runs (zombies have ended)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _wait_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until the repetition's workers have ended too; kill stragglers."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            _signal_group(pgid, sig)
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not _group_running(pgid):
                return
            time.sleep(0.02)


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
        "inj_per_s": med(r["inj_per_s"] for r in records),
        "peak_rss_mb": med(r["parent_rss_mb"] + r["worker_rss_mb"] for r in records),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, Tuple[float, str]]:
    """Median per-layer metrics of the traced repetitions."""
    med = statistics.median
    out: Dict[str, Tuple[float, str]] = {}
    for span, metric in LAYER_SPANS.items():
        out[metric] = (med(r["layers"].get(span, 0.0) for r in traced), "s")
    out["unattributed_s"] = (med(r["unattributed_s"] for r in traced), "s")
    traced_wall = med(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - med(r["wall_s"] for r in untraced), "s")
    for key, (metric, unit) in LAYER_COUNTS.items():
        out[metric] = (med(r["counts"][key] for r in traced), unit)
    out["faultinjection.lane_cycles_per_inj"] = (
        med(r["counts"]["lane_cycles"] / r["injections"] for r in traced),
        "count",
    )
    for model in MODEL_KEYS.values():
        # Zero where the workload trains nothing.
        out[f"ml.r2_{model}"] = (med(r["r2"].get(model, 0.0) for r in traced), "r2")
    out["mem.parent_rss_mb"] = (med(r["parent_rss_mb"] for r in traced), "MB")
    out["mem.worker_rss_mb"] = (med(r["worker_rss_mb"] for r in traced), "MB")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, default="paper")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    started = time.monotonic()
    # Byte-compile up front so every repetition imports from bytecode, as an
    # installed package would; only the first run in a checkout pays this.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    records: Dict[int, List[Dict]] = {0: [], 1: []}
    attempted = failed = 0
    problems: List[str] = []
    durations: List[float] = []
    rep = 0
    while True:
        elapsed = time.monotonic() - started
        budget = min(args.seconds, RUN_CAP_S)
        if rep >= MIN_REPS and elapsed + statistics.median(durations) > budget:
            break
        if elapsed >= RUN_CAP_S:
            break
        # A traced run alternates untraced and traced repetitions.
        trace = rep % 2 if args.trace else 0
        rep_start = time.monotonic()
        record, error = run_child(
            args.workload, args.seed, trace, args.scale, RUN_CAP_S - elapsed
        )
        durations.append(time.monotonic() - rep_start)
        rep += 1
        attempted += 1
        if record is None:
            failed += 1
            problems.append(f"repetition {rep}: {error}")
            break
        counts = record["counts"]
        attempted += counts["n_shards"] + counts["retries"]
        failed += counts["retries"] + counts["quarantined"]
        if record["problems"]:
            failed += 1
            problems += [f"repetition {rep}: {p}" for p in record["problems"]]
        records[trace].append(record)
        print(
            f"[{args.workload} seed={args.seed} rep={rep} trace={trace}] "
            f"wall {record['wall_s']:.2f}s setup {record['setup_s']:.2f}s "
            f"{record['inj_per_s']:.0f} inj/s digest {record['digest']}",
            file=sys.stderr,
        )

    if not records[0] or (args.trace and not records[1]):
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(records[1], records[0])
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(records[0]).items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

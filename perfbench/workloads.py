"""Run one benchmark workload once, in this (fresh) process.

``run.py`` starts this script once per repetition so every repetition pays
the real start-up cost (interpreter, imports, synthesis, golden trace,
kernel code generation) with empty in-process caches::

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper_table1 \\
        --seed 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')"

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; ``CLOCK_MONOTONIC`` is system-wide on Linux, so ``wall_s`` runs
from process start to the checked result.  The last line of standard
output is one JSON record (see :func:`main`).

The workload calls the layers' public functions in sequence.  With
``--trace 1`` each call becomes a span (name, start, end, parent, run id);
calls the program makes internally on the same seams (the engine's warm-up,
the golden trace) are wrapped by patching the attribute the caller looks
up, in the traced run only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

import checks

WORKLOADS = ("paper_table1", "seq_j2")
SCALES = ("paper", "tiny")

#: Paper-model name -> per-layer metric suffix.
MODEL_KEYS = {
    "Linear Least Squares": "lls",
    "k-NN": "knn",
    "SVR w/ RBF Kernel": "svr",
}


class Spans:
    """In-memory span recorder; a no-op when disabled."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.records: List[Dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span (e.g. process start-up)."""
        if self.enabled:
            self.records.append(
                {"name": name, "start": start, "end": end, "parent": None, "run_id": self.run_id}
            )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span."""
        if not self.enabled:
            return
        inner = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, spanned)

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: span duration minus its direct children's."""
        totals: Dict[str, float] = {}
        child_time = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for i, rec in enumerate(self.records):
            own = rec["end"] - rec["start"] - child_time[i]
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + own
        return totals

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(r["end"] - r["start"] for r in self.records if r["parent"] is None)


# ------------------------------------------------------------------ specs


def xgmac_spec(scale: str, seed: int, **campaign_kwargs):
    """The repository's paper-scale (or tiny) xgmac preset, re-seeded.

    The default seed reproduces ``DATASET_PRESETS`` exactly.  Other seeds
    shift the injection seed only: the frame stimulus keeps the preset's
    seed because its random frame lengths set the amount of work.
    """
    from dataclasses import replace

    from repro.campaigns import CampaignSpec
    from repro.data import DATASET_PRESETS

    preset = DATASET_PRESETS["full" if scale == "paper" else "tiny"]
    dataset_spec = replace(preset, campaign_seed=preset.campaign_seed + seed)
    return CampaignSpec.from_dataset_spec(dataset_spec, **campaign_kwargs)


# -------------------------------------------------------------- workloads


def _install_seams(spans: Spans) -> None:
    """Span the layer calls the program makes internally (traced run only)."""
    from repro.campaigns import warmstart
    from repro.campaigns.spec import CampaignContext

    spans.wrap(warmstart, "warm_context", "campaigns.warmup")
    spans.wrap(warmstart, "ensure_runner", "campaigns.warmup")
    spans.wrap(CampaignContext, "ensure_golden", "sim.golden")


def _run_campaign(spans: Spans, spec, jobs: int, out: Dict):
    """Synthesize, record the golden trace and run the campaign engine.

    The engine's warm-up (adopting the context, building the shard runner)
    happens inside ``CampaignEngine.run``; ``EngineReport.warmup_seconds``
    says how long it took.
    """
    from repro.campaigns import CampaignEngine, build_context

    with spans.span("circuits.synth"):
        context = build_context(spec)
    golden = context.ensure_golden()
    engine = CampaignEngine(spec, jobs=jobs, context=context)
    start = time.monotonic()
    with spans.span("campaigns.run"):
        result = engine.run()
    out["run_start"] = start
    out["run_s"] = time.monotonic() - start
    report = engine.last_report
    out["report"] = {
        "n_shards": report.n_shards,
        "rounds": report.rounds,
        "injections_saved": report.injections_saved,
        "retries": report.retries,
        "quarantined": len(report.quarantined_shards),
        "warmup_seconds": report.warmup_seconds,
    }
    out["injections"] = sum(r.n_injections for r in result.results.values())
    out["forward_runs"] = result.n_forward_runs
    out["lane_cycles"] = result.total_lane_cycles
    return context, golden, result


def run_paper_table1(scale: str, seed: int, spans: Spans, out: Dict) -> List[str]:
    """Flat legacy campaign (jobs=1) -> features -> Table I."""
    from repro.experiments.common import CV_FOLDS, TRAIN_SIZE, paper_models
    from repro.experiments.table1 import Table1Result
    from repro.features.extractor import build_dataset
    from repro.ml.model_selection import StratifiedRegressionKFold, cross_validate

    spec = xgmac_spec(scale, seed, schedule="legacy")
    context, golden, result = _run_campaign(spans, spec, 1, out)
    with spans.span("features.extract"):
        dataset = build_dataset(context.netlist, golden, result)

    table = Table1Result()
    splitter = StratifiedRegressionKFold(n_splits=CV_FOLDS, random_state=0)
    for name, model in paper_models().items():
        with spans.span(f"ml.cv_{MODEL_KEYS[name]}"):
            outcome = cross_validate(
                model, dataset.X, dataset.y, cv=splitter, train_size=TRAIN_SIZE, random_state=0
            )
        table.rows[name] = outcome.summary()
    out["r2"] = {MODEL_KEYS[m]: row["r2"] for m, row in table.rows.items()}

    with spans.span("bench.check"):
        default = scale == "paper" and seed == checks.DEFAULT_SEED
        tallies = checks.counters(result)
        out["digest"] = checks.digest(tallies)
        problems = checks.check_flat(
            tallies,
            context.ff_names(spec),
            spec.n_injections,
            checks.PINNED_DIGEST if default else None,
        )
        if scale == "paper":
            # Tiny-scale datasets are too small for the paper's shape claim.
            problems += checks.check_table1(table, checks.PINNED_R2 if default else None)
    return problems


def run_seq_j2(scale: str, seed: int, spans: Spans, out: Dict) -> List[str]:
    """Sequential-Wilson campaign at the default margin, stream, jobs=2."""
    from repro.campaigns import make_policy
    from repro.campaigns.policy import MAX_BUDGET_FACTOR

    spec = xgmac_spec(scale, seed, schedule="stream", policy="sequential")
    context, _golden, result = _run_campaign(spans, spec, 2, out)

    with spans.span("bench.check"):
        policy = make_policy(spec)
        cap = min(MAX_BUDGET_FACTOR * spec.n_injections, len(context.window_cycles()))
        tallies = checks.counters(result)
        out["digest"] = checks.digest(tallies)
        problems = checks.check_sequential(
            tallies, context.ff_names(spec), spec.n_injections, cap, policy.retired
        )
    return problems


RUNNERS: Dict[str, Callable[[str, int, Spans, Dict], List[str]]] = {
    "paper_table1": run_paper_table1,
    "seq_j2": run_seq_j2,
}


# ------------------------------------------------------------------ main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="paper")
    args = parser.parse_args(argv)

    spans = Spans(f"{args.workload}-{args.seed}-{os.getpid()}", bool(args.trace))
    import repro.campaigns  # noqa: F401  (the layers every workload loads)
    import repro.data  # noqa: F401
    import repro.experiments.table1  # noqa: F401
    import repro.features.extractor  # noqa: F401
    from repro.obs import get_telemetry

    imported = time.monotonic()
    spans.add("startup.import", args.t0, imported)
    _install_seams(spans)

    out: Dict = {}
    problems = RUNNERS[args.workload](args.scale, args.seed, spans, out)
    checked = time.monotonic()

    snapshot = get_telemetry().registry.snapshot()
    report = out["report"]
    # Set-up ends when the engine's warm-up inside run() is done.
    warmup = report["warmup_seconds"]
    campaign_s = out["run_s"] - warmup
    kib = 1024.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "problems": problems,
        "digest": out["digest"],
        "wall_s": checked - args.t0,
        "setup_s": out["run_start"] - args.t0 + warmup,
        "campaign_s": campaign_s,
        "injections": out["injections"],
        "inj_per_s": out["injections"] / campaign_s,
        "parent_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
        "r2": out.get("r2", {}),
        "counts": {
            **{k: v for k, v in report.items() if k != "warmup_seconds"},
            "forward_runs": out["forward_runs"],
            "lane_cycles": out["lane_cycles"],
            "lane_occupancy": snapshot.gauge_mean("scheduler.lane_occupancy"),
            "cone_gate_hit_rate": snapshot.gauge_mean("scheduler.cone_gate_hit_rate"),
        },
    }
    if args.trace:
        record["layers"] = spans.self_times()
        record["unattributed_s"] = record["wall_s"] - spans.covered()
        record["spans"] = spans.records
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The campaign engine: sharded execution, merging, caching, resume.

:class:`CampaignEngine` turns a :class:`~repro.campaigns.spec.CampaignSpec`
into a :class:`~repro.faultinjection.campaign.CampaignResult`:

1. consult the :class:`~repro.campaigns.store.CampaignStore` (if a cache
   directory is configured) — an exact snapshot hit costs zero forward
   simulations, and with the ``stream`` schedule a smaller snapshot seeds an
   incremental top-up;
2. plan the remaining injection draws as time-slot buckets and partition
   them into balanced shards;
3. run the shards through a :class:`~repro.campaigns.supervisor.SupervisedPool`
   — worker processes (``jobs > 1``), each of which rebuilds its own
   netlist/golden trace/:class:`FaultInjector` from the picklable spec, or
   the in-process serial runner.  The supervisor retries failed/hung/lost
   shards with backoff, rebuilds broken pools, quarantines shards that
   keep failing (reported in :attr:`EngineReport.quarantined_shards`
   instead of raising), and degrades to serial execution when the pool
   itself is unreliable;
4. merge the per-flip-flop counters (pure integer sums, so the merged
   result is bit-identical to a serial run of the same schedule) and
   checkpoint progress to the store on a throttled interval (with an exact
   write at every exit path).

``KeyboardInterrupt`` (or any other error) mid-campaign leaves a valid
checkpoint behind; the next run with the same spec resumes from it.  A
campaign that completed *with* quarantined shards is persisted as a
partial, never as a snapshot, so a rerun retries only the missing work.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..faultinjection.campaign import CampaignResult, FlipFlopResult
from ..faultinjection.injector import FaultInjector
from ..faultinjection.scheduler import AdaptiveScheduler
from ..obs import (
    MetricsSnapshot,
    ProgressThrottle,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from . import warmstart
from .partition import (
    Bucket,
    legacy_buckets,
    partition_shards,
    stream_buckets,
    stream_buckets_ranged,
)
from .policy import ShardGate, make_policy, policy_signature, realized_margins
from .spec import CampaignContext, CampaignSpec, build_context
from .store import CampaignStore
from .supervisor import RetryPolicy, ShardOutcome, SupervisedPool

__all__ = ["CampaignEngine", "EngineReport", "RetryPolicy", "run_campaign"]

#: Shards per worker process on the flat path, where the shard is the
#: checkpoint unit: more shards than workers smooths load balance and
#: tightens checkpoint granularity.  Sequential rounds run one shard per
#: worker (see :meth:`CampaignEngine._run_sequential`).
SHARDS_PER_JOB = 4

#: Minimum seconds between mid-run partial-checkpoint writes.  Checkpoints
#: are full-payload JSON documents; writing one per shard made store I/O
#: scale O(shards) with campaign size.  Exits (exception, quarantine) always
#: write exactly, so at most one throttle-interval of work is ever at risk.
CHECKPOINT_INTERVAL = 5.0


@dataclass
class EngineReport:
    """What one :meth:`CampaignEngine.run` actually did (vs. reused)."""

    jobs: int = 1
    cache_hit: bool = False
    base_injections: int = 0
    resumed_buckets: int = 0
    executed_buckets: int = 0
    executed_lanes: int = 0
    executed_forward_runs: int = 0
    n_shards: int = 0
    wall_seconds: float = 0.0
    #: Sequential-policy rounds driven (0 for the flat single-round path).
    rounds: int = 0
    #: Injections the sampling policy avoided vs. the flat protocol's
    #: ``nominal × n_ffs`` total (0 for flat).
    injections_saved: int = 0
    #: Shard re-executions the supervisor performed (failures, timeouts,
    #: worker losses — every dispatch beyond a shard's first).
    retries: int = 0
    #: Worker-pool teardown/rebuild cycles (hung or dead workers).
    pool_rebuilds: int = 0
    #: Whether the supervisor gave up on the pool and finished serially.
    degraded_serial: bool = False
    #: Shards abandoned after exhausting their retry budget.  Non-empty
    #: means the result is incomplete (and was persisted as a partial, not
    #: a snapshot); each entry is a ``QuarantinedShard.to_dict()``.
    quarantined_shards: List[Dict] = field(default_factory=list)
    #: Seconds spent building warm-cache entries (context, golden trace,
    #: shard runner) that were not already resident in this process.
    warmup_seconds: float = 0.0
    #: Warm-cache runner lookups that found a resident runner / had to
    #: build one (see :mod:`repro.campaigns.warmstart`).
    warm_hits: int = 0
    warm_misses: int = 0
    #: Pool rebuilds whose replacement workers re-forked from the parent's
    #: warm cache instead of re-deriving the execution environment.
    warm_rebuild_reuses: int = 0


@dataclass
class _Accumulator:
    """Mergeable per-flip-flop counters plus engine-level metrics."""

    ff: Dict[str, List[int]] = field(default_factory=dict)
    n_forward_runs: int = 0
    total_lane_cycles: int = 0
    wall_seconds: float = 0.0

    def merge_shard(self, payload: Dict) -> None:
        for name, (inj, fail, lat) in payload["ff"].items():
            rec = self.ff.setdefault(name, [0, 0, 0])
            rec[0] += inj
            rec[1] += fail
            rec[2] += lat
        self.n_forward_runs += payload["n_forward_runs"]
        self.total_lane_cycles += payload["total_lane_cycles"]

    def to_payload(self) -> Dict:
        return {
            "ff": self.ff,
            "n_forward_runs": self.n_forward_runs,
            "total_lane_cycles": self.total_lane_cycles,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "_Accumulator":
        acc = cls(
            n_forward_runs=payload.get("n_forward_runs", 0),
            total_lane_cycles=payload.get("total_lane_cycles", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )
        acc.ff = {name: list(rec) for name, rec in payload.get("ff", {}).items()}
        return acc


def _shard_payload_error(payload: object) -> Optional[str]:
    """Shape-check one shard payload before it is merged.

    The supervisor applies this to every worker return value: a payload
    that fails (wrong type, non-integer counters, missing keys — e.g. a
    torn pickle or a chaos-malformed result) counts as a failed attempt
    and is retried/quarantined instead of corrupting the merged counters.
    """
    if not isinstance(payload, dict):
        return f"expected dict payload, got {type(payload).__name__}"
    ff = payload.get("ff")
    if not isinstance(ff, dict):
        return "missing or invalid 'ff' counter map"
    if isinstance(ff.get("idx"), bytes):
        # Packed tally transport (see warmstart.pack_tallies).
        packed_error = warmstart.validate_packed_tally(ff)
        if packed_error is not None:
            return packed_error
    else:
        for name, rec in ff.items():
            if (
                not isinstance(name, str)
                or not isinstance(rec, (list, tuple))
                or len(rec) != 3
                or not all(isinstance(v, int) for v in rec)
            ):
                return f"malformed counter record for {name!r}"
    for key in ("n_forward_runs", "total_lane_cycles"):
        if not isinstance(payload.get(key), int):
            return f"missing or invalid {key!r}"
    cycles = payload.get("done_cycles")
    if not isinstance(cycles, list) or not all(isinstance(c, int) for c in cycles):
        return "missing or invalid 'done_cycles'"
    skipped = payload.get("skipped", {})
    if not isinstance(skipped, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in skipped.items()
    ):
        return "missing or invalid 'skipped'"
    return None


class _ShardRunner:
    """Executes buckets against one injector (one per process).

    With the default ``adaptive`` scheduler a shard's buckets all feed one
    long-lived :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`,
    so lanes freed by early retirement are refilled with the shard's later
    injections instead of draining per-bucket batches.  ``scheduler="batch"``
    keeps the original one-forward-run-per-time-slot execution.  Per-lane
    verdicts are identical either way, so shard merges stay bit-exact.
    """

    def __init__(self, spec: CampaignSpec, context: CampaignContext) -> None:
        self.spec = spec
        golden = context.ensure_golden()
        self.injector = FaultInjector(
            context.netlist,
            context.workload.testbench,
            golden,
            context.criterion,
            check_interval=spec.check_interval,
            backend=spec.backend,
            fault_model=spec.fault_model,
        )
        self.scheduler: Optional[AdaptiveScheduler] = None
        if spec.scheduler == "adaptive":
            # max_lanes=None: backend-tuned wide passes (spec.max_lanes is
            # the *batch* chunk width; refill keeps wider passes saturated).
            self.scheduler = AdaptiveScheduler(self.injector, max_lanes=None)

    @classmethod
    def from_spec(cls, spec: CampaignSpec) -> "_ShardRunner":
        return cls(spec, build_context(spec))

    def run_shard(
        self,
        buckets: Sequence[Tuple[int, Sequence[str]]],
        gate: Optional[ShardGate] = None,
        attempt: int = 1,
    ) -> Dict:
        """Simulate a shard's buckets; return mergeable counters.

        *gate*, when given, is the sampling policy's online decision point:
        every injection is offered to ``gate.admit`` before it costs a lane,
        and verdicts are reported back so in-shard tallies tighten as lanes
        retire.  Skipped draws are returned in the payload's ``"skipped"``
        map — they consumed their draw-stream indices without executing.

        *attempt* is the supervisor's 1-based dispatch ordinal for this
        shard.  Simulation is attempt-independent (retries must stay
        bit-identical); only the chaos wrapper reads it, to make fault
        decisions deterministic per (shard, attempt).

        The payload also carries the shard's wall time (feeds the engine's
        worker-utilization gauge) and, per backend, a lane-cycles/sec gauge
        observation in the *current* telemetry registry — which is the
        worker's own throwaway registry when running in a pool process, and
        the engine's when running serially.
        """
        del attempt  # real simulation never varies across retries
        start = time.perf_counter()
        payload = (
            self._run_shard_scheduled(buckets, gate)
            if self.scheduler is not None
            else self._run_shard_batches(buckets, gate)
        )
        wall = time.perf_counter() - start
        payload["wall_seconds"] = wall
        # Dense index/counts transport instead of a name-keyed dict: on wide
        # circuits the flip-flop name strings dominate the result pickle.
        # The engine rehydrates against the netlist's canonical order.
        payload["ff"] = warmstart.pack_tallies(payload["ff"], self.injector.ff_index)
        registry = get_telemetry().registry
        registry.timer("executor.shard_seconds").observe(wall)
        if wall > 0:
            registry.gauge(f"sim.{self.spec.backend}.lane_cycles_per_sec").set(
                payload["total_lane_cycles"] / wall
            )
        return payload

    def _run_shard_batches(
        self,
        buckets: Sequence[Tuple[int, Sequence[str]]],
        gate: Optional[ShardGate] = None,
    ) -> Dict:
        spec = self.spec
        injector = self.injector
        ff: Dict[str, List[int]] = {}
        n_runs = 0
        lane_cycles = 0
        for cycle, lanes in buckets:
            if gate is not None:
                lanes = tuple(name for name in lanes if gate.admit(name))
                if not lanes:
                    continue
            indices = [injector.ff_index(name) for name in lanes]
            for start in range(0, len(indices), spec.max_lanes):
                chunk = indices[start : start + spec.max_lanes]
                names = lanes[start : start + spec.max_lanes]
                outcome = injector.run_batch(cycle, chunk, horizon=spec.horizon)
                n_runs += 1
                lane_cycles += outcome.cycles_simulated * len(chunk)
                for lane, name in enumerate(names):
                    failed = bool((outcome.failed_mask >> lane) & 1)
                    if gate is not None:
                        gate.record(name, failed)
                    rec = ff.setdefault(name, [0, 0, 0])
                    rec[0] += 1
                    if failed:
                        rec[1] += 1
                        rec[2] += outcome.latencies.get(lane, 0)
        return {
            "ff": ff,
            "n_forward_runs": n_runs,
            "total_lane_cycles": lane_cycles,
            "done_cycles": [cycle for cycle, _ in buckets],
            "skipped": dict(gate.skipped) if gate is not None else {},
        }

    def _run_shard_scheduled(
        self,
        buckets: Sequence[Tuple[int, Sequence[str]]],
        gate: Optional[ShardGate] = None,
    ) -> Dict:
        injector = self.injector
        requests: List[Tuple[int, int]] = []
        names: List[str] = []
        for cycle, lanes in buckets:
            for name in lanes:
                requests.append((cycle, injector.ff_index(name)))
                names.append(name)
        admit = on_verdict = None
        if gate is not None:
            admit = lambda req: gate.admit(names[req.key])  # noqa: E731
            on_verdict = lambda req, failed: gate.record(  # noqa: E731
                names[req.key], failed
            )
        outcome = self.scheduler.run(
            requests, horizon=self.spec.horizon, admit=admit, on_verdict=on_verdict
        )
        skipped_keys = frozenset(outcome.skipped)
        ff: Dict[str, List[int]] = {}
        skipped: Dict[str, int] = {}
        for key, (name, (failed, latency)) in enumerate(zip(names, outcome.verdicts)):
            if key in skipped_keys:
                skipped[name] = skipped.get(name, 0) + 1
                continue
            rec = ff.setdefault(name, [0, 0, 0])
            rec[0] += 1
            if failed:
                rec[1] += 1
                rec[2] += latency
        return {
            "ff": ff,
            "n_forward_runs": outcome.stats.n_passes,
            "total_lane_cycles": outcome.stats.lane_cycles,
            "done_cycles": [cycle for cycle, _ in buckets],
            "skipped": skipped,
        }


# --------------------------------------------------- worker process hooks

_WORKER = None
#: The spec this worker was initialized for.  Distinct from ``_WORKER.spec``:
#: a warm-cache runner is shared by every spec of its campaign family, so its
#: ``.spec`` may differ in the family-excluded fields (``n_injections``,
#: ``policy``, ``target_margin``) — anything policy-shaped must derive from
#: the init-time spec, not the runner's.
_WORKER_SPEC: Optional[CampaignSpec] = None


def _worker_init(spec_payload: Dict, chaos_payload: Optional[Dict] = None) -> None:
    global _WORKER, _WORKER_SPEC
    # Forked workers inherit the parent's telemetry — including any open
    # sink file handles — so replace it before building anything, or every
    # worker's synthesize/golden spans would interleave into the parent's
    # stream.
    set_telemetry(Telemetry())
    spec = _WORKER_SPEC = CampaignSpec.from_dict(spec_payload)
    # Fork-start workers inherit the parent's warm cache: resolve the
    # resident runner (netlist, golden trace, compiled kernels already
    # built) instead of re-deriving everything from the spec.  Spawn-start
    # platforms and standalone workers miss and cold-build as before.
    runner = warmstart.resolve_runner(spec)
    if runner is None:
        runner = _ShardRunner.from_spec(spec)
    if chaos_payload is not None:
        # Imported lazily: verify depends on campaigns, not the reverse.
        from ..verify.chaos import ChaosShardRunner, ChaosSpec

        runner = ChaosShardRunner(
            runner, ChaosSpec.from_dict(chaos_payload), in_worker=True
        )
    _WORKER = runner


def _worker_run_shard(task: Tuple[int, List[Tuple[int, Tuple[str, ...]]]]) -> Dict:
    """Pool entry point for one flat-path shard.

    *task* is ``(attempt, shard)`` — the supervisor threads the 1-based
    attempt ordinal through so the chaos wrapper (when installed) makes
    deterministic per-attempt fault decisions.
    """
    attempt, shard = task
    assert _WORKER is not None, "worker used before initialization"
    # Fresh per-shard telemetry: the shard's metrics travel back inside the
    # payload as a mergeable snapshot (the executor absorbs them), instead
    # of accumulating invisibly in the worker process.
    with use_telemetry(Telemetry()) as telemetry:
        payload = _WORKER.run_shard(shard, attempt=attempt)
        payload["metrics"] = telemetry.registry.snapshot().to_payload()
    return payload


def _worker_run_shard_gated(
    task: Tuple[int, Tuple[List[Tuple[int, Tuple[str, ...]]], Dict[str, List[int]]]]
) -> Dict:
    """Pool entry point for one sequential-policy shard.

    *task* is ``(attempt, (shard, tallies))`` — the shard's buckets plus a
    snapshot of the campaign-wide ``[n, k, consumed]`` tallies at the round
    boundary.  The worker rebuilds the policy from its init-time spec (not
    the runner's — a warm runner may carry a family sibling's) and gates the
    shard with a :class:`~repro.campaigns.policy.ShardGate`, so flip-flops
    whose interval collapses mid-shard stop consuming lanes immediately.
    ``ShardGate`` copies the tallies, so retried attempts re-gate from the
    same round-boundary state and stay deterministic.
    """
    attempt, (shard, tallies) = task
    assert _WORKER is not None, "worker used before initialization"
    gate = ShardGate(make_policy(_WORKER_SPEC), tallies)
    with use_telemetry(Telemetry()) as telemetry:
        payload = _WORKER.run_shard(shard, gate=gate, attempt=attempt)
        payload["metrics"] = telemetry.registry.snapshot().to_payload()
    return payload


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class CampaignEngine:
    """Parallel, cached, resumable, fault-tolerant campaign execution.

    Parameters
    ----------
    spec:
        Self-contained campaign description.
    jobs:
        Worker processes; ``1`` (default) runs everything in-process.
    cache_dir:
        Root of the result store (``<cache_dir>/campaigns/``).  ``None``
        disables persistence (no snapshots, no resume).
    context:
        Optional pre-built environment for the calling process, e.g. when
        the caller needs the same netlist/golden trace for feature
        extraction.  Workers always rebuild their own from the spec.
    shards_per_job:
        Flat campaigns split their buckets into ``jobs × shards_per_job``
        shards (default :data:`SHARDS_PER_JOB`).  Sequential rounds ignore
        it and run one shard per worker.
    progress:
        ``progress(done_shards, total_shards)`` callback (per round for
        sequential campaigns).  Throttled to at most one call per
        *progress_interval* seconds (plus, always, the final
        ``(total, total)`` call); the same throttle drives the telemetry
        ``progress`` events the live sink renders.
    progress_interval:
        Minimum seconds between forwarded progress notifications
        (default 0.1); ``0`` restores the historical call-per-shard
        behavior.
    retry:
        :class:`~repro.campaigns.supervisor.RetryPolicy` governing shard
        deadlines, retry budget, backoff, and pool-rebuild limits.
        Defaults to ``RetryPolicy()`` (3 attempts, no deadline).
    chaos:
        Optional :class:`~repro.verify.chaos.ChaosSpec`.  When set, every
        shard runner (worker and serial) is wrapped in a
        :class:`~repro.verify.chaos.ChaosShardRunner` that injects
        deterministic faults — the self-test hook for the supervisor.
    checkpoint_interval:
        Minimum seconds between mid-run partial-checkpoint writes
        (default :data:`CHECKPOINT_INTERVAL`); ``0`` restores the
        historical write-per-shard behavior.  Exits always write exactly.
    store:
        Pre-built :class:`CampaignStore` (overrides *cache_dir*); the
        chaos harness uses this to inject torn-write faults at the store
        boundary.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        context: Optional[CampaignContext] = None,
        shards_per_job: int = SHARDS_PER_JOB,
        progress: Optional[Callable[[int, int], None]] = None,
        progress_interval: float = 0.1,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        checkpoint_interval: float = CHECKPOINT_INTERVAL,
        store: Optional[CampaignStore] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.spec = spec
        self.jobs = jobs
        if store is not None:
            self.store: Optional[CampaignStore] = store
        else:
            self.store = (
                CampaignStore(Path(cache_dir) / "campaigns")
                if cache_dir is not None
                else None
            )
        if context is not None:
            self._validate_context(context)
        self._context = context
        self._run_start = time.monotonic()
        self.shards_per_job = max(1, shards_per_job)
        self.progress = progress
        self.progress_interval = progress_interval
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.checkpoint_interval = checkpoint_interval
        self._last_checkpoint = 0.0
        self._serial: Optional[object] = None
        self._busy_seconds = 0.0
        self._warmup_seconds = 0.0
        self._context_warmed = False
        self._ff_order_cache: Optional[List[str]] = None
        self.last_report = EngineReport()
        #: Bookkeeping of the most recent sequential-policy run (rounds,
        #: injections saved, realized margins); empty for flat runs.
        self.last_policy_meta: Dict = {}

    def _validate_context(self, context: CampaignContext) -> None:
        """Guard the invariants a caller-supplied context must share with the
        spec: workers (jobs > 1) and the result store trust the spec alone,
        so a divergent context would silently poison both."""
        from ..faultinjection.classify import AnyOutputCriterion, PacketInterfaceCriterion

        if context.circuit is not None:
            if context.circuit != self.spec.circuit:
                raise ValueError(
                    f"context built for circuit {context.circuit!r} does not "
                    f"match spec circuit {self.spec.circuit!r}"
                )
        elif context.netlist.name != self.spec.circuit:
            raise ValueError(
                f"context netlist {context.netlist.name!r} does not match "
                f"spec circuit {self.spec.circuit!r}"
            )
        expected = (
            PacketInterfaceCriterion if self.spec.criterion == "packet" else AnyOutputCriterion
        )
        if not isinstance(context.criterion, expected):
            raise ValueError(
                f"context criterion {type(context.criterion).__name__} does not "
                f"match spec criterion {self.spec.criterion!r}"
            )

    @property
    def context(self) -> CampaignContext:
        """The execution environment, resolved through the process-wide warm
        cache: a caller-provided context is adopted into the cache (fixing
        the historical double build on the serial path), an absent one
        resolves to the family's resident context or is built exactly once
        per process (see :mod:`repro.campaigns.warmstart`)."""
        if not self._context_warmed:
            start = time.perf_counter()
            self._context, hit = warmstart.warm_context(self.spec, self._context)
            self._context_warmed = True
            if not hit:
                self._warmup_seconds += time.perf_counter() - start
        return self._context

    def _ff_order(self) -> List[str]:
        """Canonical flip-flop order (netlist insertion order — the same
        ordering every simulator's ``ff_index`` assigns), used to rehydrate
        packed shard tallies."""
        if self._ff_order_cache is None:
            self._ff_order_cache = [ff.name for ff in self.context.netlist.flip_flops()]
        return self._ff_order_cache

    def _decode_ff(self, payload: Dict) -> None:
        """Rehydrate a packed tally block into the name-keyed counter map
        the accumulator, store documents and checkpoints are built from.
        Plain dict maps (chaos stand-ins, externally crafted payloads) pass
        through untouched."""
        ff = payload.get("ff")
        if isinstance(ff, dict) and isinstance(ff.get("idx"), bytes):
            payload["ff"] = warmstart.unpack_tallies(ff, self._ff_order())

    def _note_warm(self, hit: bool, warmup: float) -> None:
        report = self.last_report
        if hit:
            report.warm_hits += 1
        else:
            report.warm_misses += 1
            self._warmup_seconds += warmup

    def _warm_runner(self) -> object:
        """Parent-side warm-up: the resident (unwrapped) shard runner for
        this spec, built on first use and reused by every later engine,
        serial fallback and forked worker of the same family."""
        runner, hit, warmup = warmstart.ensure_runner(
            self.spec, _ShardRunner, context=self._context
        )
        self._note_warm(hit, warmup)
        return runner

    def _serial_runner(self):
        """The in-process shard runner (resolved through the warm cache,
        chaos-wrapped when the engine carries a chaos spec) shared by serial
        execution and the supervisor's degraded-pool fallback."""
        if self._serial is None:
            runner = self._warm_runner()
            if self.chaos is not None:
                from ..verify.chaos import ChaosShardRunner

                runner = ChaosShardRunner(runner, self.chaos, in_worker=False)
            self._serial = runner
        return self._serial

    def _absorb_supervisor(self, sup: SupervisedPool, report: EngineReport) -> None:
        report.retries += sup.retries
        report.pool_rebuilds += sup.rebuilds
        report.degraded_serial = report.degraded_serial or sup.degraded
        if sup.rebuilds and warmstart.resolve_runner(self.spec) is not None:
            # Replacement pools re-forked from the still-warm parent: each
            # rebuild reused the resident context/kernels instead of paying
            # a per-worker cold build.
            report.warm_rebuild_reuses += sup.rebuilds
            get_telemetry().registry.counter("warmstart.rebuild_reuses").inc(
                sup.rebuilds
            )

    # ----------------------------------------------------------------- run

    def run(self, resume: bool = True) -> CampaignResult:
        """Execute (or load, or top up) the campaign described by the spec."""
        spec = self.spec
        with get_telemetry().tracer.span(
            "campaign",
            circuit=spec.circuit,
            n_injections=spec.n_injections,
            backend=spec.backend,
            scheduler=spec.scheduler,
            schedule=spec.schedule,
            policy=spec.policy,
            jobs=self.jobs,
        ):
            if spec.policy == "sequential":
                return self._run_sequential(resume)
            return self._run(resume)

    def _run(self, resume: bool) -> CampaignResult:
        start_time = self._run_start = time.monotonic()
        self._last_checkpoint = start_time
        spec = self.spec
        report = EngineReport(jobs=self.jobs)
        self.last_report = report

        if self.store is not None:
            exact = self.store.load_exact(spec)
            if exact is not None:
                report.cache_hit = True
                report.base_injections = spec.n_injections
                report.wall_seconds = time.monotonic() - start_time
                return exact

        base: Optional[CampaignResult] = None
        base_n = 0
        if self.store is not None and spec.schedule == "stream":
            found = self.store.best_snapshot(spec)
            if found is not None:
                base_n, base = found
                get_telemetry().registry.counter("store.topups").inc()
        report.base_injections = base_n

        context = self.context
        window = context.window_cycles()
        ff_names = context.ff_names(spec)
        if spec.schedule == "legacy":
            buckets = legacy_buckets(spec, window, ff_names)
        else:
            buckets = stream_buckets(
                spec, window, ff_names, start=base_n, stop=spec.n_injections
            )

        accum = _Accumulator()
        done_cycles: Set[int] = set()
        if self.store is not None and resume:
            checkpoint = self.store.load_partial(spec, base_n, spec.n_injections)
            if checkpoint is not None:
                done_cycles, accum_payload = checkpoint
                accum = _Accumulator.from_payload(accum_payload)
                report.resumed_buckets = len(done_cycles)
        pending = [b for b in buckets if b.cycle not in done_cycles]

        n_shards = min(len(pending), max(1, self.jobs * self.shards_per_job))
        shards = partition_shards(pending, n_shards) if pending else []
        report.n_shards = len(shards)

        try:
            if self.jobs > 1 and len(shards) > 1:
                self._run_parallel(shards, accum, done_cycles, report)
            else:
                self._run_serial(shards, accum, done_cycles, report)
        except BaseException:
            self._checkpoint(base_n, done_cycles, accum)
            raise

        result = self._assemble(ff_names, base, accum)
        # accum.wall_seconds carries time spent by interrupted predecessors
        # (restored from the checkpoint); base carries prior snapshots'.
        result.wall_seconds = (
            (base.wall_seconds if base else 0.0)
            + accum.wall_seconds
            + (time.monotonic() - start_time)
        )
        if self.store is not None:
            if report.quarantined_shards:
                # Incomplete counters must never be served as an exact hit:
                # persist them as a partial so a rerun retries only the
                # quarantined buckets.
                self._checkpoint(base_n, done_cycles, accum)
                get_telemetry().registry.counter(
                    "robustness.incomplete_campaigns"
                ).inc()
            else:
                self.store.save_snapshot(spec, result)
        report.wall_seconds = time.monotonic() - start_time
        self._record_run_metrics(report)
        return result

    def _record_run_metrics(self, report: EngineReport) -> None:
        """End-of-run rollups: throughput, worker utilization, warm-up."""
        registry = get_telemetry().registry
        report.warmup_seconds = self._warmup_seconds
        registry.timer("engine.warmup_seconds").observe(self._warmup_seconds)
        if report.wall_seconds > 0 and report.executed_lanes:
            registry.gauge("campaign.injections_per_sec").set(
                report.executed_lanes / report.wall_seconds
            )
        if report.wall_seconds > 0 and self._busy_seconds > 0:
            registry.gauge("campaign.worker_utilization").set(
                min(1.0, self._busy_seconds / (self.jobs * report.wall_seconds))
            )

    # -------------------------------------------------- sequential sampling

    def _run_sequential(self, resume: bool) -> CampaignResult:
        """Round-based adaptive campaign driven by the sampling policy.

        Each round asks the policy for per-flip-flop draw ranges
        (:meth:`~repro.campaigns.policy.SamplingPolicy.allocate`), schedules
        exactly those prefix-stable draws, executes them gate-checked (a
        flip-flop whose Wilson interval collapses mid-shard stops consuming
        lanes immediately), merges the tallies and repeats until the policy
        allocates nothing.  Tallies are ``{ff: [n, k, consumed]}`` — see
        :class:`~repro.campaigns.policy.SamplingPolicy` for the invariant
        ``k <= n <= consumed`` that keeps draw indices single-use even when
        gating skips scheduled draws.

        Each round is cut into ``min(jobs, buckets)`` shards — one trace
        sweep per worker; ``shards_per_job`` applies to the flat path only.
        Results are therefore deterministic for a fixed ``(seed, jobs)``;
        unlike the flat path they may vary with ``jobs``, because gating
        decisions depend on shard-local verdict order.
        ``target_margin=0.0`` never retires anything and reproduces the
        flat counters bit-for-bit.

        Shards run through the same :class:`SupervisedPool` as the flat
        path (one supervisor — and one warm worker pool — for the whole
        campaign) and report the same throttled ``progress`` events, each
        tagged with its ``round``.  A quarantined shard's draws are
        *abandoned*: their ``consumed`` indices advance without executing,
        so the policy draws fresh replacement indices next round instead of
        re-allocating the poisoned ranges forever.
        """
        start_time = self._run_start = time.monotonic()
        spec = self.spec
        report = EngineReport(jobs=self.jobs)
        self.last_report = report
        signature = policy_signature(spec)
        registry = get_telemetry().registry

        if self.store is not None:
            found = self.store.load_policy_snapshot(spec, signature)
            if found is not None:
                result, meta = found
                report.cache_hit = True
                report.rounds = int(meta.get("rounds", 0))
                report.injections_saved = int(meta.get("injections_saved", 0))
                report.wall_seconds = time.monotonic() - start_time
                self.last_policy_meta = meta
                return result

        context = self.context
        window = context.window_cycles()
        ff_names = context.ff_names(spec)
        policy = make_policy(spec)

        tallies: Dict[str, List[int]] = {name: [0, 0, 0] for name in ff_names}
        accum = _Accumulator()
        resumed = False
        if self.store is not None and resume:
            checkpoint = self.store.load_policy_partial(spec, signature)
            if checkpoint is not None and set(checkpoint[0]) == set(ff_names):
                tallies, accum_payload = checkpoint
                accum = _Accumulator.from_payload(accum_payload)
                resumed = True
        if not resumed and self.store is not None:
            # A flat snapshot of the family is a valid prefix of every
            # flip-flop's draw stream: seed the tallies from it and only
            # simulate what the policy wants beyond it.
            found = self.store.best_snapshot(spec)
            if found is not None:
                base_n, base = found
                report.base_injections = base_n
                registry.counter("store.topups").inc()
                for name in ff_names:
                    prior = base.results.get(name)
                    if prior is not None and prior.n_injections > 0:
                        tallies[name] = [
                            prior.n_injections,
                            prior.n_failures,
                            prior.n_injections,
                        ]
                        accum.ff[name] = [
                            prior.n_injections,
                            prior.n_failures,
                            prior.latency_sum,
                        ]
                accum.n_forward_runs += base.n_forward_runs
                accum.total_lane_cycles += base.total_lane_cycles
                accum.wall_seconds += base.wall_seconds

        def serial_fn(payload, attempt: int) -> Dict:
            shard, tallies_snapshot = payload
            gate = ShardGate(policy, tallies_snapshot)
            return self._serial_runner().run_shard(shard, gate=gate, attempt=attempt)

        chaos_payload = self.chaos.to_dict() if self.chaos is not None else None
        mp_ctx = _mp_context()
        if self.jobs > 1 and mp_ctx.get_start_method() == "fork":
            # Warm the cache before the pool forks: workers (and every
            # later pool rebuild) inherit the resident runner instead of
            # each paying a cold build.
            self._warm_runner()
        sup = SupervisedPool(
            _worker_run_shard_gated,
            jobs=self.jobs,
            initializer=_worker_init,
            initargs=(spec.to_dict(), chaos_payload),
            retry=self.retry,
            serial_fn=serial_fn,
            validate=_shard_payload_error,
            mp_context=mp_ctx,
        )
        # The policy checkpoint is a per-flip-flop *cursor* (``consumed``),
        # which is only truthful at round boundaries: a completed round
        # executed (or deliberately gate-skipped) every draw of its
        # contiguous allocation, so the cursor really is a stream prefix.
        # Mid-round, the merged shards hold an arbitrary *subset* of the
        # round's slots — checkpointing that state would make a resumed run
        # re-execute some draws and silently skip others.  The exception
        # path therefore persists the last round-*start* state, discarding
        # at most one round of work in exchange for bit-identical resume.
        safe_tallies = {name: list(rec) for name, rec in tallies.items()}
        safe_accum = _Accumulator.from_payload(accum.to_payload())
        clean = False
        try:
            while True:
                allocation = policy.allocate(tallies, len(window))
                if not allocation:
                    break
                report.rounds += 1
                buckets = stream_buckets_ranged(spec, window, allocation)
                if not buckets:
                    break
                # One shard per worker: a shard's cost is the trace cycles it
                # sweeps times its lane width, not its injection count, so
                # every extra shard re-sweeps the trace.  Checkpoints are
                # per round, so smaller shards would buy no resume
                # granularity either.
                shards = partition_shards(buckets, min(len(buckets), self.jobs))
                report.n_shards += len(shards)
                tasks = [[(b.cycle, b.lanes) for b in shard] for shard in shards]
                snapshot = {name: list(rec) for name, rec in tallies.items()}
                payload_tasks = [(task, snapshot) for task in tasks]
                throttled = self._progress_throttle(report, round_no=report.rounds)
                done_in_round = 0
                for outcome in sup.run(payload_tasks):
                    done_in_round += 1
                    if outcome.quarantine is not None:
                        report.quarantined_shards.append(outcome.quarantine.to_dict())
                        # The quarantined shard's draws are abandoned, but
                        # they still consumed their stream indices: advance
                        # `consumed` so the policy allocates *fresh* draws
                        # instead of retrying the same poisoned ranges
                        # every round (which would never terminate).
                        abandoned = 0
                        for _cycle, lanes in tasks[outcome.key]:
                            for name in lanes:
                                tallies[name][2] += 1
                                abandoned += 1
                        registry.counter("robustness.abandoned_draws").inc(abandoned)
                        throttled(done_in_round, len(tasks))
                        continue
                    payload = outcome.payload
                    self._decode_ff(payload)
                    accum.merge_shard(payload)
                    report.executed_buckets += len(payload["done_cycles"])
                    report.executed_forward_runs += payload["n_forward_runs"]
                    shard_lanes = sum(rec[0] for rec in payload["ff"].values())
                    report.executed_lanes += shard_lanes
                    self._busy_seconds += payload.get("wall_seconds", 0.0)
                    metrics = payload.get("metrics")
                    if metrics:
                        registry.absorb(MetricsSnapshot.from_payload(metrics))
                    registry.counter("campaign.shard_merges").inc()
                    registry.counter("campaign.injections").inc(shard_lanes)
                    # Executed and gate-skipped draws both consumed their
                    # stream indices; advancing per payload keeps the
                    # checkpoint invariant (n <= consumed) intact even if a
                    # later shard of the round never completes.
                    for name, rec in payload["ff"].items():
                        tally = tallies[name]
                        tally[0] += rec[0]
                        tally[1] += rec[1]
                        tally[2] += rec[0]
                    for name, count in payload.get("skipped", {}).items():
                        tallies[name][2] += count
                        registry.counter("policy.shard_skips").inc(count)
                    throttled(done_in_round, len(tasks))
                self._policy_checkpoint(signature, tallies, accum)
                safe_tallies = {name: list(rec) for name, rec in tallies.items()}
                safe_accum = _Accumulator.from_payload(accum.to_payload())
            clean = True
        except BaseException:
            self._policy_checkpoint(signature, safe_tallies, safe_accum)
            raise
        finally:
            # Clean exits let in-flight worker teardown finish
            # (close/join); the exception path terminates immediately.
            sup.shutdown(clean)
            self._absorb_supervisor(sup, report)

        result = CampaignResult(
            circuit=spec.circuit, n_injections=spec.n_injections, seed=spec.seed
        )
        for name in ff_names:
            record = FlipFlopResult(name)
            rec = accum.ff.get(name)
            if rec is not None:
                record.n_injections = int(rec[0])
                record.n_failures = int(rec[1])
                record.latency_sum = int(rec[2])
            result.results[name] = record
        result.n_forward_runs = accum.n_forward_runs
        result.total_lane_cycles = accum.total_lane_cycles
        result.wall_seconds = accum.wall_seconds + (time.monotonic() - start_time)

        total_executed = sum(rec[0] for rec in tallies.values())
        flat_total = spec.n_injections * len(ff_names)
        saved = max(0, flat_total - total_executed)
        report.injections_saved = saved
        registry.counter("policy.rounds").inc(report.rounds)
        registry.counter("policy.injections_saved").inc(saved)
        margins = realized_margins(tallies, getattr(policy, "confidence", 0.95))
        for name in ff_names:
            registry.histogram("policy.stopping_time").observe(tallies[name][0])
        worst = max(margins.values()) if margins else float("nan")
        mean = sum(margins.values()) / len(margins) if margins else float("nan")
        if margins:
            registry.gauge("policy.realized_margin").set(worst)
            registry.gauge("policy.realized_margin_mean").set(mean)
        meta = {
            "policy": spec.policy,
            "nominal": spec.n_injections,
            "target_margin": spec.target_margin,
            "rounds": report.rounds,
            "total_injections": total_executed,
            "flat_injections": flat_total,
            "injections_saved": saved,
            "realized_margin_max": worst,
            "realized_margin_mean": mean,
            "quarantined_shards": len(report.quarantined_shards),
        }
        self.last_policy_meta = meta
        if self.store is not None:
            if report.quarantined_shards:
                self._policy_checkpoint(signature, tallies, accum)
                registry.counter("robustness.incomplete_campaigns").inc()
            else:
                self.store.save_policy_snapshot(spec, signature, result, meta)
        report.wall_seconds = time.monotonic() - start_time
        self._record_run_metrics(report)
        return result

    def _policy_checkpoint(
        self, signature: str, tallies: Dict[str, List[int]], accum: _Accumulator
    ) -> None:
        if self.store is not None and any(rec[2] for rec in tallies.values()):
            payload = accum.to_payload()
            payload["wall_seconds"] = accum.wall_seconds + (
                time.monotonic() - self._run_start
            )
            self.store.save_policy_partial(self.spec, signature, tallies, payload)

    # ------------------------------------------------------------ execution

    def _progress_throttle(
        self, report: EngineReport, round_no: Optional[int] = None
    ) -> ProgressThrottle:
        """Throttled ``(done_shards, total_shards)`` notifier for one batch
        of shards (the flat campaign, or one sequential round).

        Each forwarded call updates the ``campaign.injections_per_sec``
        gauge, emits a telemetry ``progress`` event with the batch's rate
        and ETA (tagged with *round_no* for sequential rounds) and invokes
        the caller's ``progress`` callback.
        """
        telemetry = get_telemetry()
        registry = telemetry.registry
        start = time.monotonic()
        lanes_before = report.executed_lanes

        def notify(done_shards: int, total_shards: int) -> None:
            elapsed = time.monotonic() - start
            lanes = report.executed_lanes - lanes_before
            rate = lanes / elapsed if elapsed > 0 else 0.0
            if rate > 0:
                registry.gauge("campaign.injections_per_sec").set(rate)
            if telemetry.active:
                remaining = total_shards - done_shards
                event = {
                    "event": "progress",
                    "scope": "campaign",
                    "unit": "shards",
                    "done": done_shards,
                    "total": total_shards,
                    "injections": report.executed_lanes,
                    "injections_per_sec": rate,
                    "eta_seconds": (
                        remaining * elapsed / done_shards if done_shards else None
                    ),
                }
                if round_no is not None:
                    event["round"] = round_no
                telemetry.emit(event)
            if self.progress is not None:
                self.progress(done_shards, total_shards)

        return ProgressThrottle(notify, min_interval=self.progress_interval)

    def _consume(
        self,
        outcomes: Iterable[ShardOutcome],
        total: int,
        accum: _Accumulator,
        done_cycles: Set[int],
        report: EngineReport,
        base_n: int,
    ) -> None:
        registry = get_telemetry().registry
        throttled = self._progress_throttle(report)
        done = 0
        for outcome in outcomes:
            done += 1
            if outcome.quarantine is not None:
                report.quarantined_shards.append(outcome.quarantine.to_dict())
                throttled(done, total)
                continue
            payload = outcome.payload
            self._decode_ff(payload)
            accum.merge_shard(payload)
            done_cycles.update(payload["done_cycles"])
            report.executed_buckets += len(payload["done_cycles"])
            report.executed_forward_runs += payload["n_forward_runs"]
            shard_lanes = sum(rec[0] for rec in payload["ff"].values())
            report.executed_lanes += shard_lanes
            self._busy_seconds += payload.get("wall_seconds", 0.0)
            metrics = payload.get("metrics")
            if metrics:  # worker shard: absorb its snapshot into our registry
                registry.absorb(MetricsSnapshot.from_payload(metrics))
            registry.counter("campaign.shard_merges").inc()
            registry.counter("campaign.injections").inc(shard_lanes)
            if done < total:  # final state is persisted as a snapshot instead
                self._maybe_checkpoint(base_n, done_cycles, accum)
            throttled(done, total)

    def _run_serial(
        self,
        shards: List[List[Bucket]],
        accum: _Accumulator,
        done_cycles: Set[int],
        report: EngineReport,
    ) -> None:
        if not shards:
            return
        tasks = [[(b.cycle, b.lanes) for b in shard] for shard in shards]

        def serial_fn(payload, attempt: int) -> Dict:
            return self._serial_runner().run_shard(payload, attempt=attempt)

        sup = SupervisedPool(
            _worker_run_shard,
            jobs=1,
            retry=self.retry,
            serial_fn=serial_fn,
            validate=_shard_payload_error,
        )
        clean = False
        try:
            self._consume(
                sup.run(tasks),
                len(tasks),
                accum,
                done_cycles,
                report,
                report.base_injections,
            )
            clean = True
        finally:
            sup.shutdown(clean)
            self._absorb_supervisor(sup, report)

    def _run_parallel(
        self,
        shards: List[List[Bucket]],
        accum: _Accumulator,
        done_cycles: Set[int],
        report: EngineReport,
    ) -> None:
        tasks = [[(b.cycle, b.lanes) for b in shard] for shard in shards]
        chaos_payload = self.chaos.to_dict() if self.chaos is not None else None

        def serial_fn(payload, attempt: int) -> Dict:
            return self._serial_runner().run_shard(payload, attempt=attempt)

        mp_ctx = _mp_context()
        if mp_ctx.get_start_method() == "fork":
            # Build once pre-fork; N workers (and any rebuilds) inherit it.
            self._warm_runner()
        sup = SupervisedPool(
            _worker_run_shard,
            jobs=min(self.jobs, len(shards)),
            initializer=_worker_init,
            initargs=(self.spec.to_dict(), chaos_payload),
            retry=self.retry,
            serial_fn=serial_fn,
            validate=_shard_payload_error,
            mp_context=mp_ctx,
        )
        clean = False
        try:
            self._consume(
                sup.run(tasks),
                len(tasks),
                accum,
                done_cycles,
                report,
                report.base_injections,
            )
            clean = True
        finally:
            sup.shutdown(clean)
            self._absorb_supervisor(sup, report)

    # ------------------------------------------------------------- plumbing

    def _maybe_checkpoint(
        self, base_n: int, done_cycles: Set[int], accum: _Accumulator
    ) -> None:
        """Throttled mid-run checkpoint: skip when the last write is recent.

        Checkpoints are full-payload JSON writes, so per-shard writes made
        store I/O O(shards).  Exit paths (exception, quarantine completion)
        call :meth:`_checkpoint` directly and always write, bounding lost
        work to one throttle interval.
        """
        if (
            self.checkpoint_interval > 0
            and (time.monotonic() - self._last_checkpoint) < self.checkpoint_interval
        ):
            get_telemetry().registry.counter("store.checkpoint_skips").inc()
            return
        self._checkpoint(base_n, done_cycles, accum)

    def _checkpoint(
        self, base_n: int, done_cycles: Set[int], accum: _Accumulator
    ) -> None:
        if self.store is not None and done_cycles:
            payload = accum.to_payload()
            payload["wall_seconds"] = accum.wall_seconds + (
                time.monotonic() - self._run_start
            )
            self.store.save_partial(
                self.spec, base_n, self.spec.n_injections, done_cycles, payload
            )
            self._last_checkpoint = time.monotonic()

    def _assemble(
        self,
        ff_names: Sequence[str],
        base: Optional[CampaignResult],
        accum: _Accumulator,
    ) -> CampaignResult:
        spec = self.spec
        result = CampaignResult(
            circuit=spec.circuit, n_injections=spec.n_injections, seed=spec.seed
        )
        for name in ff_names:
            record = FlipFlopResult(name)
            if base is not None and name in base.results:
                prior = base.results[name]
                record.n_injections += prior.n_injections
                record.n_failures += prior.n_failures
                record.latency_sum += prior.latency_sum
            delta = accum.ff.get(name)
            if delta is not None:
                record.n_injections += delta[0]
                record.n_failures += delta[1]
                record.latency_sum += delta[2]
            result.results[name] = record
        result.n_forward_runs = (base.n_forward_runs if base else 0) + accum.n_forward_runs
        result.total_lane_cycles = (
            base.total_lane_cycles if base else 0
        ) + accum.total_lane_cycles
        return result


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    resume: bool = True,
    context: Optional[CampaignContext] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    progress_interval: float = 0.1,
    retry: Optional[RetryPolicy] = None,
    chaos=None,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignEngine`."""
    engine = CampaignEngine(
        spec,
        jobs=jobs,
        cache_dir=cache_dir,
        context=context,
        progress=progress,
        progress_interval=progress_interval,
        retry=retry,
        chaos=chaos,
    )
    return engine.run(resume=resume)

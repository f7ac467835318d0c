"""Adaptive injection scheduling: mixed-cycle refill and lane compaction.

:meth:`~repro.faultinjection.injector.FaultInjector.run_batch` pins a whole
batch to one injection cycle and keeps every lane slot occupied until the
*last* lane retires, so most of a campaign's simulated lane-cycles are spent
on lanes that have already failed or re-converged — and the campaign tail
runs nearly-empty batches.  :class:`AdaptiveScheduler` replaces the
per-cycle batches with one long-lived forward simulation per *pass*:

* **mixed-cycle batching** — lanes are activated at their own injection
  cycles: when the simulation reaches a pending injection's cycle, a free
  lane is loaded with the golden flip-flop state (per-lane, via the
  lane-vector algebra's scatter path), the target flip-flop is flipped, and
  the lane's loopback history is seeded from the golden record.  Requests
  that find no free lane roll over to the next pass;
* **lane compaction + refill** — retirement checks free lanes for the
  pending queue; once the queue can no longer refill a drained pass, the
  surviving lanes are *repacked* into a narrower batch
  (:meth:`~repro.sim.backend.SimBackend.gather_lanes` /
  :meth:`~repro.sim.backend.SimBackend.scatter_lanes`), which shrinks every
  subsequent big-int operation.

All of this is scheduling only: each lane still simulates the exact cycle
sequence :meth:`run_batch` would have, so per-injection verdicts and error
latencies are **bit-identical** to the naive batches — enforced per fuzz
seed by the ``scheduled-vs-naive`` differential mode in
:mod:`repro.verify.diff` and by the property tests in
``tests/test_scheduler.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.logic import lane_mask
from .faults import InjectionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .injector import FaultInjector

__all__ = [
    "InjectionRequest",
    "ScheduledOutcome",
    "SchedulerStats",
    "AdaptiveScheduler",
    "EXECUTION_SCHEDULERS",
]

#: The campaign-level execution strategies: ``"adaptive"`` (this module) or
#: ``"batch"`` (one forward run per time slot).  Single source of truth for
#: :class:`~repro.faultinjection.campaign.StatisticalFaultCampaign` and
#: :class:`~repro.campaigns.spec.CampaignSpec` validation.
EXECUTION_SCHEDULERS = ("adaptive", "batch")

#: Repack the batch when no refill is possible and fewer than half the
#: lanes survive, provided at least this many lanes would be freed (the
#: gather/scatter pass is O(flip-flops × survivors)).
MIN_REPACK_GAIN = 16

#: Default lane-slot capacity when ``max_lanes`` is ``None``.  Wider
#: batches amortize the per-statement interpreter cost over more lanes —
#: but only pay off when the batch stays *full*, which is exactly what
#: refill provides (a naive batch this wide would drain to a few stragglers
#: and waste almost the whole width).  Pass width is always additionally
#: capped by the pending-request count.
AUTO_MAX_LANES = 4096


@dataclass(frozen=True)
class InjectionRequest:
    """One pending injection: strike ``ff_index`` at ``cycle`` under the
    injector's fault model; ``key`` indexes the caller's request list and
    names the verdict slot."""

    cycle: int
    ff_index: int
    key: int


@dataclass
class SchedulerStats:
    """What one :meth:`AdaptiveScheduler.run` actually simulated.

    ``refills`` counts activations that reuse a lane freed earlier in the
    same pass (the lanes early retirement gave back), ``early_retired``
    the lanes retired at a divergence probe before the end of the trace
    without having failed (i.e. re-converged to golden), and
    ``peak_width`` the widest lane batch any pass allocated.  The fused
    backend's generated kernel reports the core counters only (passes,
    cycles, lane-cycles, activations, deferrals).
    """

    n_injections: int = 0
    n_passes: int = 0
    cycles_simulated: int = 0
    lane_cycles: int = 0
    activations: int = 0
    deferred: int = 0
    repacks: int = 0
    refills: int = 0
    early_retired: int = 0
    peak_width: int = 0
    policy_skipped: int = 0
    forced_cycles: int = 0

    def lane_occupancy(self) -> float:
        """Fraction of allocated lane-slots that carried a live injection.

        ``lane_cycles / (cycles_simulated * peak_width)`` — the quantity
        refill and repack exist to maximize (a naive drained batch decays
        toward 1/width).  0.0 when nothing was simulated or the width is
        unknown (fused kernel).
        """
        if not self.cycles_simulated or not self.peak_width:
            return 0.0
        return self.lane_cycles / (self.cycles_simulated * self.peak_width)

    def record_to(self, registry) -> None:
        """Report this run's totals into a metrics registry
        (:class:`repro.obs.metrics.MetricsRegistry` or compatible)."""
        for name in (
            "n_injections",
            "n_passes",
            "cycles_simulated",
            "lane_cycles",
            "activations",
            "deferred",
            "repacks",
            "refills",
            "early_retired",
            "policy_skipped",
            "forced_cycles",
        ):
            value = getattr(self, name)
            if value:
                registry.counter(f"scheduler.{name}").inc(value)
        if self.cycles_simulated and self.peak_width:
            registry.gauge("scheduler.lane_occupancy").set(self.lane_occupancy())


@dataclass
class ScheduledOutcome:
    """Per-request verdicts of one scheduled run.

    ``verdicts[key]`` is ``(failed, latency)`` for the request with that
    key; *latency* is ``None`` unless the lane failed.  Bit-identical to
    running each request through :meth:`FaultInjector.run_batch`.

    ``skipped`` lists the keys of requests an ``admit`` gate rejected —
    those were never simulated and their verdict slots are meaningless.
    """

    verdicts: List[Tuple[bool, Optional[int]]]
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    skipped: List[int] = field(default_factory=list)

    def failed_count(self) -> int:
        return sum(1 for failed, _lat in self.verdicts if failed)


class AdaptiveScheduler:
    """Long-lived injection scheduler bound to one :class:`FaultInjector`.

    Parameters
    ----------
    injector:
        The bound forward simulator.  All backends are supported; the
        ``fused`` backend delegates to the generated scheduled-sweep kernel
        (:meth:`repro.sim.fused.FusedSweepKernel.run_scheduled`), which
        implements refill and retirement but not the policy hooks.
    max_lanes:
        Lane-slot capacity of one pass; ``None`` (default) picks
        :data:`AUTO_MAX_LANES`.
    repack:
        Allow shrinking a drained pass via gather/scatter lane compaction.
    """

    def __init__(
        self,
        injector: "FaultInjector",
        max_lanes: Optional[int] = None,
        repack: bool = True,
    ) -> None:
        if max_lanes is None:
            max_lanes = AUTO_MAX_LANES
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.injector = injector
        self.max_lanes = max_lanes
        self.repack = repack
        self.stats = SchedulerStats()
        self._load_fn = None

    # ------------------------------------------------------------------ API

    def run(
        self,
        injections: Sequence[Tuple[int, int]],
        horizon: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        admit: Optional[Callable[[InjectionRequest], bool]] = None,
        on_verdict: Optional[Callable[[InjectionRequest, bool], None]] = None,
    ) -> ScheduledOutcome:
        """Simulate every ``(cycle, ff_index)`` injection; return verdicts.

        Verdict *k* corresponds to ``injections[k]``.  Lanes are packed and
        refilled across injection cycles; results are bit-identical to one
        :meth:`FaultInjector.run_batch` lane per injection.  *progress* is
        called as ``progress(completed_injections, total)`` after every
        scheduler pass.

        *admit* and *on_verdict* are the refill queue's online policy
        hooks (see :class:`repro.campaigns.policy.ShardGate`): before a
        pending request is activated into a freed lane, ``admit(request)``
        may reject it — the request is recorded in
        :attr:`ScheduledOutcome.skipped` and never simulated — and
        ``on_verdict(request, failed)`` fires as each lane retires, so the
        gate sees results in execution order.  The simulated requests'
        verdicts stay bit-identical to an ungated run.  The fused
        backend's generated kernel does not support the hooks (they are
        ignored there; campaign-level policies still stop between rounds).
        """
        golden = self.injector.golden
        n_cycles = golden.n_cycles
        requests: List[InjectionRequest] = []
        for key, (cycle, ff_index) in enumerate(injections):
            if not 0 <= cycle < n_cycles:
                raise ValueError(
                    f"injection cycle {cycle} outside trace [0, {n_cycles})"
                )
            requests.append(InjectionRequest(cycle=cycle, ff_index=ff_index, key=key))
        requests.sort(key=lambda r: (r.cycle, r.key))

        self.stats = SchedulerStats(n_injections=len(requests))
        verdicts: List[Tuple[bool, Optional[int]]] = [(False, None)] * len(requests)
        if not requests:
            return ScheduledOutcome(verdicts=verdicts, stats=self.stats)

        total = len(requests)
        skipped: List[int] = []
        bound = self.injector.bound_model
        if self.injector.backend == "fused" and (
            bound is None or not bound.has_forces
        ):
            # Pure flip models (SEU, MBU clusters) ride the generated
            # scheduled-sweep kernel; forcing models need the cycle
            # substrate's per-cycle re-force hook and take the pass loop
            # below (the injector's cycle sim is compiled under "fused").
            self.stats.peak_width = min(self.max_lanes, total)
            self._run_fused(requests, verdicts, horizon, progress)
        else:
            pending = requests
            while pending:
                pending = self._run_pass(
                    pending, verdicts, horizon, admit, on_verdict, skipped
                )
                self.stats.n_passes += 1
                if progress is not None:
                    progress(total - len(pending), total)
        from ..obs import get_telemetry

        registry = get_telemetry().registry
        self.stats.record_to(registry)
        registry.counter(f"sim.{self.injector.backend}.lane_cycles").inc(
            self.stats.lane_cycles
        )
        if self.injector.fault_model is not None:
            registry.counter(
                f"fault.{self.injector.fault_model.name}.injections"
            ).inc(total - len(skipped))
        return ScheduledOutcome(verdicts=verdicts, stats=self.stats, skipped=skipped)

    # ---------------------------------------------------------- fused path

    def _run_fused(
        self,
        requests: List[InjectionRequest],
        verdicts: List[Tuple[bool, Optional[int]]],
        horizon: Optional[int],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        kernel = self.injector.fused_kernel()
        bound = self.injector.bound_model
        kernel.run_scheduled(
            [
                (
                    r.cycle,
                    r.ff_index
                    if bound is None
                    else bound.plan(r.ff_index, r.cycle).flips,
                    r.key,
                )
                for r in requests
            ],
            verdicts,
            max_lanes=self.max_lanes,
            horizon=horizon,
            stats=self.stats,
            progress=progress,
        )

    # ---------------------------------------------------------- cycle path

    def _activation_loader(self):
        """Generated per-lane golden-state loader (one line per flip-flop).

        ``_load(v, z, am, nam, gs)`` sets, on the lanes selected by the
        native vectors ``am``/``nam = am ^ mask``, every flip-flop Q to its
        golden bit from the packed state ``gs`` — the scatter half of
        mixed-cycle activation, without a per-flip-flop Python loop.
        """
        if self._load_fn is None:
            load_fn = getattr(self.injector, "_cached_activation_loader", None)
            if load_fn is None:
                sim = self.injector.sim
                lines = ["def _load(v, z, am, nam, gs):"]
                for i, q in enumerate(sim._ff_q):
                    lines.append(
                        f"    v[{q}] = (v[{q}] & nam) | (am if (gs >> {i}) & 1 else z)"
                    )
                if not sim._ff_q:
                    lines.append("    pass")
                namespace: Dict[str, object] = {}
                exec("\n".join(lines), namespace)  # noqa: S102
                load_fn = namespace["_load"]
                self.injector._cached_activation_loader = load_fn
            self._load_fn = load_fn
        return self._load_fn

    def _native(self, packed: int):
        """Packed Python-int lane mask -> backend-native lane vector."""
        return packed & self.injector.sim.mask

    def _run_pass(
        self,
        pending: List[InjectionRequest],
        verdicts: List[Tuple[bool, Optional[int]]],
        horizon: Optional[int],
        admit: Optional[Callable[[InjectionRequest], bool]] = None,
        on_verdict: Optional[Callable[[InjectionRequest, bool], None]] = None,
        skipped: Optional[List[int]] = None,
    ) -> List[InjectionRequest]:
        injector = self.injector
        sim = injector.sim
        golden = injector.golden
        criterion = injector._criterion
        taps = injector.taps
        check = injector.check_interval
        end_of_trace = golden.n_cycles
        stats = self.stats

        width = min(self.max_lanes, len(pending))
        stats.peak_width = max(stats.peak_width, width)
        sim.resize_lanes(width)
        mask = sim.mask
        zero = sim.broadcast(0)
        values = sim.values
        all_lanes = lane_mask(width)
        load_fn = self._activation_loader()

        slots: List[List[object]] = [[zero] * tap.delay for tap in taps]
        lane_req: List[Optional[InjectionRequest]] = [None] * width
        lane_lat: List[int] = [0] * width
        free: List[int] = list(range(width - 1, -1, -1))  # pop() -> lowest lane
        deadlines: Dict[int, List[int]] = {}

        # Fault-model state: per-lane plan compilation and force bookkeeping.
        bound = injector.bound_model
        ff_cells = sim.flip_flops
        lane_force: List[
            Optional[Tuple[InjectionPlan, int, List[Tuple[int, int]]]]
        ] = [None] * width
        force_int = 0

        active_int = 0
        active_vec = zero
        failed_int = 0
        failed = zero
        ever_used = 0  # lanes that have carried an injection this pass
        deferred: List[InjectionRequest] = []
        ptr = 0
        n_pending = len(pending)

        def retire_lanes(retire_bits: int) -> None:
            nonlocal active_int, active_vec, failed_int, failed, force_int
            bits = retire_bits
            while bits:
                low = bits & -bits
                lane = low.bit_length() - 1
                bits ^= low
                request = lane_req[lane]
                lane_req[lane] = None
                lane_force[lane] = None
                lane_failed = bool((failed_int >> lane) & 1)
                verdicts[request.key] = (
                    lane_failed,
                    lane_lat[lane] if lane_failed else None,
                )
                if on_verdict is not None:
                    on_verdict(request, lane_failed)
                free.append(lane)
            active_int &= ~retire_bits
            failed_int &= ~retire_bits
            force_int &= ~retire_bits
            active_vec = self._native(active_int)
            failed = self._native(failed_int)

        c = pending[0].cycle
        next_check = c + check
        while True:
            # -- per-lane horizon deadlines: stop observing before cycle c.
            if horizon is not None and c in deadlines:
                expired = 0
                for lane, request in deadlines.pop(c):
                    # A stale entry may point at a lane that retired early
                    # and was refilled — only the original request expires.
                    if lane_req[lane] is request:
                        expired |= 1 << lane
                if expired:
                    retire_lanes(expired)

            # -- activate pending injections scheduled for this cycle.
            activated = 0
            act_requests: List[Tuple[InjectionRequest, int]] = []
            while ptr < n_pending and pending[ptr].cycle == c:
                # The policy gate is consulted before a lane is committed:
                # a rejected request costs nothing (no lane, no simulation)
                # and is recorded as skipped rather than deferred.
                if admit is not None and not admit(pending[ptr]):
                    if skipped is not None:
                        skipped.append(pending[ptr].key)
                    stats.policy_skipped += 1
                    ptr += 1
                    continue
                if not free:
                    break
                request = pending[ptr]
                ptr += 1
                lane = free.pop()
                lane_req[lane] = request
                activated |= 1 << lane
                act_requests.append((request, lane))
                if horizon is not None:
                    deadline = request.cycle + horizon
                    if deadline < end_of_trace:
                        deadlines.setdefault(deadline, []).append((lane, request))
            while ptr < n_pending and pending[ptr].cycle <= c:
                deferred.append(pending[ptr])  # no free lane: next pass
                stats.deferred += 1
                ptr += 1
            if activated:
                stats.refills += (activated & ever_used).bit_count()
                ever_used |= activated
                am = self._native(activated)
                nam = am ^ mask
                load_fn(values, zero, am, nam, golden.ff_state[c])
                for request, lane in act_requests:
                    if bound is None:
                        sim.flip_ff(request.ff_index, 1 << lane)
                    else:
                        iplan = bound.plan(request.ff_index, request.cycle)
                        for f in iplan.flips:
                            sim.flip_ff(f, 1 << lane)
                        if iplan.forces:
                            rows = [
                                (sim.net_index[ff_cells[f].output_net()], v)
                                for f, v in iplan.forces
                            ]
                            lane_force[lane] = (iplan, request.cycle, rows)
                            force_int |= 1 << lane
                for t, tap in enumerate(taps):
                    tap_golden = tap.golden_bits
                    for past in range(c - tap.delay, c):
                        bit = tap_golden[past] if past >= 0 else 0
                        slot = slots[t][past % tap.delay]
                        slots[t][past % tap.delay] = (slot & nam) | (am if bit else zero)
                active_int |= activated
                active_vec = self._native(active_int)
                stats.activations += len(act_requests)

            if active_int == 0:
                if ptr >= n_pending:
                    break
                c = pending[ptr].cycle  # fast-forward over empty cycles
                next_check = c + check
                continue

            # -- simulate cycle c.
            applied = golden.applied_inputs[c]
            for bit_pos, value_idx in injector._open_inputs:
                values[value_idx] = mask if (applied >> bit_pos) & 1 else zero
            for t, tap in enumerate(taps):
                values[tap.target_value_idx] = slots[t][c % tap.delay]
            if force_int:
                # Re-assert forcing plans on their duty-on cycles, before the
                # settle — exactly mirroring run_batch and the oracle.
                bits = force_int
                while bits:
                    low = bits & -bits
                    lane = low.bit_length() - 1
                    bits ^= low
                    iplan, cycle0, rows = lane_force[lane]
                    if iplan.force_active(c - cycle0):
                        lv = sim.lane_vec(lane)
                        for q_idx, v in rows:
                            values[q_idx] = (values[q_idx] & ~lv) | (lv if v else zero)
                        stats.forced_cycles += 1

            sim.eval_comb()
            fail_c = criterion.evaluate(values, golden.outputs[c], mask)

            newly = fail_c & active_vec & ~failed
            if sim.vec_any(newly):
                failed = failed | newly
                newly_int = sim.vec_to_int(newly)
                failed_int |= newly_int
                while newly_int:
                    low = newly_int & -newly_int
                    lane = low.bit_length() - 1
                    lane_lat[lane] = c - lane_req[lane].cycle
                    newly_int ^= low

            for t, tap in enumerate(taps):
                slots[t][c % tap.delay] = sim.read_vec(tap.source_value_idx)

            sim.tick()

            c += 1
            stats.cycles_simulated += 1
            stats.lane_cycles += active_int.bit_count()

            # -- retirement check / repack.
            if c == next_check or c >= end_of_trace:
                next_check = c + check
                if c >= end_of_trace:
                    retire_lanes(active_int)
                    break
                diff = self._probe_divergence(c, active_vec, slots)
                # A forcing lane that matches golden right now is not done —
                # a later duty-on cycle can re-disturb it — so convergence
                # retirement excludes live force lanes (failure still retires).
                converged = (all_lanes ^ sim.vec_to_int(diff)) & ~force_int
                retire_bits = active_int & (failed_int | converged)
                if retire_bits:
                    stats.early_retired += (retire_bits & ~failed_int).bit_count()
                    retire_lanes(retire_bits)
                    if active_int == 0:
                        if ptr >= n_pending:
                            break
                        c = pending[ptr].cycle
                        next_check = c + check
                        continue
                if (
                    self.repack
                    and ptr >= n_pending
                    and active_int.bit_count() <= width // 2
                    and width - active_int.bit_count() >= MIN_REPACK_GAIN
                ):
                    width, mask, zero, values, all_lanes, failed_int = self._repack(
                        lane_req, lane_lat, slots, free, deadlines, failed, lane_force
                    )
                    active_int = all_lanes  # every surviving lane is live
                    ever_used = all_lanes  # survivors all carry injections
                    active_vec = self._native(active_int)
                    failed = self._native(failed_int)
                    force_int = 0
                    for lane, entry in enumerate(lane_force):
                        if entry is not None:
                            force_int |= 1 << lane
                    stats.repacks += 1

        return deferred + pending[ptr:]

    # ------------------------------------------------------------- internals

    def _probe_divergence(self, cycle: int, active_vec, slots):
        """Active-lane vector of lanes whose relevant flip-flops or loopback
        pipeline deviate from golden — the retirement test."""
        injector = self.injector
        sim = injector.sim
        grel = injector.relevant_golden(cycle)
        row_golden = [
            (q_idx, (grel >> k) & 1)
            for k, (q_idx, _ff) in enumerate(injector._relevant_pairs)
        ]
        diff = sim.diverging_rows(row_golden, active_vec)
        mask = sim.mask
        zero = sim.broadcast(0)
        for t, tap in enumerate(injector.taps):
            tap_golden = tap.golden_bits
            for past in range(max(0, cycle - tap.delay), cycle):
                if past >= injector.golden.n_cycles:
                    continue
                golden_vec = mask if tap_golden[past] else zero
                diff = diff | ((slots[t][past % tap.delay] ^ golden_vec) & active_vec)
        return diff

    def _repack(self, lane_req, lane_lat, slots, free, deadlines, failed, lane_force):
        """Compact surviving lanes into a narrower batch (gather/scatter).

        Only flip-flop state, loopback slots and the failure mask need
        moving: the next loop iteration re-drives inputs and re-settles the
        combinational logic from the repacked state.
        """
        injector = self.injector
        sim = injector.sim
        keep = [lane for lane, req in enumerate(lane_req) if req is not None]
        ff_states = [sim.gather_lanes(sim.values[q], keep) for q in sim._ff_q]
        slot_states = [[sim.gather_lanes(vec, keep) for vec in pipeline] for pipeline in slots]
        failed_int = sim.gather_lanes(failed, keep)

        new_width = max(1, len(keep))
        sim.resize_lanes(new_width)
        mask = sim.mask
        zero = sim.broadcast(0)
        values = sim.values
        # FF rows use the bulk int->native conversion (O(width/64) words);
        # the handful of tap slots go through the generic per-lane scatter.
        for q, packed in zip(sim._ff_q, ff_states):
            values[q] = self._native(packed)
        for t, pipeline in enumerate(slot_states):
            for k, packed in enumerate(pipeline):
                slots[t][k] = sim.scatter_lanes(zero, range(new_width), packed)

        remap = {old: new for new, old in enumerate(keep)}
        new_req: List[Optional[InjectionRequest]] = [None] * new_width
        new_lat = [0] * new_width
        new_force: List[Optional[Tuple]] = [None] * new_width
        for old, new in remap.items():
            new_req[new] = lane_req[old]
            new_lat[new] = lane_lat[old]
            new_force[new] = lane_force[old]
        lane_req[:] = new_req
        lane_lat[:] = new_lat
        lane_force[:] = new_force
        free[:] = []
        for cycle_key in list(deadlines):
            deadlines[cycle_key] = [
                (remap[lane], req)
                for lane, req in deadlines[cycle_key]
                if lane in remap
            ]
            if not deadlines[cycle_key]:
                del deadlines[cycle_key]
        return new_width, mask, zero, values, lane_mask(new_width), failed_int

"""Statistical fault-injection campaign orchestration.

Implements the paper's reference-data generation: "for each of the 1054
flip-flops 170 fault injection simulations were performed", with faults
injected "at different times during the active phase of the simulation".

Scheduling strategy
-------------------
Injection times are drawn per flip-flop, without replacement, from a pool of
*time slots* sampled uniformly inside the active window.  How the draws are
*executed* is a separate knob (``scheduler=``):

``adaptive`` (default)
    All draws feed one long-lived
    :class:`~repro.faultinjection.scheduler.AdaptiveScheduler`: lanes are
    activated at their own injection cycles, retired lanes are refilled
    from the pending queue, and drained passes are compacted — so the
    whole campaign runs in a handful of saturated forward passes.

``batch``
    The paper-faithful reference execution: all injections sharing a time
    slot are simulated together as bit-parallel lanes of a single forward
    run (see :class:`~repro.faultinjection.injector.FaultInjector`), so the
    number of forward simulations is bounded by ``n_time_slots ×
    ceil(lanes / max_lanes)`` instead of ``n_ffs × n_injections``.

Per-injection verdicts and latencies are bit-identical between the two
(differentially verified per fuzz seed), so the per-flip-flop FDR results do
not depend on the choice; only the engine-cost metrics
(``n_forward_runs``, ``total_lane_cycles``) reflect the execution shape.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist.core import Netlist
from ..sim.testbench import GoldenTrace, Testbench
from .classify import FailureCriterion
from .fdr import FdrEstimate
from .injector import FaultInjector
from .scheduler import EXECUTION_SCHEDULERS

__all__ = ["FlipFlopResult", "CampaignResult", "StatisticalFaultCampaign"]


@dataclass
class FlipFlopResult:
    """Per-flip-flop campaign outcome."""

    ff_name: str
    n_injections: int = 0
    n_failures: int = 0
    latency_sum: int = 0

    @property
    def fdr(self) -> float:
        """Functional De-Rating factor: failures / injections.

        ``nan`` when the flip-flop received no injections — an unmeasured
        flip-flop has *unknown* de-rating, not a perfect 0.0 (which would
        silently rank it as the most reliable state bit in every report
        and train regressors on fabricated labels).
        """
        if self.n_injections == 0:
            return float("nan")
        return self.n_failures / self.n_injections

    @property
    def mean_error_latency(self) -> Optional[float]:
        """Mean cycles from SEU to observable failure (failed runs only)."""
        if self.n_failures == 0:
            return None
        return self.latency_sum / self.n_failures

    @property
    def estimate(self) -> FdrEstimate:
        return FdrEstimate(self.n_injections, self.n_failures)


@dataclass
class CampaignResult:
    """Complete campaign record, serializable for caching and reports."""

    #: Serialization schema version written by :meth:`to_payload`.  Bump when
    #: the payload layout changes; :meth:`from_payload` rejects newer versions
    #: so stale readers fail loudly instead of misparsing cached results.
    SCHEMA_VERSION = 1

    circuit: str
    n_injections: int
    seed: int
    results: Dict[str, FlipFlopResult] = field(default_factory=dict)
    n_forward_runs: int = 0
    total_lane_cycles: int = 0
    wall_seconds: float = 0.0

    def fdr(self, ff_name: str) -> float:
        return self.results[ff_name].fdr

    def fdr_vector(self, ff_order: Sequence[str]) -> List[float]:
        """FDR values in the given flip-flop order."""
        return [self.results[name].fdr for name in ff_order]

    def mean_fdr(self) -> float:
        """Mean FDR over the flip-flops that were actually measured.

        Flip-flops with zero injections contribute ``nan`` individually
        (see :attr:`FlipFlopResult.fdr`) and are excluded here; ``nan`` is
        returned only when *nothing* was measured.
        """
        measured = [r.fdr for r in self.results.values() if r.n_injections > 0]
        if not measured:
            return float("nan")
        return sum(measured) / len(measured)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable dict form (shared by :meth:`to_json` and the
        campaign result store)."""
        return {
            "version": self.SCHEMA_VERSION,
            "circuit": self.circuit,
            "n_injections": self.n_injections,
            "seed": self.seed,
            "n_forward_runs": self.n_forward_runs,
            "total_lane_cycles": self.total_lane_cycles,
            "wall_seconds": self.wall_seconds,
            "results": {
                name: [r.n_injections, r.n_failures, r.latency_sum]
                for name, r in self.results.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignResult":
        version = payload.get("version", 0)
        if version > cls.SCHEMA_VERSION:
            raise ValueError(
                f"campaign result written by a newer schema "
                f"(version {version} > supported {cls.SCHEMA_VERSION})"
            )
        result = cls(
            circuit=payload["circuit"],
            n_injections=payload["n_injections"],
            seed=payload["seed"],
            n_forward_runs=payload.get("n_forward_runs", 0),
            total_lane_cycles=payload.get("total_lane_cycles", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )
        for name, fields in payload["results"].items():
            n_inj, n_fail = fields[0], fields[1]
            latency_sum = fields[2] if len(fields) > 2 else 0
            result.results[name] = FlipFlopResult(name, n_inj, n_fail, latency_sum)
        return result

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_payload(json.loads(text))


class StatisticalFaultCampaign:
    """Runs per-flip-flop SEU campaigns against a testbench workload.

    Parameters
    ----------
    netlist / testbench / criterion:
        The device under test, its workload and the functional-failure
        definition.
    active_window:
        ``(first, last)`` injection-cycle range; defaults to the whole
        trace minus a small warm-up.
    golden:
        Reuse a previously recorded golden trace (otherwise recorded here).
    max_lanes:
        Cap on bit-parallel lanes per forward run.  256 is a good trade-off
        for the default compiled backend in CPython.
    check_interval:
        Cycles between the injector's early-retirement checks.
    backend:
        Simulation engine (``"compiled"`` or ``"fused"``, see
        :mod:`repro.sim.backend`); results are backend-invariant.
    scheduler:
        Execution strategy: ``"adaptive"`` (lane refill across injection
        cycles, default) or ``"batch"`` (one forward run per time slot).
        Per-flip-flop results are scheduler-invariant.
    scheduler_lanes:
        Lane capacity of the adaptive scheduler's passes; ``None``
        (default) picks the backend-tuned width — refill keeps wide
        batches full, so the adaptive default is much wider than
        ``max_lanes``.
    fault_model:
        Registered fault model applied at every drawn ``(cycle, ff)``
        site (see :mod:`repro.faultinjection.faults`); ``None`` keeps
        the paper's single-bit SEU semantics.
    """

    SCHEDULERS = EXECUTION_SCHEDULERS

    def __init__(
        self,
        netlist: Netlist,
        testbench: Testbench,
        criterion: FailureCriterion,
        active_window: Optional[Tuple[int, int]] = None,
        golden: Optional[GoldenTrace] = None,
        max_lanes: int = 256,
        check_interval: int = 8,
        backend: str = "compiled",
        scheduler: str = "adaptive",
        scheduler_lanes: Optional[int] = None,
        fault_model: Optional[object] = None,
    ) -> None:
        if scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; choose from {self.SCHEDULERS}"
            )
        self.scheduler = scheduler
        self.scheduler_lanes = scheduler_lanes
        self.netlist = netlist
        self.testbench = testbench
        self.criterion = criterion
        self.golden = golden if golden is not None else testbench.run_golden()
        if active_window is None:
            active_window = (
                min(8, self.golden.n_cycles - 1),
                self.golden.n_cycles - 1,
            )
        first, last = active_window
        if not 0 <= first < last <= self.golden.n_cycles:
            raise ValueError(f"invalid active window {active_window}")
        self.active_window = (first, last)
        self.max_lanes = max_lanes
        self.injector = FaultInjector(
            netlist,
            testbench,
            self.golden,
            criterion,
            check_interval=check_interval,
            backend=backend,
            fault_model=fault_model,
        )

    def run(
        self,
        n_injections: int = 170,
        ff_names: Optional[Sequence[str]] = None,
        seed: int = 0,
        n_time_slots: Optional[int] = None,
        horizon: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> CampaignResult:
        """Run the campaign and estimate the FDR of every targeted flip-flop.

        ``ff_names`` restricts the campaign to a subset (the paper's
        reduced-cost training campaigns); default is all flip-flops.
        """
        start_time = time.monotonic()
        if ff_names is None:
            ff_names = [ff.name for ff in self.netlist.flip_flops()]
        rng = random.Random(seed)
        first, last = self.active_window
        window = list(range(first, last))
        if n_time_slots is None:
            n_time_slots = min(len(window), max(n_injections, int(1.5 * n_injections)))
        if n_time_slots < n_injections:
            raise ValueError(
                f"need at least {n_injections} time slots in the active window, "
                f"got {n_time_slots}"
            )
        slots = sorted(rng.sample(window, n_time_slots))

        result = CampaignResult(
            circuit=self.netlist.name, n_injections=n_injections, seed=seed
        )
        buckets: Dict[int, List[int]] = {}
        for name in ff_names:
            result.results[name] = FlipFlopResult(name)
            ff_idx = self.injector.ff_index(name)
            for cycle in rng.sample(slots, n_injections):
                buckets.setdefault(cycle, []).append(ff_idx)

        ff_order = [ff.name for ff in self.netlist.flip_flops()]
        if self.scheduler == "adaptive":
            requests = [
                (cycle, ff_idx)
                for cycle in sorted(buckets)
                for ff_idx in buckets[cycle]
            ]
            scheduler_progress = None
            if progress is not None:
                n_buckets = len(buckets)

                def scheduler_progress(done: int, total: int) -> None:
                    # Map completed injections onto the bucket scale so both
                    # schedulers report comparable (done, total) ticks.
                    progress(round(done / max(1, total) * n_buckets), n_buckets)

            outcome = self.injector.run_scheduled(
                requests,
                horizon=horizon,
                max_lanes=self.scheduler_lanes,
                progress=scheduler_progress,
            )
            for (cycle, ff_idx), (failed, latency) in zip(requests, outcome.verdicts):
                record = result.results[ff_order[ff_idx]]
                record.n_injections += 1
                if failed:
                    record.n_failures += 1
                    record.latency_sum += latency
            result.n_forward_runs = outcome.stats.n_passes
            result.total_lane_cycles = outcome.stats.lane_cycles
        else:
            done = 0
            total = len(buckets)
            for cycle in sorted(buckets):
                lanes = buckets[cycle]
                for chunk_start in range(0, len(lanes), self.max_lanes):
                    chunk = lanes[chunk_start : chunk_start + self.max_lanes]
                    outcome = self.injector.run_batch(cycle, chunk, horizon=horizon)
                    result.n_forward_runs += 1
                    result.total_lane_cycles += outcome.cycles_simulated * len(chunk)
                    for lane, ff_idx in enumerate(chunk):
                        record = result.results[ff_order[ff_idx]]
                        record.n_injections += 1
                        if (outcome.failed_mask >> lane) & 1:
                            record.n_failures += 1
                            record.latency_sum += outcome.latencies.get(lane, 0)
                done += 1
                if progress is not None:
                    progress(done, total)
        result.wall_seconds = time.monotonic() - start_time
        return result
